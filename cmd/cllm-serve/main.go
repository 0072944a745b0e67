// cllm-serve simulates production serving on a confidential platform:
// Poisson arrivals — or a workload scenario (bursty MMPP, diurnal, ramp ×
// chat/RAG/agentic mixes) — into a continuous-batching scheduler with a
// paged KV-cache, optionally with chunked prefill, prefix-cache sharing, a
// load-balanced multi-replica fleet, or an elastic autoscaled
// heterogeneous fleet — reported as throughput–latency curves with
// SLO-aware cost.
//
// Usage:
//
//	cllm-serve -platform tdx -rate 8
//	cllm-serve -platform baremetal,tdx,sgx -rate 8 -model llama2-7b
//	cllm-serve -platform cgpu -rate 24 -slo-ttft 2 -slo-tpot 0.2
//	cllm-serve -platform sgx -rate 2 -prefix-share -prefix-groups 4 -chunk-size 512
//	cllm-serve -replicas 4 -lb-policy prefix-affinity -prefix-share -chunk-size 512 -format json
//	cllm-serve -platform tdx -scenario diurnal+rag -rate 6
//	cllm-serve -topology cgpu:1=prefill,tdx:3=decode -rate 12 -in 2048 -out 128
//	cllm-serve -scenario diurnal -autoscale -classes tdx:2,cgpu:2
//	cllm-serve -scenario bursty -autoscale -classes tdx:4 -no-cold-start
//
// For each platform the offered rate is swept around -rate, tracing how
// tail latency and cost-per-million-tokens move as load approaches and
// passes saturation. With -autoscale, one elastic run is simulated
// instead: replica classes from -classes scale reactively with the
// scenario, paying per-TEE cold starts (enclave/TD build + attestation).
// -format csv|json emits the same rows machine-readably for plotting
// (schema in docs/serving-model.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cllm"
	"cllm/internal/harness"
	"cllm/internal/obs"
	"cllm/internal/serve"
)

func main() {
	var o options
	specs := flagTable(&o)
	registerFlags(flag.CommandLine, specs)
	flag.Parse()

	if err := checkFlags(&o, specs); err != nil {
		fmt.Fprintf(os.Stderr, "cllm-serve: %v\n", err)
		os.Exit(1)
	}
	o.cfg.Observe = o.traceOut != "" || o.metricsOut != "" || o.timesOut != ""

	if o.autoscale {
		// The sweep default of 48 arrivals spans seconds; an elastic run
		// needs enough stream for the control loop to act. Unless the user
		// set -requests, defer to the API default.
		requestsSet := false
		flag.Visit(func(f *flag.Flag) { requestsSet = requestsSet || f.Name == "requests" })
		if !requestsSet {
			o.cfg.Requests = 0
		}
		runAutoscale(o)
		return
	}

	load := fmt.Sprintf("in/out %d/%d tokens", o.cfg.InputLen, o.cfg.OutputLen)
	if o.cfg.Scenario != "" {
		load = "scenario " + o.cfg.Scenario
	}
	// The default recompute policy keeps the historical table schema (and
	// byte-identical output); swap/auto runs add the policy to the title and
	// a swaps column (out/in transfer counts). Decide off the parsed policy
	// so spelling variants of recompute keep the historical schema too.
	swapMode := o.cfg.PreemptPolicy != cllm.PreemptRecompute
	// A role-aware topology replaces the replicas+policy fleet description
	// (and the -platform list: the groups name their own platforms).
	fleetDesc := fmt.Sprintf("%d replica(s) %s", o.cfg.Replicas, o.cfg.LBPolicy)
	platList := strings.Split(o.platforms, ",")
	if o.cfg.Topology != "" {
		fleetDesc = "topology " + o.cfg.Topology
		// The groups open their own platforms as sub-sessions: the host
		// session's platform is unused, so one run on any platform will do.
		platList = []string{"baremetal"}
	}
	title := fmt.Sprintf("%s (%s), %d requests per point, %s, chunk %d, share %v, %s, SLO TTFT %.2gs TPOT %.2gs",
		o.cfg.Model, o.cfg.DType, o.cfg.Requests, load, o.cfg.ChunkTokens, o.cfg.PrefixSharing, fleetDesc, o.cfg.TTFTSLOSec, o.cfg.TPOTSLOSec)
	header := []string{"platform", "rate(req/s)", "tput(tok/s)", "goodput", "SLO%", "TTFT p50(s)", "TTFT p99(s)", "TPOT(s)", "TPOT p99(s)", "p99 lat(s)", "prefix-hit(tok)", "preempt", "replicas", "$/Mtok@SLO"}
	if swapMode {
		title += ", preempt " + o.cfg.PreemptPolicy.String()
		header = append(header, "swaps(out/in)")
	}
	// The machine formats carry the full report: the text table keeps its
	// historical (byte-identical) schema, csv|json append every remaining
	// counter so plots never need a second run.
	machine := o.format != "table"
	if machine {
		header = append(header, "completed", "dropped", "unfinished",
			"kv-blocks", "kv-peak", "prefix-miss(tok)", "evicted-blocks", "swap-out", "swap-in",
			"shed", "dropped-kv", "dropped-shed", "dropped-deadline", "dropped-lost",
			"retries", "crashes", "downtime(s)",
			"handoffs", "handoffs-in", "handoff-fallbacks", "handoff-bytes")
	}
	// The export artifacts and the attribution come from one run: the
	// first platform's base-rate (×1) sweep point.
	recorded, record := &cllm.ServeReport{}, true
	table := &harness.Result{
		ID:     "serve",
		Title:  title,
		Header: header,
	}
	for _, plat := range platList {
		plat = strings.TrimSpace(plat)
		if plat == "" {
			continue
		}
		sess, err := cllm.Open(cllm.Config{Platform: plat, System: o.cfg.System, Seed: o.cfg.Seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cllm-serve: %v\n", err)
			os.Exit(1)
		}
		for _, m := range o.mults {
			cfg := o.cfg.ServeConfig
			cfg.RatePerSec *= m
			base := record && m == 1
			cfg.Observe, cfg.Attribution = cfg.Observe && base, cfg.Attribution && base
			rep, err := sess.Serve(cfg)
			if err != nil {
				if o.cfg.Topology != "" {
					plat = fleetDesc // the host session's platform is unused
				}
				fmt.Fprintf(os.Stderr, "cllm-serve: %s at rate %.2f: %v\n", plat, cfg.RatePerSec, err)
				os.Exit(1)
			}
			nRepl, cost := "-", "-"
			if rep.SLOFeasible {
				nRepl = fmt.Sprintf("%d", rep.ReplicasAtSLO)
				cost = fmt.Sprintf("%.2f", rep.USDPerMTokAtSLO)
			}
			row := []string{
				rep.Platform,
				fmt.Sprintf("%.2f", rep.OfferedRate),
				fmt.Sprintf("%.1f", rep.TokensPerSec),
				fmt.Sprintf("%.1f", rep.GoodputTokensPerSec),
				fmt.Sprintf("%.0f%%", rep.SLOAttainment()*100),
				fmt.Sprintf("%.3f", rep.TTFT.P50),
				fmt.Sprintf("%.3f", rep.TTFT.P99),
				fmt.Sprintf("%.3f", rep.TPOT.Mean),
				fmt.Sprintf("%.3f", rep.TPOT.P99),
				fmt.Sprintf("%.2f", rep.Latency.P99),
				fmt.Sprintf("%d", rep.PrefixCacheHitTokens),
				fmt.Sprintf("%d", rep.Preemptions),
				nRepl,
				cost,
			}
			if swapMode {
				row = append(row, fmt.Sprintf("%d/%d", rep.SwapOuts, rep.SwapIns))
			}
			if machine {
				row = append(row,
					fmt.Sprintf("%d", rep.Completed),
					fmt.Sprintf("%d", rep.Dropped),
					fmt.Sprintf("%d", rep.Unfinished),
					fmt.Sprintf("%d", rep.KVBlocksTotal),
					fmt.Sprintf("%d", rep.PeakKVBlocksInUse),
					fmt.Sprintf("%d", rep.PrefixCacheMissTokens),
					fmt.Sprintf("%d", rep.EvictedBlocks),
					fmt.Sprintf("%d", rep.SwapOuts),
					fmt.Sprintf("%d", rep.SwapIns),
					fmt.Sprintf("%d", rep.Sheds),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropKVExhausted]),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropAdmissionShed]),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropDeadlineExpired]),
					fmt.Sprintf("%d", rep.DroppedByReason[serve.DropFailureLost]),
					fmt.Sprintf("%d", rep.Retries),
					fmt.Sprintf("%d", rep.Crashes),
					fmt.Sprintf("%.3f", rep.DowntimeSec),
					fmt.Sprintf("%d", rep.HandoffsOut),
					fmt.Sprintf("%d", rep.HandoffsIn),
					fmt.Sprintf("%d", rep.HandoffFallbacks),
					fmt.Sprintf("%.4g", rep.HandoffBytes))
			}
			table.Rows = append(table.Rows, row)
			if base {
				recorded, record = rep, false
			}
		}
	}

	emit(table, o.format)
	writeRecorded(o, recorded)
}

// writeRecorded writes the recorded run's artifacts and attribution to
// the files their flags name, releases its recorder, and diffs its
// attribution against the -compare baseline, exiting 1 on a regression.
func writeRecorded(o options, rep *cllm.ServeReport) {
	if ob := rep.Observation; ob != nil {
		writeFile(o.traceOut, ob.WriteTrace)
		writeFile(o.metricsOut, ob.WritePrometheus)
		writeFile(o.timesOut, ob.WriteTimeseries)
		ob.Release()
	}
	if a := rep.Attrib; a != nil {
		writeFile(o.attribOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(a)
		})
		writeFile(o.attribCSV, func(w io.Writer) error {
			_, err := w.Write(a.PhaseCSV())
			return err
		})
	}
	if o.compare != "" && !compareBaseline(rep.Attrib, o.compare, o.compareSlack, o.format) {
		os.Exit(1)
	}
}

// writeFile renders one artifact into the file at path, or does nothing
// when its flag left path empty; a failure exits 1.
func writeFile(path string, render func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = errors.Join(render(f), f.Close())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cllm-serve: %v\n", err)
		os.Exit(1)
	}
}

// compareBaseline diffs the attributed run against a baseline attribution
// JSON and prints the movements that exceed the combined sketch error
// bounds plus slack. Returns false when any movement is a regression.
func compareBaseline(cur *obs.AttribReport, baselinePath string, slack float64, format string) bool {
	if cur == nil {
		fmt.Fprintln(os.Stderr, "cllm-serve: -compare got no attributed run")
		os.Exit(1)
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cllm-serve: %v\n", err)
		os.Exit(1)
	}
	var base obs.AttribReport
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "cllm-serve: baseline %s: %v\n", baselinePath, err)
		os.Exit(1)
	}
	deltas := obs.Diff(&base, cur, slack)
	table := &harness.Result{
		ID: "attrib-diff",
		Title: fmt.Sprintf("attribution diff vs %s (baseline %s, current %s; noise floor α %g+%g, slack %g)",
			baselinePath, base.Platform, cur.Platform, base.Alpha, cur.Alpha, slack),
		Header: []string{"metric", "phase", "base", "current", "delta", "threshold", "regression"},
	}
	regressed := false
	for _, d := range deltas {
		unit := ""
		if d.Relative {
			unit = "%"
		}
		delta := d.Delta
		if d.Relative {
			delta *= 100
		}
		if d.Regression {
			regressed = true
		}
		table.Rows = append(table.Rows, []string{
			d.Metric, d.Phase,
			fmt.Sprintf("%.6g", d.Base), fmt.Sprintf("%.6g", d.Cur),
			fmt.Sprintf("%+.4g%s", delta, unit), fmt.Sprintf("%.4g", d.Threshold),
			fmt.Sprintf("%v", d.Regression),
		})
	}
	if len(deltas) == 0 {
		table.Notes = append(table.Notes, "no movement beyond the noise floor")
	}
	emit(table, format)
	return !regressed
}

// emit prints a result table in the chosen format.
func emit(table *harness.Result, format string) {
	switch format {
	case "csv":
		fmt.Print(table.CSV())
	case "json":
		out, err := table.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cllm-serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
	default:
		fmt.Print(table.Render())
	}
}

// runAutoscale simulates one elastic heterogeneous fleet and prints its
// per-class usage plus the fleet summary row.
func runAutoscale(o options) {
	rep, err := cllm.Autoscale(o.cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cllm-serve: %v\n", err)
		os.Exit(1)
	}

	offered := rep.Completed + rep.Dropped + rep.Unfinished
	table := &harness.Result{
		ID: "autoscale",
		Title: fmt.Sprintf("%s (%s), scenario %s at %.2g req/s mean, %d requests, %s dispatch, target util %.2g, SLO TTFT %.2gs TPOT %.2gs",
			o.cfg.Model, o.cfg.DType, rep.Scenario, o.cfg.RatePerSec, offered, rep.Dispatch, o.cfg.TargetUtil, o.cfg.TTFTSLOSec, o.cfg.TPOTSLOSec),
		Header: []string{"class", "$/h", "coldstart(s)", "cap(req/s)", "dispatched", "peak", "coldstarts", "replica-hrs", "cost($)", "SLO%", "goodput", "$/Mtok"},
	}
	// The machine formats carry the fleet-level request partition, latency
	// and preemption/swap counters as columns (the text table keeps them in
	// the note, preserving its historical schema).
	machine := o.format != "table"
	if machine {
		table.Header = append(table.Header, "completed", "dropped", "unfinished",
			"preempt", "swap-out", "swap-in", "tokens", "TTFT p50(s)", "TTFT p99(s)")
	}
	for _, c := range rep.Classes {
		row := []string{
			c.Name,
			fmt.Sprintf("%.2f", c.HourlyUSD),
			fmt.Sprintf("%.1f", c.ColdStartSec),
			fmt.Sprintf("%.2f", c.CapacityReqPerSec),
			fmt.Sprintf("%d", c.Dispatched),
			fmt.Sprintf("%d", c.PeakActive),
			fmt.Sprintf("%d", c.ColdStarts),
			fmt.Sprintf("%.4f", c.ReplicaHours),
			fmt.Sprintf("%.4f", c.CostUSD),
			"-", "-", "-",
		}
		if machine {
			row = append(row, "-", "-", "-", "-", "-", "-", "-", "-", "-")
		}
		table.Rows = append(table.Rows, row)
	}
	fleetRow := []string{
		"fleet", "-", "-", "-",
		fmt.Sprintf("%d", rep.Completed+rep.Dropped+rep.Unfinished),
		"-",
		fmt.Sprintf("%d", rep.ColdStarts),
		fmt.Sprintf("%.4f", rep.ReplicaHours),
		fmt.Sprintf("%.4f", rep.CostUSD),
		fmt.Sprintf("%.0f%%", rep.SLOAttainment()*100),
		fmt.Sprintf("%.1f", rep.GoodputTokensPerSec),
		fmt.Sprintf("%.2f", rep.USDPerMTok),
	}
	if machine {
		fleetRow = append(fleetRow,
			fmt.Sprintf("%d", rep.Completed),
			fmt.Sprintf("%d", rep.Dropped),
			fmt.Sprintf("%d", rep.Unfinished),
			fmt.Sprintf("%d", rep.Preemptions),
			fmt.Sprintf("%d", rep.SwapOuts),
			fmt.Sprintf("%d", rep.SwapIns),
			fmt.Sprintf("%d", rep.TotalTokens),
			fmt.Sprintf("%.3f", rep.TTFT.P50),
			fmt.Sprintf("%.3f", rep.TTFT.P99))
	}
	table.Rows = append(table.Rows, fleetRow)
	table.Notes = append(table.Notes,
		fmt.Sprintf("completed %d, dropped %d, unfinished %d; TTFT p50 %.3fs p99 %.3fs; %d control windows",
			rep.Completed, rep.Dropped, rep.Unfinished, rep.TTFT.P50, rep.TTFT.P99, len(rep.Windows)))
	emit(table, o.format)
	writeRecorded(o, &rep.ServeReport)
}
