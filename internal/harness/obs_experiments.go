package harness

// Observability experiment: the lifecycle event stream is a lossless
// decomposition of the aggregate serve.Report. Under a memory-starved
// enclave that exercises every mechanism at once (chunked prefill, prefix
// sharing, swap-to-host preemption, admission drops), the recorded
// timeline must reconstruct the report's counters, per-request metrics and
// quantiles exactly, the exports must be byte-identical across repeated
// runs and worker counts, and attaching the observer must not perturb the
// simulation.

import (
	"encoding/json"
	"fmt"
	"reflect"

	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/mem"
	"cllm/internal/model"
	"cllm/internal/obs"
	"cllm/internal/par"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "obs",
		Title: "Observability: event stream ↔ report conservation and deterministic exports",
		Paper: "Extension: per-request lifecycle tracing reconstructs every aggregate counter exactly; Perfetto/Prometheus/CSV exports are byte-identical across runs and worker counts",
		Run:   runObservability,
	})
}

// obsScenario builds the memory-starved enclave deployment: the KV pool
// holds ~160 tokens against a 16-request burst of prefix-sharing prompts,
// plus one oversized request that can never be admitted — every event kind
// (admit, chunk, preempt, swap out/in, drop, finish) fires.
func obsScenario(o Options) (serve.Backend, serve.Config) {
	m := model.Config{
		Name: "tiny", HiddenDim: 256, Layers: 4, Heads: 8, KVHeads: 8,
		FFDim: 512, VocabSize: 1024, ContextLen: 8192, NormEps: 1e-5, RopeTheta: 10000,
	}
	wl := trace.Workload{Model: m, Kind: dtype.BF16, InputLen: 64, OutputLen: 16}
	weights := int64(trace.WeightFootprint(wl))
	perToken := m.KVCacheBytesPerToken(2)
	p := tee.Baremetal()
	p.Name = "tiny-enclave"
	p.EPC = mem.EPC{Size: weights + 160*perToken, PageInCostFactor: 1}
	be := serve.Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: p, Sockets: 1, AMX: true}}

	tr := make([]serve.Request, 0, 17)
	for i := 0; i < 16; i++ {
		r := serve.Request{ID: i, ArrivalSec: float64(i) * 0.002, InputLen: 64, OutputLen: 32}
		if i%2 == 0 {
			r.PrefixID, r.PrefixLen = 1, 32
		}
		tr = append(tr, r)
	}
	tr = append(tr, serve.Request{ID: 16, ArrivalSec: 0.033, InputLen: 4096, OutputLen: 4})
	cfg := serve.Config{
		Workload: wl, Trace: tr, Seed: o.Seed,
		Knobs: serve.Knobs{ChunkTokens: 32, PrefixSharing: true, PreemptPolicy: serve.PreemptSwap},
	}
	return be, cfg
}

func runObservability(o Options) (*Result, error) {
	res := &Result{
		ID:     "obs",
		Title:  "Lifecycle tracing: events ↔ aggregate conservation, deterministic exports (extension)",
		Header: []string{"run", "events", "windows", "arrive", "admit", "chunks", "preempt", "swaps(out/in)", "drops", "finish", "trace(B)", "prom(B)", "csv(B)"},
	}

	be, cfg := obsScenario(o)

	// Baseline without an observer: attaching one must not perturb results.
	base, err := serve.Run(be, cfg)
	if err != nil {
		return nil, err
	}

	// Three observed runs — two single-replica, one 2-replica fleet — each
	// with a private recorder, evaluated on the worker pool. Observers are
	// per-run (never shared across concurrent simulations), so any worker
	// count records the identical streams.
	type run struct {
		name  string
		fleet int
		rec   *obs.Recorder
		rep   *serve.Report
	}
	runs := []*run{
		{name: "single/a", fleet: 1},
		{name: "single/b", fleet: 1},
		{name: "fleet×2", fleet: 2},
	}
	err = par.For(o.Workers, len(runs), func(i int) error {
		r := runs[i]
		c := cfg
		r.rec = obs.NewRecorderWindow(0.05, 512)
		c.Observer = r.rec
		if r.fleet > 1 {
			fr, err := serve.RunFleet(be, c, serve.FleetConfig{Replicas: r.fleet, Policy: serve.RoundRobin})
			if err != nil {
				return err
			}
			r.rep = fr.Aggregate
			return nil
		}
		rep, err := serve.Run(be, c)
		if err != nil {
			return err
		}
		r.rep = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, r := range runs {
		traceJSON := r.rec.PerfettoTrace()
		res.Rows = append(res.Rows, []string{
			r.name,
			fmt.Sprintf("%d", r.rec.Len()),
			fmt.Sprintf("%d", len(r.rec.Series().Merged())),
			fmt.Sprintf("%d", r.rec.CountKind(serve.EvArrive)),
			fmt.Sprintf("%d", r.rec.CountKind(serve.EvAdmit)),
			fmt.Sprintf("%d", r.rec.CountKind(serve.EvPrefillChunk)),
			fmt.Sprintf("%d", r.rec.CountKind(serve.EvPreempt)),
			fmt.Sprintf("%d/%d", r.rec.CountKind(serve.EvSwapOut), r.rec.CountKind(serve.EvSwapIn)),
			fmt.Sprintf("%d", r.rec.CountKind(serve.EvDrop)),
			fmt.Sprintf("%d", r.rec.CountKind(serve.EvFinish)),
			fmt.Sprintf("%d", len(traceJSON)),
			fmt.Sprintf("%d", len(obs.PrometheusText(r.rep))),
			fmt.Sprintf("%d", len(r.rec.TimeseriesCSV())),
		})
	}

	// Conservation: each observed run's stream reconstructs its own report
	// exactly — counters, per-request metrics, quantiles, goodput.
	for _, r := range runs {
		bad := obs.ReconcileReport(r.rec.Events(), r.rep)
		detail := "events reconstruct every counter, request metric and quantile bit-exactly"
		if len(bad) > 0 {
			detail = bad[0]
		}
		res.Checks = append(res.Checks, Check{
			Name:   "events ↔ report conservation (" + r.name + ")",
			Pass:   len(bad) == 0,
			Detail: detail,
		})
	}

	// Phase conservation: refolding each stream through the attribution
	// engine partitions every request's latency into queue + prefill +
	// decode + preempt-stall + swap-transfer with zero residue, and the
	// per-request sums match the report's recorded latencies.
	for _, r := range runs {
		bad := obs.ReconcilePhases(r.rec.Events(), r.rep)
		detail := "phase vectors sum to measured latency for every request"
		if len(bad) > 0 {
			detail = bad[0]
		}
		res.Checks = append(res.Checks, Check{
			Name:   "phase attribution conserves latency (" + r.name + ")",
			Pass:   len(bad) == 0,
			Detail: detail,
		})
	}

	// The scenario must exercise every event kind up to EvFinish; the
	// later ones need faults, shedding or a disaggregated topology.
	missing := ""
	for k := serve.EvArrive; k <= serve.EvFinish; k++ {
		if runs[0].rec.CountKind(k) == 0 {
			missing += " " + k.String()
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:   "scenario exercises all 10 event kinds",
		Pass:   missing == "",
		Detail: fmt.Sprintf("missing kinds:%s", orNone(missing)),
	})

	// Observer neutrality: the observed single run equals the bare run.
	res.Checks = append(res.Checks, Check{
		Name:   "observer does not perturb the simulation",
		Pass:   reflect.DeepEqual(base, runs[0].rep),
		Detail: "report with observer attached is deep-equal to the bare report",
	})

	// Determinism: the two single-replica runs are byte-identical in every
	// export (regardless of worker count — observers are per-run).
	a, b := runs[0], runs[1]
	identical := reflect.DeepEqual(a.rec.Events(), b.rec.Events()) &&
		string(a.rec.PerfettoTrace()) == string(b.rec.PerfettoTrace()) &&
		string(obs.PrometheusText(a.rep)) == string(obs.PrometheusText(b.rep)) &&
		string(a.rec.TimeseriesCSV()) == string(b.rec.TimeseriesCSV())
	res.Checks = append(res.Checks, Check{
		Name:   "repeated runs export byte-identical artifacts",
		Pass:   identical,
		Detail: fmt.Sprintf("trace %dB, prometheus %dB, csv %dB", len(a.rec.PerfettoTrace()), len(obs.PrometheusText(a.rep)), len(a.rec.TimeseriesCSV())),
	})

	// The Perfetto artifact is well-formed trace-event JSON.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	jsonErr := json.Unmarshal(runs[2].rec.PerfettoTrace(), &doc)
	res.Checks = append(res.Checks, Check{
		Name:   "Perfetto trace is well-formed JSON",
		Pass:   jsonErr == nil && len(doc.TraceEvents) > 0,
		Detail: fmt.Sprintf("%d trace events parsed", len(doc.TraceEvents)),
	})

	res.Notes = append(res.Notes,
		"All timestamps come from the deterministic sim clock — no wall-clock reads anywhere in the pipeline, so artifacts are reproducible byte-for-byte.",
		"The disabled (nil-observer) path is branch-only and allocation-free; BenchmarkServeSchedulerObserved measures the enabled tax.")
	return res, nil
}

// orNone renders an accumulated string or "none".
func orNone(s string) string {
	if s == "" {
		return " none"
	}
	return s
}
