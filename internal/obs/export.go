package obs

import (
	"bytes"
	"fmt"
	"strconv"

	"cllm/internal/serve"
)

// usec renders a sim-clock time as trace-event microseconds.
func usec(sec float64) string { return fmt.Sprintf("%.3f", sec*1e6) }

// PerfettoTrace renders the recorded event stream as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one
// process per replica, one track (thread) per request, complete ("X")
// spans for the queued / preempted / prefill / decode phases and instant
// ("i") events for preemptions, swap transfers and drops. Timestamps are
// the deterministic sim clock converted to microseconds — identical runs
// serialize byte-identically.
//
// Span endpoints come from the closing lifecycle event: a request still
// queued or running at the horizon has no closing event and contributes
// only its instants and already-closed spans.
func (r *Recorder) PerfettoTrace() []byte { return r.perfettoTrace(nil) }

// PerfettoTraceWithCounters is PerfettoTrace plus counter ("C") tracks from
// the attribution's windowed series: a phase_seconds track carrying the
// fleet-wide prefill / decode / swap seconds accrued per window, and — when
// the run was clear-costed — a tee_tax_seconds track with the window's tax.
// Counter events attach to pid 0 and inherit the series' coalescing, so the
// tracks stay bounded on arbitrarily long runs.
func (r *Recorder) PerfettoTraceWithCounters(a *Attribution) []byte { return r.perfettoTrace(a) }

func (r *Recorder) perfettoTrace(a *Attribution) []byte {
	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			buf.WriteByte(',')
		}
		first = false
		buf.WriteByte('\n')
	}
	emit := func(format string, args ...any) {
		sep()
		fmt.Fprintf(&buf, format, args...)
	}
	// The per-event emitters below format with append-based strconv into a
	// reused scratch buffer: fmt's interface boxing and verb parsing
	// dominated the observed path's allocation profile. Every name, policy
	// and reason string is a fixed identifier, so plain quoting matches %q.
	scratch := make([]byte, 0, 256)
	num := func(prefix string, v int) {
		scratch = append(scratch, prefix...)
		scratch = strconv.AppendInt(scratch, int64(v), 10)
	}
	ts := func(prefix string, sec float64) {
		scratch = append(scratch, prefix...)
		scratch = strconv.AppendFloat(scratch, sec*1e6, 'f', 3, 64)
	}
	str := func(prefix, v string) {
		scratch = append(scratch, prefix...)
		scratch = append(scratch, '"')
		scratch = append(scratch, v...)
		scratch = append(scratch, '"')
	}
	flush := func() {
		sep()
		buf.Write(scratch)
		scratch = scratch[:0]
	}

	// Process metadata first: one named track group per replica seen.
	seen := map[int]bool{}
	var replicas []int
	var ev serve.Event
	for c := r.log.walk(); c.next(&ev); {
		if !seen[ev.Replica] {
			seen[ev.Replica] = true
			replicas = append(replicas, ev.Replica)
		}
	}
	for _, id := range replicas {
		emit(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"replica %d"}}`, id, id)
		emit(`{"name":"process_sort_index","ph":"M","pid":%d,"args":{"sort_index":%d}}`, id, id)
	}

	span := func(name string, ev serve.Event, from, to float64) {
		str(`{"name":`, name)
		scratch = append(scratch, `,"cat":"request","ph":"X"`...)
		num(`,"pid":`, ev.Replica)
		num(`,"tid":`, ev.ReqID)
		ts(`,"ts":`, from)
		ts(`,"dur":`, to-from)
		scratch = append(scratch, '}')
		flush()
	}
	type track struct {
		arrive, admit, firstTok, preempt, handoff float64
		hasAdmit, hasPreempt, hasHandoff          bool
	}
	tracks := map[int]*track{}
	// instant opens a thread-scoped instant on the current event's request
	// track, named for its kind.
	instant := func(cat string) {
		str(`{"name":`, ev.Kind.String())
		str(`,"cat":`, cat)
		scratch = append(scratch, `,"ph":"i","s":"t"`...)
		num(`,"pid":`, ev.Replica)
		num(`,"tid":`, ev.ReqID)
		ts(`,"ts":`, ev.TimeSec)
	}
	for c := r.log.walk(); c.next(&ev); {
		switch ev.Kind {
		case serve.EvCrash, serve.EvRecover:
			// Per-replica fault events (ReqID -1): process-scoped instants so
			// the outage brackets every request track of the replica.
			str(`{"name":`, ev.Kind.String())
			scratch = append(scratch, `,"cat":"fault","ph":"i","s":"p"`...)
			num(`,"pid":`, ev.Replica)
			ts(`,"ts":`, ev.TimeSec)
			num(`,"args":{"inflight":`, ev.Tokens)
			scratch = append(scratch, `,"recovery_s":`...)
			scratch = strconv.AppendFloat(scratch, ev.XferSec, 'g', 6, 64)
			scratch = append(scratch, "}}"...)
			flush()
			continue
		}
		t := tracks[ev.ReqID]
		if t == nil && ev.Kind != serve.EvDecodeRound {
			t = &track{}
			tracks[ev.ReqID] = t
		}
		switch ev.Kind {
		case serve.EvArrive:
			t.arrive = ev.TimeSec
		case serve.EvAdmit:
			if !t.hasAdmit {
				t.hasAdmit = true
				t.admit = ev.TimeSec
				span("queued", ev, t.arrive, ev.TimeSec)
			} else if t.hasHandoff {
				// Decode-side admission closes the handoff: a span on the
				// destination track plus the flow arrow's binding end, so
				// Perfetto draws the transfer between the two replica
				// tracks. The decode span then starts here.
				t.hasHandoff = false
				span("handoff", ev, t.handoff, ev.TimeSec)
				scratch = append(scratch, `{"name":"kv-handoff","cat":"handoff","ph":"f","bp":"e"`...)
				num(`,"id":`, ev.ReqID)
				num(`,"pid":`, ev.Replica)
				num(`,"tid":`, ev.ReqID)
				ts(`,"ts":`, ev.TimeSec)
				scratch = append(scratch, '}')
				flush()
				t.firstTok = ev.TimeSec
			} else if t.hasPreempt {
				t.hasPreempt = false
				span("preempted", ev, t.preempt, ev.TimeSec)
			}
		case serve.EvFirstToken:
			span("prefill", ev, t.admit, ev.TimeSec)
			t.firstTok = ev.TimeSec
		case serve.EvFinish:
			span("decode", ev, t.firstTok, ev.TimeSec)
		case serve.EvDrop:
			span("queued", ev, t.arrive, ev.TimeSec)
			instant("sched")
			str(`,"args":{"reason":`, ev.Drop.String())
			num(`,"tokens":`, ev.Tokens)
			scratch = append(scratch, "}}"...)
			flush()
		case serve.EvShed:
			instant("sched")
			num(`,"args":{"tokens":`, ev.Tokens)
			scratch = append(scratch, "}}"...)
			flush()
		case serve.EvRetry:
			instant("sched")
			num(`,"args":{"attempt":`, ev.Hist)
			scratch = append(scratch, "}}"...)
			flush()
		case serve.EvPreempt:
			t.preempt = ev.TimeSec
			t.hasPreempt = true
			instant("sched")
			str(`,"args":{"policy":`, ev.Policy.String())
			str(`,"reason":`, ev.Reason.String())
			num(`,"tokens":`, ev.Tokens)
			scratch = append(scratch, "}}"...)
			flush()
		case serve.EvSwapOut, serve.EvSwapIn:
			instant("swap")
			num(`,"args":{"tokens":`, ev.Tokens)
			scratch = append(scratch, `,"bytes":`...)
			scratch = strconv.AppendFloat(scratch, ev.Bytes, 'f', 0, 64)
			scratch = append(scratch, `,"xfer_ms":`...)
			scratch = strconv.AppendFloat(scratch, ev.XferSec*1e3, 'g', 6, 64)
			scratch = append(scratch, "}}"...)
			flush()
		case serve.EvHandoff:
			// Launch instant on the prefill replica's track with the priced
			// transfer, then the flow arrow's start; the matching binding
			// end is emitted at the destination's EvAdmit above.
			t.handoff = ev.TimeSec
			t.hasHandoff = true
			instant("handoff")
			num(`,"args":{"tokens":`, ev.Tokens)
			scratch = append(scratch, `,"bytes":`...)
			scratch = strconv.AppendFloat(scratch, ev.Bytes, 'f', 0, 64)
			scratch = append(scratch, `,"xfer_ms":`...)
			scratch = strconv.AppendFloat(scratch, ev.XferSec*1e3, 'g', 6, 64)
			scratch = append(scratch, "}}"...)
			flush()
			scratch = append(scratch, `{"name":"kv-handoff","cat":"handoff","ph":"s"`...)
			num(`,"id":`, ev.ReqID)
			num(`,"pid":`, ev.Replica)
			num(`,"tid":`, ev.ReqID)
			ts(`,"ts":`, ev.TimeSec)
			scratch = append(scratch, '}')
			flush()
		}
	}
	if a != nil {
		for _, w := range a.counters.wins {
			emit(`{"name":"phase_seconds","cat":"attrib","ph":"C","pid":0,"ts":%s,"args":{"prefill":%.6g,"decode":%.6g,"swap":%.6g}}`,
				usec(w.startSec), float64(w.prefN)/1e9, float64(w.decN)/1e9, float64(w.swapN)/1e9)
		}
		if a.clearCosted {
			for _, w := range a.counters.wins {
				emit(`{"name":"tee_tax_seconds","cat":"attrib","ph":"C","pid":0,"ts":%s,"args":{"tax":%.6g}}`,
					usec(w.startSec), float64(w.taxN)/1e9)
			}
		}
	}
	buf.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return buf.Bytes()
}

// PrometheusText renders a Prometheus text-exposition (0.0.4) snapshot of
// a run's aggregate report: end-of-run counter and gauge values plus the
// latency quantile summaries, labeled with the platform. Metrics are
// written in a fixed order, so identical reports serialize
// byte-identically.
func PrometheusText(rep *serve.Report) []byte {
	var buf bytes.Buffer
	lbl := fmt.Sprintf(`platform=%q`, rep.Platform)
	counter := func(name, help string, v int) {
		fmt.Fprintf(&buf, "# HELP cllm_%s %s\n# TYPE cllm_%s counter\ncllm_%s{%s} %d\n", name, help, name, name, lbl, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&buf, "# HELP cllm_%s %s\n# TYPE cllm_%s gauge\ncllm_%s{%s} %g\n", name, help, name, name, lbl, v)
	}
	summary := func(name, help string, q serve.Quantiles, n int) {
		fmt.Fprintf(&buf, "# HELP cllm_%s %s\n# TYPE cllm_%s summary\n", name, help, name)
		fmt.Fprintf(&buf, "cllm_%s{%s,quantile=\"0.5\"} %g\n", name, lbl, q.P50)
		fmt.Fprintf(&buf, "cllm_%s{%s,quantile=\"0.95\"} %g\n", name, lbl, q.P95)
		fmt.Fprintf(&buf, "cllm_%s{%s,quantile=\"0.99\"} %g\n", name, lbl, q.P99)
		fmt.Fprintf(&buf, "cllm_%s_sum{%s} %g\n", name, lbl, q.Mean*float64(n))
		fmt.Fprintf(&buf, "cllm_%s_count{%s} %d\n", name, lbl, n)
	}
	counter("requests_completed_total", "Requests completed within the run.", rep.Completed)
	counter("requests_dropped_total", "Requests that left the run unserved (all reasons).", rep.Dropped)
	buf.WriteString("# HELP cllm_requests_dropped_reason_total Requests dropped, by reason; sums to cllm_requests_dropped_total.\n" +
		"# TYPE cllm_requests_dropped_reason_total counter\n")
	for i, n := range rep.DroppedByReason {
		fmt.Fprintf(&buf, "cllm_requests_dropped_reason_total{%s,reason=%q} %d\n", lbl, serve.DropReason(i).String(), n)
	}
	counter("requests_shed_total", "Requests declined by deadline-aware admission control.", rep.Sheds)
	counter("request_retries_total", "Shed or failure-lost requests re-entering after backoff.", rep.Retries)
	counter("replica_crashes_total", "Injected replica failures.", rep.Crashes)
	counter("requests_unfinished_total", "Requests still queued or running at the horizon.", rep.Unfinished)
	counter("preemptions_total", "Sequences evicted from the running batch.", rep.Preemptions)
	counter("swap_outs_total", "Preemption victims parked in the host swap pool.", rep.SwapOuts)
	counter("swap_ins_total", "Parked requests restored from the host swap pool.", rep.SwapIns)
	counter("kv_handoffs_total", "KV handoffs launched from prefill-role replicas (disaggregated topologies).", rep.HandoffsOut)
	counter("kv_handoffs_ingested_total", "Handed-off requests admitted by decode-role replicas.", rep.HandoffsIn)
	counter("kv_handoff_fallbacks_total", "Handoffs recomputed on arrival because the decode staging pool was full.", rep.HandoffFallbacks)
	counter("kv_handoff_tokens_total", "KV entries transferred across the prefill-to-decode edge.", rep.HandoffTokens)
	fmt.Fprintf(&buf, "# HELP cllm_kv_handoff_bytes_total KV bytes drained across the interconnect by handoffs.\n"+
		"# TYPE cllm_kv_handoff_bytes_total counter\ncllm_kv_handoff_bytes_total{%s} %g\n", lbl, rep.HandoffBytes)
	counter("tokens_generated_total", "Output tokens produced.", rep.TotalTokens)
	counter("prefix_cache_hit_tokens_total", "Prompt tokens served from shared prefix blocks.", rep.PrefixCacheHitTokens)
	counter("prefix_cache_miss_tokens_total", "Shareable prefix tokens that had to be computed.", rep.PrefixCacheMissTokens)
	counter("kv_blocks_evicted_total", "Cached prefix blocks reclaimed under memory pressure.", rep.EvictedBlocks)
	gauge("kv_blocks_total", "Device KV pool capacity in blocks.", float64(rep.KVBlocksTotal))
	gauge("kv_blocks_peak", "Device KV pool occupancy high-water mark.", float64(rep.PeakKVBlocksInUse))
	gauge("swap_pool_blocks", "Host swap pool capacity in blocks.", float64(rep.SwapPoolBlocks))
	gauge("swap_blocks_peak", "Host swap pool occupancy high-water mark.", float64(rep.PeakSwapBlocksInUse))
	gauge("offered_rate_req_per_sec", "Offered arrival rate.", rep.OfferedRate)
	gauge("makespan_seconds", "Simulated time from first arrival to last event.", rep.MakespanSec)
	gauge("replica_downtime_seconds", "Simulated seconds replicas spent in TEE cold-start recovery.", rep.DowntimeSec)
	gauge("throughput_tokens_per_sec", "Aggregate generation throughput.", rep.TokensPerSec)
	gauge("goodput_tokens_per_sec", "Throughput counting only SLO-compliant requests' tokens.", rep.GoodputTokensPerSec)
	gauge("slo_attainment", "Fraction of offered requests served within SLO.", rep.SLOAttainment())
	// Each summary counts the samples its quantiles cover: every completed
	// request for TTFT and latency, only multi-token ones for TPOT
	// (single-token requests have none). Both quantile modes carry them.
	tpotN := 0
	if rep.Sketched {
		tpotN = int(rep.TPOTSketch.Count())
	} else {
		for _, m := range rep.Requests {
			if m.OutputTokens > 1 {
				tpotN++
			}
		}
	}
	summary("ttft_seconds", "Time to first token of completed requests.", rep.TTFT, rep.Completed)
	summary("tpot_seconds", "Mean time per output token of completed multi-token requests.", rep.TPOT, tpotN)
	summary("request_latency_seconds", "Arrival-to-completion latency of completed requests.", rep.Latency, rep.Completed)
	return buf.Bytes()
}

// TimeseriesCSV renders the merged fleet-wide windowed series as CSV: one
// row per aligned window, gauges as last-value and in-window peak columns,
// token counters differenced into per-second rates over the elapsed time
// since the previous row. The header names the clock explicitly — all
// times are simulated seconds.
func (r *Recorder) TimeseriesCSV() []byte {
	var buf bytes.Buffer
	buf.WriteString("window_start_sec,window_sec,samples,queue_depth,queue_peak,running,running_peak," +
		"kv_blocks_in_use,kv_blocks_peak,kv_blocks_cached,swap_blocks_in_use,swap_blocks_peak," +
		"prefix_hit_rate,tokens_per_sec,goodput_tokens_per_sec\n")
	merged := r.series.Merged()
	w := r.series.WindowSec
	prevEnd := 0.0
	prevTok, prevGood, prevHit, prevMiss := 0, 0, 0, 0
	for _, win := range merged {
		end := win.StartSec + w
		elapsed := end - prevEnd
		rate := func(delta int) float64 {
			if elapsed <= 0 {
				return 0
			}
			return float64(delta) / elapsed
		}
		hitRate := 0.0
		if dh, dm := win.HitTokens-prevHit, win.MissTokens-prevMiss; dh+dm > 0 {
			hitRate = float64(dh) / float64(dh+dm)
		}
		fmt.Fprintf(&buf, "%.6g,%.6g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6g,%.6g,%.6g\n",
			win.StartSec, w, win.Samples, win.Queue, win.QueuePeak, win.Running, win.RunningPeak,
			win.KVInUse, win.KVInUsePeak, win.KVCached, win.Swap, win.SwapPeak,
			hitRate, rate(win.TotalTokens-prevTok), rate(win.GoodTokens-prevGood))
		prevEnd = end
		prevTok, prevGood, prevHit, prevMiss = win.TotalTokens, win.GoodTokens, win.HitTokens, win.MissTokens
	}
	return buf.Bytes()
}
