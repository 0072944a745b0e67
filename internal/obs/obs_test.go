package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/mem"
	"cllm/internal/model"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func tinyModel() model.Config {
	return model.Config{
		Name: "tiny", HiddenDim: 256, Layers: 4, Heads: 8, KVHeads: 8,
		FFDim: 512, VocabSize: 1024, ContextLen: 2048, NormEps: 1e-5, RopeTheta: 10000,
	}
}

// pressureSetup builds a memory-starved enclave backend and a config that
// exercises every event kind: chunked prefill, prefix sharing, swap-to-host
// preemption, and one request that can never fit (a drop).
func pressureSetup() (serve.Backend, serve.Config) {
	m := tinyModel()
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
	tr = append(tr, serve.Request{ID: 16, ArrivalSec: 0.033, InputLen: 1024, OutputLen: 4}) // can never fit
	cfg := serve.Config{
		Workload: wl, Trace: tr, Seed: 7,
		Knobs: serve.Knobs{
			ChunkTokens:   32,
			PrefixSharing: true,
			PreemptPolicy: serve.PreemptSwap,
		},
	}
	return be, cfg
}

func TestRecorderConservationAndCounts(t *testing.T) {
	be, cfg := pressureSetup()
	rec := NewRecorder()
	cfg.Observer = rec
	rep, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The scenario must actually exercise the full event vocabulary.
	for _, k := range []serve.EventKind{
		serve.EvArrive, serve.EvAdmit, serve.EvPrefillChunk, serve.EvFirstToken,
		serve.EvDecodeRound, serve.EvPreempt, serve.EvSwapOut, serve.EvSwapIn,
		serve.EvDrop, serve.EvFinish,
	} {
		if rec.CountKind(k) == 0 {
			t.Errorf("scenario emitted no %v events", k)
		}
	}
	if bad := ReconcileReport(rec.Events(), rep); len(bad) != 0 {
		t.Fatalf("event stream does not reconstruct the report:\n%s", strings.Join(bad, "\n"))
	}
	if got := rec.CountKind(serve.EvFinish); got != rep.Completed {
		t.Fatalf("finish events %d != completed %d", got, rep.Completed)
	}
	if got := rec.CountKind(serve.EvArrive); got != rep.Completed+rep.Dropped+rep.Unfinished {
		t.Fatalf("arrive events %d != offered %d", got, rep.Completed+rep.Dropped+rep.Unfinished)
	}
	// Swap events carry payloads and priced transfer times.
	for _, ev := range rec.Events() {
		if ev.Kind == serve.EvSwapOut && (ev.Bytes <= 0 || ev.XferSec <= 0) {
			t.Fatalf("swap-out without priced payload: %+v", ev)
		}
	}
}

func TestObserverDoesNotPerturbResults(t *testing.T) {
	be, cfg := pressureSetup()
	base, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = NewRecorder()
	observed, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, observed) {
		t.Fatalf("attaching an observer changed the report:\nbase     %+v\nobserved %+v", base, observed)
	}
}

func TestFleetConservationAndByteIdenticalExports(t *testing.T) {
	be, cfg := pressureSetup()
	run := func() (*serve.FleetReport, *Recorder) {
		c := cfg
		rec := NewRecorderWindow(0.05, 512)
		c.Observer = rec
		fr, err := serve.RunFleet(be, c, serve.FleetConfig{Replicas: 2, Policy: serve.RoundRobin})
		if err != nil {
			t.Fatal(err)
		}
		return fr, rec
	}
	fr1, rec1 := run()
	fr2, rec2 := run()
	if bad := ReconcileReport(rec1.Events(), fr1.Aggregate); len(bad) != 0 {
		t.Fatalf("fleet event stream does not reconstruct the aggregate:\n%s", strings.Join(bad, "\n"))
	}
	if !reflect.DeepEqual(rec1.Events(), rec2.Events()) {
		t.Fatal("identical fleet runs recorded different event streams")
	}
	if !reflect.DeepEqual(fr1.Aggregate, fr2.Aggregate) {
		t.Fatal("identical fleet runs produced different aggregates")
	}
	for _, pair := range [][2][]byte{
		{rec1.PerfettoTrace(), rec2.PerfettoTrace()},
		{PrometheusText(fr1.Aggregate), PrometheusText(fr2.Aggregate)},
		{rec1.TimeseriesCSV(), rec2.TimeseriesCSV()},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Fatal("identical runs produced different export bytes")
		}
	}
	// Both replicas sampled, and the events carry both replica labels.
	if got := rec1.Series().Replicas(); len(got) != 2 {
		t.Fatalf("expected 2 replica series, got %v", got)
	}
}

// TestPerReplicaReconciliation: each replica's own report reconciles
// against the events that replica emitted, under crashes, shedding,
// retries and swap preemption, in both quantile modes. An aggregate-only
// check would miss a counter credited to the wrong replica.
func TestPerReplicaReconciliation(t *testing.T) {
	for _, mode := range []serve.QuantileMode{serve.QuantileExact, serve.QuantileSketch} {
		be, cfg := pressureSetup()
		cfg.Trace = nil
		cfg.Requests, cfg.Rate = 120, 400
		cfg.QuantileMode = mode
		cfg.TTFTSLOSec = 0.02
		cfg.Faults = serve.FaultConfig{
			MTBFSec: 0.3, Policy: serve.FailLost, Admission: serve.AdmitShed,
			RetryMax: 2, RetryBackoffSec: 0.01,
		}
		rec := NewRecorder()
		cfg.Observer = rec
		fr, err := serve.RunFleet(be, cfg, serve.FleetConfig{Replicas: 3, Policy: serve.LeastLoaded})
		if err != nil {
			t.Fatal(err)
		}
		agg := fr.Aggregate
		if agg.Crashes == 0 || agg.Sheds == 0 || agg.Retries == 0 || agg.SwapOuts == 0 || agg.Dropped == 0 {
			t.Fatalf("%v: scenario exercises too little: crashes %d sheds %d retries %d swap-outs %d drops %d",
				mode, agg.Crashes, agg.Sheds, agg.Retries, agg.SwapOuts, agg.Dropped)
		}
		for i, rep := range fr.PerReplica {
			var evs []serve.Event
			for _, ev := range rec.Events() {
				if ev.Replica == i {
					evs = append(evs, ev)
				}
			}
			if bad := ReconcileReport(evs, rep); len(bad) != 0 {
				t.Errorf("%v: replica %d's events do not reconstruct its report:\n%s", mode, i, strings.Join(bad, "\n"))
			}
		}
	}
}

func TestPerfettoTraceWellFormed(t *testing.T) {
	be, cfg := pressureSetup()
	rec := NewRecorder()
	cfg.Observer = rec
	if _, err := serve.Run(be, cfg); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.PerfettoTrace(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	spans, instants := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if d, ok := ev["dur"].(float64); !ok || d < 0 {
				t.Fatalf("span with bad duration: %v", ev)
			}
		case "i":
			instants++
		case "M":
		default:
			t.Fatalf("unexpected phase in %v", ev)
		}
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("expected spans and instants, got %d/%d", spans, instants)
	}
}

func TestPrometheusTextShape(t *testing.T) {
	be, cfg := pressureSetup()
	rep, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	text := string(PrometheusText(rep))
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "cllm_") || !strings.Contains(line, `platform="tiny-enclave"`) ||
			len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"cllm_requests_completed_total", "cllm_swap_outs_total",
		"cllm_ttft_seconds{", "cllm_goodput_tokens_per_sec",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition is missing %s", want)
		}
	}
}

func TestTimeSeriesBoundedMemory(t *testing.T) {
	be, cfg := pressureSetup()
	rec := NewRecorderWindow(1e-4, 8) // tiny windows force repeated coalescing
	cfg.Observer = rec
	rep, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := rec.Series()
	for _, id := range ts.Replicas() {
		if n := len(ts.Replica(id)); n > 8 {
			t.Fatalf("replica %d holds %d windows, bound is 8", id, n)
		}
	}
	if ts.WindowSec <= 1e-4 {
		t.Fatalf("window width never doubled: %g", ts.WindowSec)
	}
	merged := ts.Merged()
	if len(merged) == 0 {
		t.Fatal("no merged windows")
	}
	// The last window's cumulative counter covers the whole run.
	if got := merged[len(merged)-1].TotalTokens; got != rep.TotalTokens {
		t.Fatalf("final cumulative tokens %d != report total %d", got, rep.TotalTokens)
	}
}

func TestMergedSeriesSumsAndCarries(t *testing.T) {
	rec := NewRecorderWindow(1, 100)
	add := func(t float64, replica, queue, tok int) {
		rec.Sample(serve.Sample{TimeSec: t, Replica: replica, QueueDepth: queue, TotalTokens: tok})
	}
	add(0.5, 0, 3, 10)
	add(0.5, 1, 2, 5)
	add(1.5, 0, 1, 20) // replica 1 idle in window [1,2): its gauges carry
	m := rec.Series().Merged()
	if len(m) != 2 {
		t.Fatalf("expected 2 merged windows, got %d", len(m))
	}
	if m[0].Queue != 5 || m[0].TotalTokens != 15 {
		t.Fatalf("window 0 queue/tokens = %d/%d, want 5/15", m[0].Queue, m[0].TotalTokens)
	}
	if m[1].Queue != 1+2 || m[1].TotalTokens != 20+5 {
		t.Fatalf("window 1 should carry replica 1 forward: queue/tokens = %d/%d, want 3/25",
			m[1].Queue, m[1].TotalTokens)
	}
}

func TestTimeseriesCSVShape(t *testing.T) {
	be, cfg := pressureSetup()
	rec := NewRecorderWindow(0.05, 512)
	cfg.Observer = rec
	if _, err := serve.Run(be, cfg); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(rec.TimeseriesCSV())).ReadAll()
	if err != nil {
		t.Fatalf("time series is not valid CSV: %v", err)
	}
	if len(rows) < 3 {
		t.Fatalf("expected several windows, got %d rows", len(rows))
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			t.Fatalf("row %d has %d fields, header has %d", i, len(row), len(rows[0]))
		}
	}
	if rows[0][0] != "window_start_sec" {
		t.Fatalf("unexpected header %v", rows[0])
	}
}

// TestReconcileSketchedReport: the event stream reconciles against a
// bounded-memory (sketched) report too — counters and goodput exactly,
// quantiles bit-for-bit against sketches rebuilt from the events — and a
// corrupted sketched report is caught. The pressure scenario crosses
// several epoch seams, so the reconciliation also witnesses that epoch
// handoffs lose no events.
// promValue returns the value of the exposition sample whose line starts
// with name followed by its label set.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+"{") {
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no %s sample:\n%s", name, text)
	return 0
}

// TestPrometheusSummaryCounts: each summary's _count is the number of
// samples behind its quantiles — every completion for TTFT and latency,
// multi-token completions only for TPOT — in both quantile modes, and
// _sum is Mean × _count.
func TestPrometheusSummaryCounts(t *testing.T) {
	be, cfg := pressureSetup()
	cfg.Trace[1].OutputLen = 1 // a single-token request: no TPOT sample
	exact, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.QuantileMode = serve.QuantileSketch
	sketched, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, m := range exact.Requests {
		if m.OutputTokens > 1 {
			multi++
		}
	}
	if multi == 0 || multi == exact.Completed {
		t.Fatalf("%d of %d completions are multi-token; the test needs both kinds", multi, exact.Completed)
	}
	for _, tc := range []struct {
		name string
		rep  *serve.Report
	}{{"exact", exact}, {"sketched", sketched}} {
		t.Run(tc.name, func(t *testing.T) {
			rep := tc.rep
			if rep.Completed != exact.Completed {
				t.Fatalf("completed %d, want %d", rep.Completed, exact.Completed)
			}
			text := string(PrometheusText(rep))
			if got := promValue(t, text, "cllm_requests_completed_total"); got != float64(rep.Completed) {
				t.Fatalf("completed counter %g, want %d", got, rep.Completed)
			}
			for _, c := range []struct {
				name string
				q    serve.Quantiles
				n    int
			}{
				{"cllm_ttft_seconds", rep.TTFT, rep.Completed},
				{"cllm_tpot_seconds", rep.TPOT, multi},
				{"cllm_request_latency_seconds", rep.Latency, rep.Completed},
			} {
				if got := promValue(t, text, c.name+"_count"); got != float64(c.n) {
					t.Errorf("%s_count = %g, want %d", c.name, got, c.n)
				}
				want, _ := strconv.ParseFloat(fmt.Sprintf("%g", c.q.Mean*float64(c.n)), 64)
				if got := promValue(t, text, c.name+"_sum"); got != want || got == 0 {
					t.Errorf("%s_sum = %g, want %g (nonzero)", c.name, got, want)
				}
			}
		})
	}
}

func TestReconcileSketchedReport(t *testing.T) {
	be, cfg := pressureSetup()
	cfg.QuantileMode = serve.QuantileSketch
	cfg.EpochRequests = 4
	rec := NewRecorder()
	cfg.Observer = rec
	rep, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sketched || rep.Requests != nil {
		t.Fatalf("expected a sketched report without a request ledger, got Sketched=%v len(Requests)=%d",
			rep.Sketched, len(rep.Requests))
	}
	if bad := ReconcileReport(rec.Events(), rep); len(bad) != 0 {
		t.Fatalf("event stream does not reconstruct the sketched report:\n%s", strings.Join(bad, "\n"))
	}
	broken := *rep
	broken.GoodRequests++
	if bad := ReconcileReport(rec.Events(), &broken); len(bad) == 0 {
		t.Fatal("corrupted goodput counter reconciled cleanly")
	}
	broken = *rep
	broken.TTFT.P99 *= 2
	if bad := ReconcileReport(rec.Events(), &broken); len(bad) == 0 {
		t.Fatal("corrupted sketched quantile reconciled cleanly")
	}
}

// TestWindowCoalescingEdges pins the coalescing corner cases: a
// sub-minimum window bound is clamped to 2, a lone sample far past the
// horizon lands in one aligned window without coalescing, and a
// zero-duration (sample-free) run renders an empty series.
func TestWindowCoalescingEdges(t *testing.T) {
	// maxWindows=1 clamps to 2: repeated samples stay bounded and the
	// width doubles instead of thrashing a single window.
	rec := NewRecorderWindow(1, 1)
	for i := 0; i < 16; i++ {
		rec.Sample(serve.Sample{TimeSec: float64(i), TotalTokens: i})
	}
	ts := rec.Series()
	if n := len(ts.Replica(0)); n > 2 {
		t.Fatalf("clamped bound should hold ≤2 windows, got %d", n)
	}
	if ts.WindowSec <= 1 {
		t.Fatalf("window width never doubled under the clamped bound: %g", ts.WindowSec)
	}
	if got := ts.Replica(0)[len(ts.Replica(0))-1].TotalTokens; got != 15 {
		t.Fatalf("coalesced series lost the cumulative counter: %d", got)
	}

	// A single sample far past the horizon: one window, floor-aligned,
	// no coalescing.
	rec = NewRecorderWindow(0.5, 4)
	rec.Sample(serve.Sample{TimeSec: 1e6 + 0.3, QueueDepth: 7})
	ts = rec.Series()
	ws := ts.Replica(0)
	if len(ws) != 1 || ts.WindowSec != 0.5 {
		t.Fatalf("lone sample produced %d windows at width %g", len(ws), ts.WindowSec)
	}
	if want := math.Floor((1e6+0.3)/0.5) * 0.5; ws[0].StartSec != want || ws[0].Queue != 7 {
		t.Fatalf("lone window misaligned: start %g (want %g), queue %d", ws[0].StartSec, want, ws[0].Queue)
	}

	// Zero-duration run: no samples at all — empty merged series, empty
	// replica list, header-only CSV.
	rec = NewRecorderWindow(1, 8)
	if m := rec.Series().Merged(); len(m) != 0 {
		t.Fatalf("sample-free run produced %d merged windows", len(m))
	}
	if ids := rec.Series().Replicas(); len(ids) != 0 {
		t.Fatalf("sample-free run lists replicas %v", ids)
	}
	csv := string(rec.TimeseriesCSV())
	if lines := strings.Split(strings.TrimSpace(csv), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "window_start_sec") {
		t.Fatalf("sample-free CSV should be header-only:\n%s", csv)
	}
}

// TestRecorderRecycle: recycled buffers return to the pool without
// leaking prior state into the next recorder.
func TestRecorderRecycle(t *testing.T) {
	rec := NewRecorder()
	recordAll(rec, synthStream(0, 3*chunkRecords+9))
	recordAll(rec, edgeEvents())
	rec.Sample(serve.Sample{TimeSec: 0.5, QueueDepth: 3})
	rec.Recycle()
	next := NewRecorder()
	if len(next.Events()) != 0 || next.Len() != 0 {
		t.Fatalf("fresh recorder sees %d stale events (Len %d)", len(next.Events()), next.Len())
	}
	checkLog(t, next, nil)
	// Reused chunks, pages and escapes hold only the new run's events,
	// across a chunk boundary and in the partly filled last chunk alike.
	want := synthStream(50_000, chunkRecords+3)
	recordAll(next, want)
	checkLog(t, next, want)
	next.Sample(serve.Sample{TimeSec: 0.25, QueueDepth: 1})
	ws := next.Series().Replica(0)
	if len(ws) != 1 || ws[0].Samples != 1 || ws[0].Queue != 1 {
		t.Fatalf("pooled window slice leaked state: %+v", ws)
	}
}

// TestPrometheusLabelEscaping: exotic platform names (quotes,
// backslashes, newlines) must be escaped in label values — both in the
// report snapshot and the attribution exposition.
func TestPrometheusLabelEscaping(t *testing.T) {
	rep := &serve.Report{Platform: "we\"ird\\plat\nform"}
	text := string(PrometheusText(rep))
	want := `platform="we\"ird\\plat\nform"`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition does not escape the platform label; want %s in:\n%s", want, text)
	}
	// The raw newline must never survive into a sample line: every
	// non-comment line still carries the full, escaped label.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, want) {
			t.Fatalf("sample line lost the escaped label: %q", line)
		}
	}

	a, err := NewAttribution(0, true)
	if err != nil {
		t.Fatal(err)
	}
	atext := string(a.PrometheusText("a\"b\\c"))
	if !strings.Contains(atext, `platform="a\"b\\c"`) {
		t.Fatalf("attribution exposition does not escape the platform label:\n%s", atext)
	}
}
