package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cllm/internal/serve"
	"cllm/internal/tee"
)

// TestPhaseSpellings pins the phase labels the exporters print; the
// per-phase arrays are sized by NumPhases.
func TestPhaseSpellings(t *testing.T) {
	want := []string{PhaseQueue: "queue", PhasePrefill: "prefill", PhaseDecode: "decode",
		PhaseStall: "preempt-stall", PhaseSwap: "swap-transfer", PhaseHandoff: "handoff"}
	if len(phases.Names) != int(NumPhases) || len(want) != int(NumPhases) {
		t.Errorf("%d phases named, %d pinned, NumPhases = %d", len(phases.Names), len(want), NumPhases)
	}
	for p, s := range want {
		if got := Phase(p).String(); got != s {
			t.Errorf("phase %d prints %q, want %q", p, got, s)
		}
	}
	for p, s := range map[Phase]string{-1: "Phase(-1)", NumPhases: "Phase(6)"} {
		if got := p.String(); got != s {
			t.Errorf("phase %d prints %q, want %q", int(p), got, s)
		}
	}
}

func TestSplitRoundExact(t *testing.T) {
	cases := []struct {
		d               int64
		pref, dec, swap float64
	}{
		{1_000_000, 0.2, 0.7, 0.1},
		{1_000_000, 0, 1, 0},
		{1_000_000, 1, 0, 0},
		{1_000_000, 0, 0, 1},
		{1, 0.3, 0.3, 0.4},
		{0, 0.5, 0.5, 0},
		{999_999_999_999, 1e-12, 0.9, 0.1},
		{7, 0.33, 0.33, 0.34},
		{123_456_789, 5e-3, 1.2, 0.04},
		{1_000_000, 0, 0, 0}, // defensive: no modeled work
	}
	for _, c := range cases {
		p, d, s := splitRound(c.d, c.pref, c.dec, c.swap)
		if p < 0 || d < 0 || s < 0 {
			t.Fatalf("splitRound(%d, %g, %g, %g) produced a negative part: %d %d %d",
				c.d, c.pref, c.dec, c.swap, p, d, s)
		}
		if p+d+s != c.d {
			t.Fatalf("splitRound(%d, %g, %g, %g) = %d+%d+%d != %d",
				c.d, c.pref, c.dec, c.swap, p, d, s, c.d)
		}
	}
}

// attribRun runs the pressure scenario with a recorder and an attribution
// engine co-attached (and a clear-hardware coster so tax fields are live).
func attribRun(t *testing.T) (*serve.Report, *Recorder, *Attribution) {
	t.Helper()
	be, cfg := pressureSetup()
	rec := NewRecorderWindow(0.05, 512)
	a, err := NewAttribution(0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = Multi(rec, a)
	if cfg.ClearCoster, err = serve.NewClearStepCoster(be, cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec, a
}

func TestAttributionConservation(t *testing.T) {
	be, cfg := pressureSetup()
	base, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, rec, a := attribRun(t)
	// Attribution and the clear coster must not perturb the run.
	if !reflect.DeepEqual(base, rep) {
		t.Fatal("attaching attribution + clear coster changed the report")
	}
	arep := a.Report(rep.Platform)
	if len(arep.Violations) != 0 {
		t.Fatalf("conservation violations:\n%s", strings.Join(arep.Violations, "\n"))
	}
	if int(arep.Completed) != rep.Completed || int(arep.Dropped) != rep.Dropped ||
		int(arep.Unfinished) != rep.Unfinished {
		t.Fatalf("partition: attribution %d/%d/%d, report %d/%d/%d",
			arep.Completed, arep.Dropped, arep.Unfinished, rep.Completed, rep.Dropped, rep.Unfinished)
	}
	var phaseTot, shareTot float64
	for _, p := range arep.Phases {
		phaseTot += p.TotalSec
		shareTot += p.Share
	}
	if !relClose(phaseTot, arep.LatencyTotalSec) {
		t.Fatalf("phases sum to %g s, latency total is %g s", phaseTot, arep.LatencyTotalSec)
	}
	if math.Abs(shareTot-1) > 1e-9 {
		t.Fatalf("phase shares sum to %g, want 1", shareTot)
	}
	if bad := ReconcilePhases(rec.Events(), rep); len(bad) != 0 {
		t.Fatalf("phase reconciliation failed:\n%s", strings.Join(bad, "\n"))
	}
	// A truncated stream must not reconcile: dropping the tail loses
	// finalizations the report counts.
	events := rec.Events()
	if bad := ReconcilePhases(events[:len(events)/2], rep); len(bad) == 0 {
		t.Fatal("truncated event stream reconciled cleanly")
	}
	// The memory-starved enclave pays EPC paging on every phase: prefill
	// and decode must both carry attributed time, and the swap-preemption
	// pressure must surface as stall and swap-transfer time.
	byName := map[string]PhaseStat{}
	for _, p := range arep.Phases {
		byName[p.Phase] = p
	}
	for _, name := range []string{"prefill", "decode", "preempt-stall", "swap-transfer"} {
		if byName[name].TotalSec <= 0 {
			t.Fatalf("phase %s attributed no time: %+v", name, byName[name])
		}
	}
}

func TestAttributionFleetConservation(t *testing.T) {
	be, cfg := pressureSetup()
	rec := NewRecorderWindow(0.05, 512)
	a, err := NewAttribution(0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = Multi(rec, a)
	fr, err := serve.RunFleet(be, cfg, serve.FleetConfig{Replicas: 2, Policy: serve.RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if bad := ReconcilePhases(rec.Events(), fr.Aggregate); len(bad) != 0 {
		t.Fatalf("fleet phase reconciliation failed:\n%s", strings.Join(bad, "\n"))
	}
	if arep := a.Report("fleet"); len(arep.Violations) != 0 {
		t.Fatalf("fleet conservation violations:\n%s", strings.Join(arep.Violations, "\n"))
	}
}

func TestAttributionSketchedEpochs(t *testing.T) {
	be, cfg := pressureSetup()
	cfg.QuantileMode = serve.QuantileSketch
	cfg.EpochRequests = 4
	rec := NewRecorder()
	a, err := NewAttribution(0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = Multi(rec, a)
	rep, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sketched {
		t.Fatal("expected a sketched report")
	}
	if bad := ReconcilePhases(rec.Events(), rep); len(bad) != 0 {
		t.Fatalf("sketched phase reconciliation failed:\n%s", strings.Join(bad, "\n"))
	}
	if arep := a.Report(rep.Platform); len(arep.Violations) != 0 {
		t.Fatalf("epoch-sharded conservation violations:\n%s", strings.Join(arep.Violations, "\n"))
	}
}

// TestAttributionMergeExact: merging two attributions yields the same
// quantiles as one engine folding both event streams — sketch merges are
// exact integer-bucket additions.
func TestAttributionMergeExact(t *testing.T) {
	rep, rec, _ := attribRun(t)
	if rep.Unfinished != 0 {
		t.Fatalf("scenario left %d unfinished requests; stream replay needs a drained run", rep.Unfinished)
	}
	events := rec.Events()
	mk := func() *Attribution {
		a, err := NewAttribution(0, false)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2, seq := mk(), mk(), mk()
	for _, ev := range events {
		a1.Event(ev)
		seq.Event(ev)
	}
	for _, ev := range events {
		a2.Event(ev)
		seq.Event(ev)
	}
	if err := a1.Merge(a2); err != nil {
		t.Fatal(err)
	}
	got, want := a1.Report("x"), seq.Report("x")
	if got.Completed != want.Completed || got.Completed != 2*int64(rep.Completed) {
		t.Fatalf("merged completed %d, sequential %d, run completed %d", got.Completed, want.Completed, rep.Completed)
	}
	// Quantiles and counts are bit-exact (integer bucket merges); totals
	// are float sums and only reorder-tolerant.
	for i := range got.Phases {
		g, w := got.Phases[i], want.Phases[i]
		if g.Count != w.Count || g.P50Sec != w.P50Sec || g.P95Sec != w.P95Sec || g.P99Sec != w.P99Sec {
			t.Fatalf("merged phase %s differs from sequential fold:\n%+v\n%+v", g.Phase, g, w)
		}
		if !relClose(g.TotalSec, w.TotalSec) {
			t.Fatalf("merged phase %s total %g vs sequential %g", g.Phase, g.TotalSec, w.TotalSec)
		}
	}
	if got.LatencyP50Sec != want.LatencyP50Sec {
		t.Fatalf("merged latency p50 %g != sequential %g", got.LatencyP50Sec, want.LatencyP50Sec)
	}
}

// tdxSetup prices the pressure workload on TDX (protected, no EPC) so the
// clear-hardware delta is strictly positive.
func tdxSetup() (serve.Backend, serve.Config) {
	be, cfg := pressureSetup()
	be.CPU.Platform = tee.TDX()
	return be, cfg
}

func TestAttributionTax(t *testing.T) {
	be, cfg := tdxSetup()
	a, err := NewAttribution(0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = a
	if cfg.ClearCoster, err = serve.NewClearStepCoster(be, cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := serve.Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arep := a.Report(rep.Platform)
	if len(arep.Violations) != 0 {
		t.Fatalf("conservation violations:\n%s", strings.Join(arep.Violations, "\n"))
	}
	if !arep.ClearCosted || len(arep.Tax) != 3 {
		t.Fatalf("expected a clear-costed report with 3 tax rows, got %+v", arep)
	}
	if arep.TaxTotalSec <= 0 {
		t.Fatal("TDX run attributed no TEE tax")
	}
	byName := map[string]PhaseStat{}
	for _, s := range arep.Tax {
		byName[s.Phase] = s
		if s.TotalSec < 0 {
			t.Fatalf("negative tax component %+v", s)
		}
	}
	if byName["decode"].TotalSec <= 0 || byName["prefill"].TotalSec <= 0 {
		t.Fatalf("TDX compute tax missing: %+v", arep.Tax)
	}
	if arep.TaxShareMean <= 0 || arep.TaxShareMean >= 1 {
		t.Fatalf("tax share mean %g outside (0, 1)", arep.TaxShareMean)
	}
	if arep.TaxShareP50 <= 0 || arep.TaxShareP50 >= 1 {
		t.Fatalf("tax share p50 %g outside (0, 1)", arep.TaxShareP50)
	}
	// The tax can never exceed the phase it came from.
	phases := map[string]PhaseStat{}
	for _, p := range arep.Phases {
		phases[p.Phase] = p
	}
	for _, s := range arep.Tax {
		if s.TotalSec > phases[s.Phase].TotalSec*(1+1e-9) {
			t.Fatalf("tax %s %g s exceeds its phase total %g s", s.Phase, s.TotalSec, phases[s.Phase].TotalSec)
		}
	}
}

// TestAttributionTaxZeroOnClearHardware: an unprotected platform is its own
// clear twin, so the counterfactual components coincide and the tax is
// exactly zero — not merely small.
func TestAttributionTaxZeroOnClearHardware(t *testing.T) {
	rep, _, a := attribRun(t) // pressure scenario runs on an unprotected CPU
	_ = rep
	arep := a.Report("clear")
	if !arep.ClearCosted {
		t.Fatal("expected a clear-costed report")
	}
	if arep.TaxTotalSec != 0 || arep.TaxShareMean != 0 || arep.TaxShareP50 != 0 {
		t.Fatalf("unprotected platform attributed nonzero tax: total %g share %g p50 %g",
			arep.TaxTotalSec, arep.TaxShareMean, arep.TaxShareP50)
	}
	for _, s := range arep.Tax {
		if s.TotalSec != 0 || s.P99Sec != 0 {
			t.Fatalf("unprotected platform has nonzero tax row %+v", s)
		}
	}
}

func TestPhaseCSVShape(t *testing.T) {
	rep, _, a := attribRun(t)
	arep := a.Report(rep.Platform)
	rows, err := csv.NewReader(bytes.NewReader(arep.PhaseCSV())).ReadAll()
	if err != nil {
		t.Fatalf("phase breakdown is not valid CSV: %v", err)
	}
	if rows[0][0] != "platform" || rows[0][2] != "phase" || len(rows[0]) != 10 {
		t.Fatalf("unexpected header %v", rows[0])
	}
	// 6 phase rows, then 3 tax rows on a clear-costed run.
	if len(rows) != 1+int(NumPhases)+3 {
		t.Fatalf("expected %d rows, got %d", 1+int(NumPhases)+3, len(rows))
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("row %d has %d fields, header has %d", i+1, len(row), len(rows[0]))
		}
	}
	if rows[1][1] != "phase" || rows[1][2] != "queue" || rows[7][1] != "tee-tax" {
		t.Fatalf("unexpected row layout: %v / %v", rows[1], rows[7])
	}
}

func TestAttributionPrometheusText(t *testing.T) {
	rep, _, a := attribRun(t)
	text := string(a.PrometheusText(rep.Platform))
	for _, want := range []string{
		"# TYPE cllm_phase_latency_seconds histogram",
		`cllm_phase_latency_seconds_bucket{platform="tiny-enclave",phase="queue",le="+Inf"}`,
		"# TYPE cllm_phase_tee_tax_seconds histogram",
		"cllm_tee_tax_share{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition is missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "cllm_") || len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	// Bucket counts are cumulative: nondecreasing in le, +Inf equals _count.
	for p := Phase(0); p < NumPhases; p++ {
		prefix := `cllm_phase_latency_seconds_bucket{platform="tiny-enclave",phase="` + p.String() + `",le=`
		prev := int64(-1)
		var last int64
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Fatalf("bucket counts not cumulative for %v: %q", p, line)
			}
			prev, last = v, v
		}
		if last != a.phase[p].Count() {
			t.Fatalf("+Inf bucket %d != count %d for %v", last, a.phase[p].Count(), p)
		}
	}
	// Determinism: an identical run serializes byte-identically.
	rep2, _, a2 := attribRun(t)
	if !bytes.Equal(a.PrometheusText(rep.Platform), a2.PrometheusText(rep2.Platform)) {
		t.Fatal("identical runs produced different phase expositions")
	}
}

func TestPerfettoCounterTracks(t *testing.T) {
	_, rec, a := attribRun(t)
	raw := rec.PerfettoTraceWithCounters(a)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace with counters is not valid JSON: %v", err)
	}
	counters := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "C" {
			counters[ev["name"].(string)]++
			args, ok := ev["args"].(map[string]any)
			if !ok || len(args) == 0 {
				t.Fatalf("counter event without args: %v", ev)
			}
		}
	}
	if counters["phase_seconds"] == 0 {
		t.Fatal("trace has no phase_seconds counter track")
	}
	if counters["tee_tax_seconds"] == 0 {
		t.Fatal("clear-costed trace has no tee_tax_seconds counter track")
	}
	// Without an attribution the trace is unchanged from PerfettoTrace.
	if !bytes.Equal(rec.PerfettoTrace(), rec.perfettoTrace(nil)) {
		t.Fatal("PerfettoTrace changed under refactor")
	}
}

func TestAttributionBoundedCounters(t *testing.T) {
	be, cfg := pressureSetup()
	a, err := NewAttributionWindow(0, false, 1e-4, 8) // tiny windows force coalescing
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = a
	if _, err := serve.Run(be, cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(a.counters.wins); n > 8 {
		t.Fatalf("counter series holds %d windows, bound is 8", n)
	}
	if a.counters.windowSec <= 1e-4 {
		t.Fatalf("counter window width never doubled: %g", a.counters.windowSec)
	}
	// All in-flight state drained back to the freelist.
	if len(a.reqs) != 0 {
		t.Fatalf("%d requests still in flight after a drained run", len(a.reqs))
	}
}

func TestMultiObserver(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no observers should be nil")
	}
	rec := NewRecorder()
	if Multi(nil, rec) != serve.Observer(rec) {
		t.Fatal("Multi of one observer should return it unwrapped")
	}
	m := Multi(rec, NewRecorder())
	ev := serve.Event{Kind: serve.EvArrive, ReqID: 1}
	m.Event(ev)
	m.Sample(serve.Sample{TimeSec: 0.5})
	if len(rec.Events()) != 1 {
		t.Fatal("Multi did not forward the event")
	}
}

func TestDiff(t *testing.T) {
	rep, _, a := attribRun(t)
	base := a.Report(rep.Platform)
	if deltas := Diff(base, base, 0); len(deltas) != 0 {
		t.Fatalf("identical reports diffed: %+v", deltas)
	}
	clone := func() *AttribReport {
		raw, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var c AttribReport
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		return &c
	}
	// A 50% decode-p50 regression far exceeds the sketch noise floor.
	cur := clone()
	for i := range cur.Phases {
		if cur.Phases[i].Phase == "decode" {
			cur.Phases[i].P50Sec *= 1.5
		}
	}
	deltas := Diff(base, cur, 0.01)
	found := false
	for _, d := range deltas {
		if d.Metric == "phase_p50_sec" && d.Phase == "decode" {
			found = true
			if !d.Regression || !d.Relative || math.Abs(d.Delta-0.5) > 1e-9 {
				t.Fatalf("decode regression misreported: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("decode p50 regression not flagged: %+v", deltas)
	}
	// Movement inside the combined sketch error is noise and suppressed.
	cur = clone()
	for i := range cur.Phases {
		cur.Phases[i].P50Sec *= 1 + 0.9*(base.Alpha+cur.Alpha)
	}
	for _, d := range Diff(base, cur, 0) {
		if d.Metric == "phase_p50_sec" {
			t.Fatalf("within-noise movement flagged: %+v", d)
		}
	}
	// An improvement is reported but not a regression.
	cur = clone()
	cur.LatencyP50Sec *= 0.5
	for _, d := range Diff(base, cur, 0) {
		if d.Metric == "latency_p50_sec" && d.Regression {
			t.Fatalf("improvement reported as regression: %+v", d)
		}
	}
}

// TestMultiObserverTypedNil: optional observer wiring hands Multi typed
// nil pointers; they must be dropped like untyped nils.
func TestMultiObserverTypedNil(t *testing.T) {
	var rec *Recorder
	var a *Attribution
	if Multi(rec, a) != nil {
		t.Fatal("Multi of typed nils should be nil")
	}
	live := NewRecorder()
	if Multi(rec, live) != serve.Observer(live) {
		t.Fatal("Multi should drop the typed nil and unwrap the survivor")
	}
}
