package autoscale

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

func testBackend(p tee.Platform) serve.Backend {
	return serve.Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: p, Sockets: 1, AMX: true}}
}

func gpuBackend(p tee.Platform) serve.Backend {
	return serve.Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: p}}
}

func testWorkload(t *testing.T) trace.Workload {
	t.Helper()
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		t.Fatal(err)
	}
	return trace.Workload{Model: m, Kind: dtype.BF16}
}

// testServeConfig is a bursty scenario over a chat-like mix, small enough
// for CI.
func testServeConfig(t *testing.T, requests int) serve.Config {
	sc := workload.Scenario{
		Arrivals: workload.Bursty(3),
		Mix:      workload.Mix{{Name: "chat", Weight: 1, InputLen: 128, OutputLen: 24, LengthJitter: 0.2}},
	}
	return serve.Config{
		Workload: testWorkload(t),
		Scenario: &sc,
		Requests: requests,
		Seed:     1,
		Knobs: serve.Knobs{
			MaxBatch: 16,
		},
	}
}

// probed prepares classes as every caller of Run does: each class's
// backend gets its shared step coster and its capacity from ProbeCapacity.
func probed(t *testing.T, scfg serve.Config, classes ...Class) []Class {
	t.Helper()
	out := append([]Class(nil), classes...)
	for i := range out {
		c := &out[i]
		var err error
		if c.Backend.Coster, err = serve.NewStepCoster(c.Backend, scfg); err != nil {
			t.Fatal(err)
		}
		if c.CapacityReqPerSec, err = ProbeCapacity(c.Backend, scfg); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestColdStartSecMechanisms(t *testing.T) {
	w := testWorkload(t)
	bm := ColdStartSec(testBackend(tee.Baremetal()), w)
	tdx := ColdStartSec(testBackend(tee.TDX()), w)
	if tdx <= bm {
		t.Errorf("TDX cold start %.2fs not above baremetal %.2fs", tdx, bm)
	}
	// The protected delta must include at least the attestation RTT plus
	// the TD page-acceptance pass over the weights.
	weights := trace.WeightFootprint(w)
	if minDelta := tee.AttestationRTTSec + weights/tee.TDXAcceptBytesPerSec; tdx-bm < minDelta*0.99 {
		t.Errorf("TDX cold-start delta %.2fs below mechanism floor %.2fs", tdx-bm, minDelta)
	}
	sgxPlat, err := sgxPlatform()
	if err != nil {
		t.Fatal(err)
	}
	sgx := ColdStartSec(testBackend(sgxPlat), w)
	if sgx <= tdx {
		t.Errorf("SGX cold start %.2fs not above TDX %.2fs (EADD+EEXTEND is slower than TD accept)", sgx, tdx)
	}
	gpu := ColdStartSec(gpuBackend(tee.GPU()), w)
	cgpu := ColdStartSec(gpuBackend(tee.CGPU()), w)
	if cgpu <= gpu {
		t.Errorf("cGPU cold start %.2fs not above GPU %.2fs (bounce-buffered weight upload)", cgpu, gpu)
	}
}

func TestProbeCapacityOrdersBackends(t *testing.T) {
	cfg := testServeConfig(t, 16)
	cpu, err := ProbeCapacity(testBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := ProbeCapacity(gpuBackend(tee.CGPU()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 || gpu <= 0 {
		t.Fatalf("non-positive capacities: cpu %g, gpu %g", cpu, gpu)
	}
	if gpu <= cpu {
		t.Errorf("cGPU capacity %.2f req/s not above TDX %.2f", gpu, cpu)
	}
}

func TestRunConservesRequestsAndBills(t *testing.T) {
	cfg := Config{Serve: testServeConfig(t, 96), IntervalSec: 10, TargetUtil: 0.6}
	classes := probed(t, cfg.Serve, Class{
		Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83,
		ColdStartSec: 12, Min: 1, Max: 4,
	})
	rep, err := Run(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := rep.Aggregate
	if got := agg.Completed + agg.Dropped + agg.Unfinished; got != 96 {
		t.Errorf("request conservation: %d completed + %d dropped + %d unfinished = %d, want 96",
			agg.Completed, agg.Dropped, agg.Unfinished, got)
	}
	if rep.ReplicaHours <= 0 || rep.CostUSD <= 0 {
		t.Errorf("no billing recorded: %v hours, $%v", rep.ReplicaHours, rep.CostUSD)
	}
	if len(rep.Windows) == 0 {
		t.Error("no control windows recorded")
	}
	if len(rep.Usage) != 1 || rep.Usage[0].Name != "tdx" {
		t.Fatalf("usage = %+v", rep.Usage)
	}
	if rep.Usage[0].Dispatched != 96 {
		t.Errorf("dispatched %d, want 96", rep.Usage[0].Dispatched)
	}
	// A 3 req/s bursty stream cannot be held by one TDX replica: the
	// scaler must have activated someone (paying the cold start).
	if rep.ColdStarts == 0 {
		t.Error("bursty load never triggered a scale-up")
	}
	if att := rep.SLOAttainment(); att <= 0 || att > 1 {
		t.Errorf("attainment %g outside (0, 1]", att)
	}
	if math.IsNaN(rep.USDPerMTok) {
		t.Error("USDPerMTok is NaN")
	}
	// The billed fleet never exceeds Max and never drops below Min.
	for _, w := range rep.Windows {
		if w.Active[0] < 1 || w.Active[0] > 4 {
			t.Fatalf("window at %.0fs has %d active replicas outside [1, 4]", w.StartSec, w.Active[0])
		}
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	cfg := Config{Serve: testServeConfig(t, 48), IntervalSec: 10}
	classes := probed(t, cfg.Serve, Class{
		Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83,
		ColdStartSec: 12, Min: 1, Max: 3,
	})
	a, err := Run(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ReplicaHours != b.ReplicaHours || a.CostUSD != b.CostUSD ||
		a.SLOAttainment() != b.SLOAttainment() || a.ColdStarts != b.ColdStarts {
		t.Errorf("not deterministic: %+v vs %+v", a, b)
	}
}

func TestColdStartDegradesAttainment(t *testing.T) {
	mk := func(coldStart float64) *Report {
		cfg := Config{Serve: testServeConfig(t, 96), IntervalSec: 10, TargetUtil: 0.8}
		rep, err := Run(probed(t, cfg.Serve, Class{
			Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83,
			ColdStartSec: coldStart, Min: 1, Max: 4,
		}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	warm := mk(0)
	cold := mk(25)
	if warm.ColdStarts != 0 {
		t.Errorf("zero-cold-start run recorded %d cold starts", warm.ColdStarts)
	}
	if cold.SLOAttainment() > warm.SLOAttainment() {
		t.Errorf("cold start improved attainment: %.3f cold vs %.3f warm",
			cold.SLOAttainment(), warm.SLOAttainment())
	}
}

func TestHeterogeneousDispatchPolicies(t *testing.T) {
	scfg := testServeConfig(t, 96)
	classes := probed(t, scfg,
		Class{Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83, Min: 2, Max: 2},
		Class{Name: "cgpu", Backend: gpuBackend(tee.CGPU()), HourlyUSD: 6.20, Min: 1, Max: 1},
	)
	run := func(d Dispatch) *Report {
		cfg := Config{Serve: scfg, Dispatch: d, IntervalSec: 10}
		rep, err := Run(classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	uni := run(Uniform)
	ca := run(CostAware)
	if uni.Usage[1].Dispatched == 0 || ca.Usage[1].Dispatched == 0 {
		t.Fatalf("cGPU class starved: uniform %d, cost-aware %d",
			uni.Usage[1].Dispatched, ca.Usage[1].Dispatched)
	}
	// Cost-aware dispatch weighs load by capacity: the fast cGPU replica
	// must receive a larger traffic share than blind least-outstanding
	// gives it.
	if ca.Usage[1].Dispatched <= uni.Usage[1].Dispatched {
		t.Errorf("cost-aware routed %d to cGPU, uniform %d — capacity weighting had no effect",
			ca.Usage[1].Dispatched, uni.Usage[1].Dispatched)
	}
}

func TestRunValidation(t *testing.T) {
	scfg := testServeConfig(t, 8)
	if _, err := Run(nil, Config{Serve: scfg}); err == nil {
		t.Error("empty class list accepted")
	}
	bad := []Class{{Name: "x", Backend: testBackend(tee.TDX()), HourlyUSD: 0, Max: 1, CapacityReqPerSec: 1}}
	if _, err := Run(bad, Config{Serve: scfg}); err == nil {
		t.Error("zero hourly price accepted")
	}
	bad[0].HourlyUSD = 1
	bad[0].Max = 0
	if _, err := Run(bad, Config{Serve: scfg}); err == nil {
		t.Error("zero Max accepted")
	}
	bad[0].Max = 1
	bad[0].ColdStartSec = -1
	if _, err := Run(bad, Config{Serve: scfg}); err == nil {
		t.Error("negative cold start accepted")
	}
	bad[0].ColdStartSec = 0
	for _, capacity := range []float64{0, math.NaN(), math.Inf(1)} {
		bad[0].CapacityReqPerSec = capacity
		_, err := Run(bad, Config{Serve: scfg})
		if err == nil || !strings.Contains(err.Error(), "class x") || !strings.Contains(err.Error(), "ProbeCapacity") {
			t.Errorf("capacity %g: got %v, want an error naming the class and ProbeCapacity", capacity, err)
		}
	}
	if _, err := ParseDispatch("nope"); err == nil || err.Error() != `autoscale: unknown dispatch "nope" (uniform|cost-aware)` {
		t.Errorf("ParseDispatch(nope) error = %v", err)
	}
	if err := (Config{Dispatch: 2}).Validate(); err == nil || err.Error() != "autoscale: unknown dispatch Dispatch(2)" {
		t.Errorf("Dispatch(2) validation = %v", err)
	}
}

// TestDispatchSpellings pins the dispatch names and aliases the CLI
// accepts; like the serve parsers, ParseDispatch ignores case and
// surrounding space.
func TestDispatchSpellings(t *testing.T) {
	for in, want := range map[string]Dispatch{
		"": Uniform, "uniform": Uniform, "cost-aware": CostAware, "cost": CostAware, "ca": CostAware,
		" Cost-Aware ": CostAware, "UNIFORM": Uniform, "\tCA\n": CostAware,
	} {
		if got, err := ParseDispatch(in); err != nil || got != want {
			t.Errorf("ParseDispatch(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for d, want := range map[Dispatch]string{Uniform: "uniform", CostAware: "cost-aware", -1: "Dispatch(-1)", 2: "Dispatch(2)"} {
		if got := d.String(); got != want {
			t.Errorf("Dispatch %d prints %q, want %q", int(d), got, want)
		}
	}
}

// sgxPlatform builds the default Gramine-SGX platform.
func sgxPlatform() (tee.Platform, error) {
	return tee.SGX(gramine.DefaultManifest("/models/llama2.bin", 192<<30, 64))
}

// TestDemandAlphaDefaultBitIdentical: DemandAlpha 0 (default) and an
// explicit 1 are the pure reactive estimator — the whole report must be
// bit-identical to a run that never heard of smoothing.
func TestDemandAlphaDefaultBitIdentical(t *testing.T) {
	classes := probed(t, testServeConfig(t, 48), Class{
		Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83,
		ColdStartSec: 12, Min: 1, Max: 3,
	})
	base, err := Run(classes, Config{Serve: testServeConfig(t, 48), IntervalSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(classes, Config{Serve: testServeConfig(t, 48), IntervalSec: 10, DemandAlpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, one) {
		t.Fatalf("DemandAlpha=1 changed the report:\ndefault %+v\nalpha=1 %+v", base.Aggregate, one.Aggregate)
	}
}

// TestDemandAlphaSmoothsDemand checks the estimator's recurrence against
// the recorded control windows: each window carries the arrivals and
// backlog the instantaneous estimate is built from, so the smoothed series
// must satisfy d_i = alpha*raw_i + (1-alpha)*d_{i-1} exactly — and differ
// from the raw series on a bursty stream.
func TestDemandAlphaSmoothsDemand(t *testing.T) {
	const alpha, interval = 0.3, 10.0
	scfg := testServeConfig(t, 96)
	classes := probed(t, scfg, Class{
		Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83,
		ColdStartSec: 12, Min: 1, Max: 4,
	})
	rep, err := Run(classes, Config{Serve: scfg, IntervalSec: interval, DemandAlpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) < 2 {
		t.Fatalf("need several control windows, got %d", len(rep.Windows))
	}
	prev := 0.0
	smoothedDiffers := false
	for i, w := range rep.Windows {
		raw := float64(w.Arrivals)/interval + float64(w.Backlog)/interval
		want := raw
		if i > 0 {
			want = alpha*raw + (1-alpha)*prev
		}
		if w.DemandReqPerSec != want {
			t.Fatalf("window %d: demand %g, EWMA recurrence gives %g (raw %g)", i, w.DemandReqPerSec, want, raw)
		}
		if w.DemandReqPerSec != raw {
			smoothedDiffers = true
		}
		prev = w.DemandReqPerSec
	}
	if !smoothedDiffers {
		t.Fatal("smoothed demand never departed from the raw estimate on a bursty stream")
	}
}

func TestDemandAlphaValidation(t *testing.T) {
	classes := []Class{{Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83, Max: 2, CapacityReqPerSec: 1}}
	for _, alpha := range []float64{-0.5, 1.5} {
		if _, err := Run(classes, Config{Serve: testServeConfig(t, 8), DemandAlpha: alpha}); err == nil {
			t.Errorf("alpha %g accepted", alpha)
		}
	}
}

// TestAutoscaleObserver: the serve-layer observer threads through the
// autoscaler's replicas — events carry per-slot replica labels and the
// merged aggregate is reconstructed exactly by the recorded stream.
func TestAutoscaleObserver(t *testing.T) {
	rec := obs.NewRecorder()
	scfg := testServeConfig(t, 96)
	scfg.Observer = rec
	classes := probed(t, scfg, Class{
		Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83,
		ColdStartSec: 1, Min: 2, Max: 4,
	})
	rep, err := Run(classes, Config{Serve: scfg, IntervalSec: 10, TargetUtil: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if bad := obs.ReconcileReport(rec.Events(), rep.Aggregate); len(bad) != 0 {
		t.Fatalf("autoscale event stream does not reconstruct the aggregate:\n%s", strings.Join(bad, "\n"))
	}
	replicas := map[int]bool{}
	for _, ev := range rec.Events() {
		replicas[ev.Replica] = true
	}
	if len(replicas) < 2 {
		t.Fatalf("bursty scale-up should involve several slots, events saw %d", len(replicas))
	}
}

// TestAutoscalePhaseConservation: latency attribution holds across the
// autoscaler's dynamic replica set — every completed request's five phases
// sum to its latency exactly even when slots come and go, and the refolded
// stream reconciles against the merged aggregate.
func TestAutoscalePhaseConservation(t *testing.T) {
	rec := obs.NewRecorder()
	a, err := obs.NewAttribution(0, false)
	if err != nil {
		t.Fatal(err)
	}
	scfg := testServeConfig(t, 96)
	scfg.Observer = obs.Multi(rec, a)
	classes := probed(t, scfg, Class{
		Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83,
		ColdStartSec: 1, Min: 2, Max: 4,
	})
	rep, err := Run(classes, Config{Serve: scfg, IntervalSec: 10, TargetUtil: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	arep := a.Report("autoscaled")
	if len(arep.Violations) != 0 {
		t.Fatalf("autoscaled conservation violations:\n%s", strings.Join(arep.Violations, "\n"))
	}
	if int(arep.Completed) != rep.Aggregate.Completed {
		t.Fatalf("attribution finalized %d requests, aggregate completed %d", arep.Completed, rep.Aggregate.Completed)
	}
	if bad := obs.ReconcilePhases(rec.Events(), rep.Aggregate); len(bad) != 0 {
		t.Fatalf("autoscaled phase reconciliation failed:\n%s", strings.Join(bad, "\n"))
	}
}

// TestRunEpochInvariance: the autoscaler runs through serve's one driver,
// so sharding the arrivals into epochs (Serve.EpochRequests) must leave
// the whole report — aggregate, windows, usage, billing — byte-identical to
// the one-epoch run.
func TestRunEpochInvariance(t *testing.T) {
	classes := probed(t, testServeConfig(t, 64),
		Class{Name: "tdx", Backend: testBackend(tee.TDX()), HourlyUSD: 0.83, ColdStartSec: 12, Min: 1, Max: 3},
		Class{Name: "cgpu", Backend: gpuBackend(tee.CGPU()), HourlyUSD: 6.20, ColdStartSec: 20, Min: 0, Max: 1},
	)
	run := func(epoch int) *Report {
		scfg := testServeConfig(t, 64)
		scfg.EpochRequests = epoch
		rep, err := Run(classes, Config{Serve: scfg, Dispatch: CostAware, IntervalSec: 10})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(0)
	if want.ColdStarts == 0 {
		t.Fatal("run never scaled; the invariance check would be vacuous")
	}
	for _, epoch := range []int{1, 3, 17, 100000} {
		if got := run(epoch); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: report differs from the one-epoch run:\n got %+v\nwant %+v", epoch, got.Aggregate, want.Aggregate)
		}
	}
}
