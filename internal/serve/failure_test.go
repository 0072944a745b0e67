package serve

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/perf"
	"cllm/internal/sim"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

func TestFailureConfigParsers(t *testing.T) {
	plan, err := ParseFailPlan(" 0@30, 1@45.5 ,30 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []FailPoint{{Replica: 0, TimeSec: 30}, {Replica: 1, TimeSec: 45.5}, {Replica: 0, TimeSec: 30}}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("ParseFailPlan = %+v, want %+v", plan, want)
	}
	if plan, err := ParseFailPlan(""); err != nil || plan != nil {
		t.Fatalf("empty plan = %+v, %v", plan, err)
	}
	for _, bad := range []string{"a@30", "0@-5", "-1@30", "0@", "@30", "0@nan", "0@+inf"} {
		if _, err := ParseFailPlan(bad); err == nil {
			t.Errorf("ParseFailPlan(%q) accepted", bad)
		}
	}

	for s, want := range map[string]FailurePolicy{"": FailRequeue, "requeue": FailRequeue, "LOST": FailLost} {
		got, err := ParseFailurePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFailurePolicy("explode"); err == nil {
		t.Error("ParseFailurePolicy accepted garbage")
	}

	for s, want := range map[string]AdmissionPolicy{"": AdmitFIFO, "fifo": AdmitFIFO, "deadline": AdmitDeadline, "edf": AdmitDeadline, "Shed": AdmitShed} {
		got, err := ParseAdmissionPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseAdmissionPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAdmissionPolicy("lottery"); err == nil {
		t.Error("ParseAdmissionPolicy accepted garbage")
	}

	// Round-trip the String spellings the CLI and exporters rely on.
	for _, p := range []FailurePolicy{FailRequeue, FailLost} {
		if got, err := ParseFailurePolicy(p.String()); err != nil || got != p {
			t.Errorf("failure policy %v does not round trip", p)
		}
	}
	for _, p := range []AdmissionPolicy{AdmitFIFO, AdmitDeadline, AdmitShed} {
		if got, err := ParseAdmissionPolicy(p.String()); err != nil || got != p {
			t.Errorf("admission policy %v does not round trip", p)
		}
	}
}

// TestFailureDefaultConfigByteIdentical pins the default-config (no
// failures, FIFO admission, no retries) scheduler output to golden values
// captured before the failure/overload machinery landed. Any drift here
// means the zero-value path is no longer byte-identical to prior releases.
func TestFailureDefaultConfigByteIdentical(t *testing.T) {
	m := mustLookup(t, "llama2-7b")

	cfgP := Config{Workload: trace.Workload{Model: m, Kind: dtype.BF16, InputLen: 128, OutputLen: 32}, Rate: 8, Requests: 48, Seed: 7}
	repP, order, err := runAudited(cpuBackend(tee.TDX()), cfgP)
	if err != nil {
		t.Fatal(err)
	}
	gotP := fmt.Sprintf("completed=%d dropped=%d unfinished=%d preempt=%d makespan=%.9f tokens=%d tput=%.9f goodput=%.9f ttftP99=%.9f latP50=%.9f admits=%d",
		repP.Completed, repP.Dropped, repP.Unfinished, repP.Preemptions, repP.MakespanSec, repP.TotalTokens,
		repP.TokensPerSec, repP.GoodputTokensPerSec, repP.TTFT.P99, repP.Latency.P50, len(order))
	wantP := "completed=48 dropped=0 unfinished=0 preempt=0 makespan=13.742513540 tokens=1521 tput=110.678442890 goodput=110.678442890 ttftP99=4.525999531 latP50=7.671819884 admits=48"
	if gotP != wantP {
		t.Errorf("poisson golden drifted:\ngot  %s\nwant %s", gotP, wantP)
	}

	sc, err := workload.ParseScenario("bursty+chat", 12)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.Workload{Model: m, Kind: dtype.BF16}
	gb := Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU()}}
	gb.GPU.GPU.HBMBytes = int64(trace.WeightFootprint(w)) + 2048*m.KVCacheBytesPerToken(2)
	cfgS := Config{Workload: w, Scenario: &sc, Requests: 64, Seed: 11, Knobs: Knobs{MaxBatch: 8}}
	repS, err := Run(gb, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	gotS := fmt.Sprintf("completed=%d dropped=%d unfinished=%d preempt=%d makespan=%.9f tokens=%d tput=%.9f ttftP99=%.9f latP99=%.9f",
		repS.Completed, repS.Dropped, repS.Unfinished, repS.Preemptions, repS.MakespanSec, repS.TotalTokens,
		repS.TokensPerSec, repS.TTFT.P99, repS.Latency.P99)
	wantS := "completed=64 dropped=0 unfinished=0 preempt=27 makespan=35.558934524 tokens=9614 tput=270.368055981 ttftP99=17.247947563 latP99=19.501478409"
	if gotS != wantS {
		t.Errorf("scenario golden drifted:\ngot  %s\nwant %s", gotS, wantS)
	}

	// The resilience knobs at their zero values must not perturb the
	// report.
	cfgZ := cfgP
	cfgZ.Faults = FaultConfig{Policy: FailRequeue, Admission: AdmitFIFO}
	repZ, err := Run(cpuBackend(tee.TDX()), cfgZ)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repP, repZ) {
		t.Error("explicit zero-valued failure knobs changed the report")
	}
}

// TestFailureCrashRequeueConservesBlocks drives the scheduler directly so
// the KV pool's conservation invariants can be probed while the crashes
// are live, not only at the end of the run.
func TestFailureCrashRequeueConservesBlocks(t *testing.T) {
	cfg := tinyConfig(30, 24)
	cfg.MaxBatch = 4
	be := cpuBackend(tee.TDX())
	// Each crash costs the platform's cold start; the second lands just
	// after the first recovery, while the requeued backlog is running.
	recovery := ColdStartSec(be, cfg.Workload)
	first, second := 0.2, 0.2+recovery+0.05
	cfg.Faults.Plan = []FailPoint{{TimeSec: first}, {TimeSec: second}}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	// Probe conservation right after each crash (replica down, batch
	// evicted, caches flushed), mid-recovery, and after the last recovery.
	probe := &probeDispatcher{be: be, start: func(p *Pool) {
		for _, at := range []float64{first + 0.01, first + recovery/2, second + 0.01, second + recovery/2, second + recovery + 1} {
			p.eng.ScheduleAt(sim.Time(at), func(*sim.Engine) {
				if err := p.reps[0].kv.CheckConservation(); err != nil {
					t.Errorf("conservation broken at t=%.2f: %v", at, err)
				}
			})
		}
	}}
	p, err := Drive(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	s := p.reps[0]
	rep := s.report()
	if err := s.kv.CheckConservation(); err != nil {
		t.Fatalf("conservation broken at end: %v", err)
	}
	if rep.Crashes == 0 {
		t.Fatal("fail plan injected no crashes")
	}
	if got, want := rep.DowntimeSec, float64(rep.Crashes)*recovery; got != want {
		t.Fatalf("downtime %.6f, want crashes(%d) x recovery = %.6f", got, rep.Crashes, want)
	}
	// FailRequeue loses no requests: everything completes after recovery.
	if rep.Completed != 24 || rep.Dropped != 0 || rep.Unfinished != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 24/0/0", rep.Completed, rep.Dropped, rep.Unfinished)
	}
	if rep.KVBlocksInUseAtEnd != 0 || rep.SwapBlocksAtEnd != 0 {
		t.Fatalf("leak: %d KV blocks, %d swap blocks at end", rep.KVBlocksInUseAtEnd, rep.SwapBlocksAtEnd)
	}
	if rep.Preemptions == 0 {
		t.Fatal("crashes evicted nothing — the plan missed every running batch")
	}
}

// TestFailureRecoveryBillsTEEColdStart: the downtime per crash is the
// platform's full confidential cold start.
func TestFailureRecoveryBillsTEEColdStart(t *testing.T) {
	cfg := tinyConfig(20, 8)
	cfg.Faults.Plan = []FailPoint{{TimeSec: 0.1}}
	be := cpuBackend(tee.TDX())
	rep, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Crashes)
	}
	if want := ColdStartSec(be, cfg.Workload); rep.DowntimeSec != want {
		t.Fatalf("downtime %.6f, want cold start %.6f", rep.DowntimeSec, want)
	}
	// A crash on another replica's plan entry must not fire here.
	cfg.Faults.Plan = []FailPoint{{Replica: 3, TimeSec: 0.1}}
	rep, err = Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 0 || rep.DowntimeSec != 0 {
		t.Fatalf("foreign replica's crash fired: %d crashes, %.3fs downtime", rep.Crashes, rep.DowntimeSec)
	}
}

// TestFailureScheduleDeterministic: Poisson failure timing rides a private
// seeded stream, so equal seeds reproduce the run exactly — monolithic or
// epoch-sharded — and different seeds move the crash schedule.
func TestFailureScheduleDeterministic(t *testing.T) {
	mk := func(seed int64, epoch int) Config {
		cfg := tinyConfig(25, 30)
		cfg.Seed = seed
		cfg.Faults.MTBFSec = 2
		cfg.Faults.RetryMax = 1
		cfg.Faults.Policy = FailLost
		cfg.EpochRequests = epoch
		return cfg
	}
	be := cpuBackend(tee.TDX())
	a, err := Run(be, mk(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(be, mk(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged under fault injection:\n%+v\n%+v", a, b)
	}
	if a.Crashes == 0 {
		t.Fatal("MTBF 2s injected no crashes — the test exercises nothing")
	}
	sharded, err := Run(be, mk(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, sharded) {
		t.Fatalf("epoch-sharded run diverged from monolithic:\n%+v\n%+v", a, sharded)
	}
	c, err := Run(be, mk(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Crashes, c.Crashes) && reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical failure runs")
	}
}

// eventTally is a minimal in-package Observer for conservation checks.
type eventTally struct {
	roundTokens int
	byKind      map[EventKind]int
}

func (e *eventTally) Event(ev Event) {
	if e.byKind == nil {
		e.byKind = make(map[EventKind]int)
	}
	e.byKind[ev.Kind]++
	if ev.Kind == EvDecodeRound {
		e.roundTokens += ev.Tokens
	}
}

func (e *eventTally) Sample(Sample) {}

// TestRetryTokenConservation: a retry restarts from scratch, and the
// tokens its earlier attempt produced are wasted work — still counted in
// TotalTokens, which must keep matching the sum of committed round tokens.
func TestRetryTokenConservation(t *testing.T) {
	var tr []Request
	for i := 0; i < 16; i++ {
		tr = append(tr, Request{ID: i, ArrivalSec: float64(i) * 1e-3, InputLen: 64, OutputLen: 64})
	}
	wl := trace.Workload{Model: tinyModel(), Kind: dtype.BF16}
	be := cpuBackend(tee.TDX())
	// Three crashes, each landing a little after the previous cold-start
	// recovery, while retried work is running.
	recovery := ColdStartSec(be, wl)
	c1 := 0.05
	c2 := c1 + recovery + 0.25
	c3 := c2 + recovery + 0.7
	tally := &eventTally{}
	cfg := Config{
		Workload: wl,
		Trace:    tr,
		Knobs: Knobs{
			MaxBatch: 4,
			Faults: FaultConfig{
				Plan:            []FailPoint{{TimeSec: c1}, {TimeSec: c2}, {TimeSec: c3}},
				Policy:          FailLost,
				RetryMax:        2,
				RetryBackoffSec: 0.05,
			},
		},
		Seed:     1,
		Observer: tally,
	}
	rep, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 || rep.Retries == 0 {
		t.Fatalf("storm too mild to test retries: %d crashes, %d retries", rep.Crashes, rep.Retries)
	}
	if tally.roundTokens != rep.TotalTokens {
		t.Fatalf("round tokens %d != TotalTokens %d — wasted retry work leaked from the ledger",
			tally.roundTokens, rep.TotalTokens)
	}
	completedTokens := 0
	for _, m := range rep.Requests {
		completedTokens += m.OutputTokens
	}
	if rep.TotalTokens < completedTokens {
		t.Fatalf("TotalTokens %d below completed output %d", rep.TotalTokens, completedTokens)
	}
	if rep.Completed+rep.Dropped+rep.Unfinished != len(tr) {
		t.Fatalf("outcome partition %d+%d+%d != %d offered",
			rep.Completed, rep.Dropped, rep.Unfinished, len(tr))
	}
	sum := 0
	for _, n := range rep.DroppedByReason {
		sum += n
	}
	if sum != rep.Dropped {
		t.Fatalf("drop taxonomy sums to %d, lumped total %d", sum, rep.Dropped)
	}
	if rep.DroppedByReason[DropFailureLost] != rep.Dropped {
		t.Fatalf("FailLost drops misfiled: %v", rep.DroppedByReason)
	}
	// Event-stream outcome counts must agree with the report.
	if got := tally.byKind[EvCrash]; got != rep.Crashes {
		t.Fatalf("crash events %d != report crashes %d", got, rep.Crashes)
	}
	if got := tally.byKind[EvRecover]; got != rep.Crashes {
		t.Fatalf("recover events %d != crashes %d", got, rep.Crashes)
	}
	if got := tally.byKind[EvRetry]; got != rep.Retries {
		t.Fatalf("retry events %d != report retries %d", got, rep.Retries)
	}
	if rep.KVBlocksInUseAtEnd != 0 && rep.Unfinished == 0 {
		t.Fatalf("leaked %d KV blocks", rep.KVBlocksInUseAtEnd)
	}
}

// TestAdmitDeadlineOrdersEDF: under AdmitDeadline a queued interactive
// request jumps ahead of earlier-arrived background work.
func TestAdmitDeadlineOrdersEDF(t *testing.T) {
	tr := []Request{
		{ID: 0, ArrivalSec: 0, InputLen: 64, OutputLen: 32, Class: ClassBackground},
		{ID: 1, ArrivalSec: 1e-4, InputLen: 64, OutputLen: 8, Class: ClassBackground},
		{ID: 2, ArrivalSec: 2e-4, InputLen: 64, OutputLen: 8, Class: ClassInteractive},
	}
	cfg := Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16},
		Trace:    tr,
		Knobs: Knobs{
			MaxBatch: 1,
			Faults:   FaultConfig{Admission: AdmitDeadline},
		},
		Seed: 1,
	}
	rep, order, err := runAudited(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 {
		t.Fatalf("completed %d, want 3: %+v", rep.Completed, rep.DroppedByReason)
	}
	if want := ([]int{0, 2, 1}); !reflect.DeepEqual(order, want) {
		t.Fatalf("EDF admission order %v, want %v", order, want)
	}
	if rep.CompletedByClass[ClassInteractive] != 1 || rep.CompletedByClass[ClassBackground] != 2 {
		t.Fatalf("class split wrong: %v", rep.CompletedByClass)
	}

	// The identical trace under FIFO must keep arrival order — the
	// default path ignores Class entirely.
	cfg.Faults.Admission = AdmitFIFO
	_, order, err = runAudited(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := ([]int{0, 1, 2}); !reflect.DeepEqual(order, want) {
		t.Fatalf("FIFO admission order %v, want %v", order, want)
	}
}

// TestAdmitDeadlineDropsExpired: work whose deadline passed while queued
// is abandoned as deadline-expired, not served late.
func TestAdmitDeadlineDropsExpired(t *testing.T) {
	tr := []Request{
		{ID: 0, ArrivalSec: 0, InputLen: 64, OutputLen: 64, Class: ClassInteractive},
		{ID: 1, ArrivalSec: 1e-3, InputLen: 64, OutputLen: 8, Class: ClassInteractive},
		{ID: 2, ArrivalSec: 2e-3, InputLen: 64, OutputLen: 8, Class: ClassInteractive},
	}
	cfg := Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16},
		Trace:    tr,
		Knobs: Knobs{
			MaxBatch:   1,
			Faults:     FaultConfig{Admission: AdmitDeadline},
			TTFTSLOSec: 5e-3,
		},
		Seed: 1, // the deadline expires while request 0 monopolizes the batch
	}
	rep, order, err := runAudited(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("admission order %v, want only request 0", order)
	}
	if rep.Completed != 1 || rep.Dropped != 2 {
		t.Fatalf("completed/dropped = %d/%d, want 1/2", rep.Completed, rep.Dropped)
	}
	if rep.DroppedByReason[DropDeadlineExpired] != 2 {
		t.Fatalf("expiries misfiled: %v", rep.DroppedByReason)
	}
	if rep.Sheds != 0 {
		t.Fatalf("AdmitDeadline shed %d requests — only AdmitShed declines ahead of time", rep.Sheds)
	}
}

// TestShedRetriesThenDrops: AdmitShed declines infeasible deadlines at
// admission; each shed burns a retry until the budget is gone, then the
// request drops as admission-shed. Counts are exact and deterministic.
func TestShedRetriesThenDrops(t *testing.T) {
	const n = 6
	var tr []Request
	for i := 0; i < n; i++ {
		tr = append(tr, Request{ID: i, ArrivalSec: float64(i) * 1e-3, InputLen: 64, OutputLen: 8, Class: ClassInteractive})
	}
	cfg := Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16},
		Trace:    tr,
		Seed:     1,
		Knobs: Knobs{
			Faults:     FaultConfig{Admission: AdmitShed, RetryMax: 1, RetryBackoffSec: 0.01},
			TTFTSLOSec: 1e-9,
		}, // no prefill can ever fit the deadline: every admission sheds
	}
	rep, err := Run(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 0 {
		t.Fatalf("completed %d with an unmeetable deadline", rep.Completed)
	}
	if rep.Sheds != 2*n || rep.Retries != n {
		t.Fatalf("sheds/retries = %d/%d, want %d/%d (one retry each, then drop)", rep.Sheds, rep.Retries, 2*n, n)
	}
	if rep.Dropped != n || rep.DroppedByReason[DropAdmissionShed] != n {
		t.Fatalf("drops = %d (%v), want all %d admission-shed", rep.Dropped, rep.DroppedByReason, n)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d KV blocks through the shed path", rep.KVBlocksInUseAtEnd)
	}

	// With a feasible deadline the same trace completes everything and
	// sheds nothing.
	cfg.TTFTSLOSec = 10
	rep, err = Run(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n || rep.Sheds != 0 || rep.Retries != 0 || rep.Dropped != 0 {
		t.Fatalf("feasible deadlines still shed: completed=%d sheds=%d retries=%d dropped=%d",
			rep.Completed, rep.Sheds, rep.Retries, rep.Dropped)
	}
}

// TestFaultConfigNormalizeKeepsKnobs: normalize keeps every resolved
// resilience knob of the Faults sub-struct and fills the retry backoff
// default.
func TestFaultConfigNormalizeKeepsKnobs(t *testing.T) {
	cfg := tinyConfig(1, 0)
	cfg.Trace = []Request{{ID: 0, InputLen: 64, OutputLen: 8}}
	cfg.Faults = FaultConfig{
		Plan:     []FailPoint{{TimeSec: 0.05}, {TimeSec: 0.4}},
		Policy:   FailLost,
		RetryMax: 1,
	}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Faults.Policy != FailLost || cfg.Faults.RetryMax != 1 || cfg.Faults.RetryBackoffSec != 1 || len(cfg.Faults.Plan) != 2 {
		t.Fatalf("normalize lost or mis-defaulted a knob: %+v", cfg.Faults)
	}
}

// costingError is the failure TestHaltedReplicaErrorNamesReplica injects.
type costingError struct{ shape string }

func (e *costingError) Error() string { return "cannot cost " + e.shape }

// TestHaltedReplicaErrorNamesReplica: when one replica of a fleet halts,
// the run's error names that replica and the simulated time it failed at,
// and still unwraps to the underlying failure.
func TestHaltedReplicaErrorNamesReplica(t *testing.T) {
	be := cpuBackend(tee.TDX())
	cause := &costingError{shape: "decode batch 4"}
	d := &probeDispatcher{be: be, start: func(p *Pool) {
		if err := p.Add(1, be, p.cfg.Seed+1); err != nil {
			t.Fatal(err)
		}
		p.eng.ScheduleAt(sim.Time(0.25), func(*sim.Engine) { p.reps[1].fail(cause) })
	}}
	_, err := Drive(tinyConfig(20, 16), d)
	if err == nil {
		t.Fatal("a halted replica did not fail the run")
	}
	if want := "serve: replica 1 at t=0.250s: cannot cost decode batch 4"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("errors.Is lost the cause through %q", err)
	}
	var got *costingError
	if !errors.As(err, &got) || got.shape != "decode batch 4" {
		t.Fatalf("errors.As did not recover the cause from %q", err)
	}
}
