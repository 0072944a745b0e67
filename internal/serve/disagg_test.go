package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cllm/internal/par"
	"cllm/internal/tee"
)

// disaggTopology is the canonical two-stage test fleet: one baremetal
// prefill replica handing KV off to two TDX decode replicas.
func disaggTopology() Topology {
	return Topology{Groups: []RoleGroup{
		{Role: RolePrefill, Backend: cpuBackend(tee.Baremetal()), Replicas: 1},
		{Role: RoleDecode, Backend: cpuBackend(tee.TDX()), Replicas: 2},
	}}
}

func runDisagg(t *testing.T, cfg Config) *FleetReport {
	t.Helper()
	f, err := NewFleet(disaggTopology())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestNewFleetRejectsUnknownPolicy checks that a dispatch policy outside
// the declared constants is refused by name instead of being routed
// least-loaded, and that an undeclared role is refused the same way.
func TestNewFleetRejectsUnknownPolicy(t *testing.T) {
	unified := Unified(cpuBackend(tee.TDX()), FleetConfig{Replicas: 2, Policy: 7})
	disagg := disaggTopology()
	disagg.Groups[1].Policy = 7
	for i, topo := range []Topology{unified, disagg} {
		_, err := NewFleet(topo)
		if err == nil || !strings.Contains(err.Error(), "load-balancing policy LBPolicy(7)") {
			t.Errorf("topology %d: err = %v, want the unknown policy named", i, err)
		}
	}
	disagg = disaggTopology()
	disagg.Groups[1].Role = 5
	if _, err := NewFleet(disagg); err == nil || err.Error() != "serve: unknown role Role(5) in topology group 1" {
		t.Errorf("unknown role: err = %v", err)
	}
}

// TestUnifiedFleetMatchesPrePRGolden pins the refactored construction
// path (NewFleet/Fleet.Run, Pool.Add) to the exact output the
// pre-topology RunFleet produced at commit afa540b: the digest below was
// recorded by running that commit's RunFleet with this backend and
// config. Any drift in replica seeding, arrival generation order or
// dispatch breaks this test before it breaks a downstream sweep.
func TestUnifiedFleetMatchesPrePRGolden(t *testing.T) {
	f, err := NewFleet(Unified(cpuBackend(tee.TDX()), FleetConfig{Replicas: 3, Policy: LeastLoaded}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(tinyConfig(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Aggregate
	got := fmt.Sprintf("completed=%d dropped=%d unfinished=%d tokens=%d preempt=%d peakKV=%d "+
		"ttftP50=%.17g ttftP99=%.17g tpotMean=%.17g latP99=%.17g makespan=%.17g dispatch=%v",
		a.Completed, a.Dropped, a.Unfinished, a.TotalTokens, a.Preemptions, a.PeakKVBlocksInUse,
		a.TTFT.P50, a.TTFT.P99, a.TPOT.Mean, a.Latency.P99, a.MakespanSec, rep.Dispatch)
	want := "completed=30 dropped=0 unfinished=0 tokens=232 preempt=0 peakKV=10 " +
		"ttftP50=0.00072557843283221901 ttftP99=0.00074294991151118816 " +
		"tpotMean=0.00073151788845103257 latP99=0.0092407346048520647 " +
		"makespan=1.0563287221053284 dispatch=[28 2 0]"
	if got != want {
		t.Fatalf("unified fleet diverged from the pre-PR RunFleet golden:\n got  %s\n want %s", got, want)
	}
}

// TestRunFleetIsUnifiedTopology pins the thin-wrapper contract: RunFleet
// and the explicit one-group unified topology produce deeply equal
// reports.
func TestRunFleetIsUnifiedTopology(t *testing.T) {
	be := cpuBackend(tee.TDX())
	cfg := tinyConfig(25, 24)
	old, err := RunFleet(be, cfg, FleetConfig{Replicas: 2, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(Unified(be, FleetConfig{Replicas: 2, Policy: RoundRobin}))
	if err != nil {
		t.Fatal(err)
	}
	via, err := f.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, via) {
		t.Fatalf("RunFleet and NewFleet(Unified).Run diverge:\n%+v\nvs\n%+v", old.Aggregate, via.Aggregate)
	}
}

// TestHandoffKVConservationAcrossRoles drains a disaggregated run and
// checks the paged-pool invariants on every replica — prefill replicas
// must release every drained block, decode replicas must retire every
// staged copy, and every request must have returned its KV slot — plus
// the fleet-level handoff ledger.
func TestHandoffKVConservationAcrossRoles(t *testing.T) {
	var reps []*scheduler
	var roles []Role
	fleetTestHook = func(r []*scheduler, ro []Role) { reps, roles = r, ro }
	defer func() { fleetTestHook = nil }()

	cfg := tinyConfig(25, 40)
	cfg.Workload.OutputLen = 16
	cfg.Trace = fixedLengthTrace(cfg) // exact lengths, so the token ledger is exact arithmetic
	rep := runDisagg(t, cfg)
	checked, requests := 0, 0
	for i, s := range reps {
		if err := s.kv.CheckConservation(); err != nil {
			t.Errorf("replica %d (%s): %v", i, roles[i], err)
		}
		if h := s.kv.Holders(); h != 0 {
			t.Errorf("replica %d (%s): %d requests still hold KV slots", i, roles[i], h)
		}
		for _, st := range s.kept {
			if st.kv.slot != 0 {
				t.Errorf("replica %d (%s): request %d ends holding KV slot %d", i, roles[i], st.req.ID, st.kv.slot)
			}
			requests++
		}
		checked++
	}
	if checked != 3 || requests != 40 {
		t.Fatalf("conservation hook saw %d replicas and %d requests, want 3 and 40", checked, requests)
	}
	a := rep.Aggregate
	if a.Completed != 40 || a.Dropped != 0 || a.Unfinished != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 40/0/0", a.Completed, a.Dropped, a.Unfinished)
	}
	if a.HandoffsOut == 0 {
		t.Fatal("disaggregated run launched no handoffs")
	}
	if a.HandoffsIn+a.HandoffFallbacks != a.HandoffsOut {
		t.Fatalf("handoff ledger broken: %d launched, %d ingested + %d fallbacks",
			a.HandoffsOut, a.HandoffsIn, a.HandoffFallbacks)
	}
	if a.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d KV blocks across the handoff edge", a.KVBlocksInUseAtEnd)
	}
	if a.SwapBlocksAtEnd != 0 {
		t.Fatalf("leaked %d staging-pool blocks after ingest", a.SwapBlocksAtEnd)
	}
	// Every prefill-side request drains exactly InputLen+1 tokens of KV.
	if want := a.HandoffsOut * (cfg.Workload.InputLen + 1); a.HandoffTokens != want {
		t.Fatalf("handoff tokens %d, want %d (%d handoffs × %d tokens)",
			a.HandoffTokens, want, a.HandoffsOut, cfg.Workload.InputLen+1)
	}
	if a.HandoffBytes <= 0 {
		t.Fatal("handoff transfers carried no bytes")
	}
}

// TestHandoffIngestRejectsHeldSlot: a KV slot indexes one replica's block
// manager only, so a request that reaches its decode replica still holding
// a prefill-side slot fails the run, naming the request and both replicas,
// instead of being staged under a slot the decode side never issued.
func TestHandoffIngestRejectsHeldSlot(t *testing.T) {
	cfg := tinyConfig(10, 1)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	p := newPool(cfg)
	for i, plat := range []tee.Platform{tee.Baremetal(), tee.TDX()} {
		if err := p.Add(i, cpuBackend(plat), cfg.Seed+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	src, dst := p.reps[0], p.reps[1]
	dst.kv.ConfigureSwapPool(dst.kv.TotalBlocks())
	r := &reqState{req: Request{ID: 7, InputLen: 64, OutputLen: 8}, phase: phaseHandoff}
	if !src.kv.grow(&r.kv, r.req.ID, 65) || r.kv.slot == 0 {
		t.Fatal("prefill replica did not give the request a slot")
	}
	d := &handoffDispatcher{eng: p.eng, stage: &stageLB{reps: []*scheduler{dst}}}
	d.ingest(src, r, 65)
	if dst.err == nil || !strings.Contains(dst.err.Error(), "request 7 reaches decode replica 1 still holding KV slot 1 of prefill replica 0") {
		t.Fatalf("ingest of a slot-holding request: err = %v", dst.err)
	}
	if dst.queue.Len() != 0 || dst.kv.SwappedBlocks() != 0 {
		t.Fatalf("rejected request was staged: queue %d, %d swap blocks", dst.queue.Len(), dst.kv.SwappedBlocks())
	}

	// Once the drain has returned the slot, the same request is staged.
	src.kv.release(&r.kv)
	dst.err = nil
	d.ingest(src, r, 65)
	if dst.err != nil || dst.rep.HandoffsIn != 1 || dst.rep.HandoffFallbacks != 0 || r.kv.slot == 0 {
		t.Fatalf("ingest after the drain: err %v, %d ingested, %d fallbacks, slot %d",
			dst.err, dst.rep.HandoffsIn, dst.rep.HandoffFallbacks, r.kv.slot)
	}
}

// TestDisaggDeterminism pins handoff routing: the same disaggregated
// config must produce deeply equal fleet reports run after run, whether
// runs execute serially or concurrently under internal/par worker pools
// of any width, and in sketch mode as well as exact mode.
func TestDisaggDeterminism(t *testing.T) {
	cfg := tinyConfig(30, 32)
	base := runDisagg(t, cfg)
	if again := runDisagg(t, cfg); !reflect.DeepEqual(base, again) {
		t.Fatalf("back-to-back disaggregated runs diverge:\n%+v\nvs\n%+v", base.Aggregate, again.Aggregate)
	}
	for _, workers := range []int{2, 4, 8} {
		const runs = 8
		reps := make([]*FleetReport, runs)
		err := par.For(workers, runs, func(j int) error {
			f, err := NewFleet(disaggTopology())
			if err != nil {
				return err
			}
			reps[j], err = f.Run(cfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for j, rep := range reps {
			if !reflect.DeepEqual(base, rep) {
				t.Fatalf("workers=%d run %d diverges from the serial run:\n%+v\nvs\n%+v",
					workers, j, base.Aggregate, rep.Aggregate)
			}
		}
	}

	skCfg := cfg
	skCfg.QuantileMode = QuantileSketch
	skA := runDisagg(t, skCfg)
	skB := runDisagg(t, skCfg)
	if !reflect.DeepEqual(skA, skB) {
		t.Fatalf("sketch-mode disaggregated runs diverge:\n%+v\nvs\n%+v", skA.Aggregate, skB.Aggregate)
	}
	if skA.Aggregate.HandoffsOut != base.Aggregate.HandoffsOut ||
		skA.Aggregate.HandoffsIn != base.Aggregate.HandoffsIn ||
		skA.Aggregate.HandoffTokens != base.Aggregate.HandoffTokens {
		t.Fatalf("sketch mode changed handoff routing: %d/%d/%d vs exact %d/%d/%d",
			skA.Aggregate.HandoffsOut, skA.Aggregate.HandoffsIn, skA.Aggregate.HandoffTokens,
			base.Aggregate.HandoffsOut, base.Aggregate.HandoffsIn, base.Aggregate.HandoffTokens)
	}
}
