package serve

import (
	"reflect"
	"sort"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/mem"
	"cllm/internal/par"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

// TestSwapPreemptionKeepsInvariants: the policy invariants the recompute
// regression tests assert must hold verbatim under swap — FIFO first
// admission, full completion, zero leaked device blocks — plus the swap
// pool's own leak invariant and determinism.
func TestSwapPreemptionKeepsInvariants(t *testing.T) {
	be, cfg := preemptionHeavyConfig()
	cfg.PreemptPolicy = PreemptSwap
	rep, order, err := runAudited(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions == 0 || rep.SwapOuts == 0 {
		t.Fatalf("config exercised no swaps (%d preemptions, %d swap-outs); test is vacuous",
			rep.Preemptions, rep.SwapOuts)
	}
	if rep.SwapIns != rep.SwapOuts {
		t.Fatalf("swap-outs %d != swap-ins %d with everything completed", rep.SwapOuts, rep.SwapIns)
	}
	if rep.Completed != 32 || rep.Dropped != 0 || rep.Unfinished != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 32/0/0",
			rep.Completed, rep.Dropped, rep.Unfinished)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d device blocks across swaps", rep.KVBlocksInUseAtEnd)
	}
	if rep.SwapBlocksAtEnd != 0 {
		t.Fatalf("leaked %d swap blocks (parked copies without live requests)", rep.SwapBlocksAtEnd)
	}
	if rep.SwapPoolBlocks == 0 || rep.PeakSwapBlocksInUse == 0 || rep.PeakSwapBlocksInUse > rep.SwapPoolBlocks {
		t.Fatalf("swap pool %d, peak %d", rep.SwapPoolBlocks, rep.PeakSwapBlocksInUse)
	}
	if !sort.IntsAreSorted([]int(order)) {
		t.Fatalf("admission order not FIFO under swap: %v", order)
	}
	rep2, order2, err := runAudited(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, order2) || !reflect.DeepEqual(rep, rep2) {
		t.Fatal("swap-policy run not deterministic")
	}
}

// TestDefaultPolicyIsRecomputeBitIdentical: the zero-valued config must
// behave exactly like an explicit recompute config, with every swap field
// zero — the pre-PR behavior is the default.
func TestDefaultPolicyIsRecomputeBitIdentical(t *testing.T) {
	be, cfg := preemptionHeavyConfig()
	def, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	explicit := cfg
	explicit.PreemptPolicy = PreemptRecompute
	rep, err := Run(be, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, rep) {
		t.Fatal("explicit recompute differs from the default")
	}
	if def.SwapOuts != 0 || def.SwapIns != 0 || def.SwapPoolBlocks != 0 ||
		def.PeakSwapBlocksInUse != 0 || def.SwapBlocksAtEnd != 0 {
		t.Fatalf("recompute run reports swap activity: %+v", def)
	}
}

// TestSwapFullPoolFallsBackToRecompute: a swap-out that finds no room in
// the host pool must fall back to recompute. Both runs shrink the replica's
// pool to one block at start — less than any victim's computed entries —
// so every swap attempt fails and the swap-policy run must equal the
// recompute run.
func TestSwapFullPoolFallsBackToRecompute(t *testing.T) {
	be, cfg := preemptionHeavyConfig()
	drive := func(policy PreemptPolicy) *Report {
		t.Helper()
		c := cfg
		c.PreemptPolicy = policy
		p, err := Drive(c, &probeDispatcher{be: be, start: func(p *Pool) {
			p.reps[0].kv.ConfigureSwapPool(1)
		}})
		if err != nil {
			t.Fatal(err)
		}
		return p.Aggregate(func(int) bool { return true })
	}
	rec, swp := drive(PreemptRecompute), drive(PreemptSwap)
	if rec.Preemptions == 0 {
		t.Fatal("config exercised no preemptions; test is vacuous")
	}
	if swp.SwapOuts != 0 {
		t.Fatalf("a one-block pool parked %d victims", swp.SwapOuts)
	}
	if !reflect.DeepEqual(rec, swp) {
		t.Fatal("swap with no pool room differs from recompute")
	}
}

// TestSwapWithChunkedPrefillAndSharing: swap must compose with chunked
// prefill and the prefix cache — mid-prefill victims park partial
// progress, swap-ins re-acquire shared prefixes, and nothing leaks.
func TestSwapWithChunkedPrefillAndSharing(t *testing.T) {
	m := tinyModel()
	wl := trace.Workload{Model: m, Kind: dtype.BF16}
	weights := int64(trace.WeightFootprint(wl))
	perToken := m.KVCacheBytesPerToken(2)
	p := tee.Baremetal()
	p.Name = "tiny-enclave"
	p.EPC = mem.EPC{Size: weights + 280*perToken, PageInCostFactor: 1}
	var tr []Request
	for i := 0; i < 16; i++ {
		tr = append(tr, Request{ID: i, ArrivalSec: float64(i) * 0.001, InputLen: 96, OutputLen: 24,
			PrefixID: i%2 + 1, PrefixLen: 64})
	}
	cfg := Config{Workload: wl, Trace: tr, Seed: 3, BlockTokens: 16,
		Knobs: Knobs{
			PrefixSharing: true,
			ChunkTokens:   48,
			PreemptPolicy: PreemptSwap,
		}}
	rep, err := Run(cpuBackend(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 16 || rep.Dropped != 0 || rep.Unfinished != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 16/0/0",
			rep.Completed, rep.Dropped, rep.Unfinished)
	}
	if rep.Preemptions == 0 {
		t.Fatal("no preemptions; stress is vacuous")
	}
	if rep.KVBlocksInUseAtEnd != 0 || rep.SwapBlocksAtEnd != 0 {
		t.Fatalf("leaks: %d device, %d swap blocks", rep.KVBlocksInUseAtEnd, rep.SwapBlocksAtEnd)
	}
	rep2, err := Run(cpuBackend(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("swap + chunked + sharing run not deterministic")
	}
}

// TestSwapBeatsRecomputeOnCPUTEE: the headline trade-off — on an
// enclave-bounded CPU TEE serving long contexts, re-prefilling a victim's
// context costs hundreds of milliseconds of slow CPU prefill while the
// swap path is a near-native memcpy, so swap must serve the identical
// preemption-heavy load with a strictly better p99 TTFT.
func TestSwapBeatsRecomputeOnCPUTEE(t *testing.T) {
	m := mustLookup(t, "llama2-7b")
	wl := trace.Workload{Model: m, Kind: dtype.BF16}
	weights := int64(trace.WeightFootprint(wl))
	p := tee.Baremetal()
	p.Name = "tiny-enclave"
	p.MemBWFactor = 0.955 // SGX-class inline encryption on the swap memcpy
	p.EPC = mem.EPC{Size: weights + 768*m.KVCacheBytesPerToken(2), PageInCostFactor: 1}
	var tr []Request
	for i := 0; i < 6; i++ {
		tr = append(tr, Request{ID: i, ArrivalSec: float64(i) * 0.05, InputLen: 256, OutputLen: 256})
	}
	cfg := Config{Workload: wl, Trace: tr, Seed: 1,
		Knobs: Knobs{
			MaxBatch:   8,
			TTFTSLOSec: 60,
			TPOTSLOSec: 2,
		}}
	rec, err := Run(cpuBackend(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	swp := cfg
	swp.PreemptPolicy = PreemptSwap
	srep, err := Run(cpuBackend(p), swp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Preemptions == 0 || srep.SwapOuts == 0 {
		t.Fatalf("no preemption pressure (%d recompute preemptions, %d swaps)", rec.Preemptions, srep.SwapOuts)
	}
	if srep.TTFT.P99 >= rec.TTFT.P99 {
		t.Fatalf("swap p99 TTFT %.4fs not below recompute %.4fs on a CPU TEE",
			srep.TTFT.P99, rec.TTFT.P99)
	}
}

// TestAutoPolicyDeterministicAcrossRunsAndWorkers: auto's per-preemption
// decision comes from the shared memoized coster, so reports must be
// byte-identical across repeated runs and across concurrent fleets
// costing through one table (the harness sweeps run cells that way).
func TestAutoPolicyDeterministicAcrossRunsAndWorkers(t *testing.T) {
	be, cfg := preemptionHeavyConfig()
	cfg.PreemptPolicy = PreemptAuto
	a, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("auto-policy runs with equal seeds diverged")
	}
	// On this CPU TEE auto should actually choose swap (memcpy beats the
	// slow re-prefill) — otherwise the policy check is vacuous.
	if a.SwapOuts == 0 {
		t.Fatalf("auto never swapped on a CPU TEE (%d preemptions)", a.Preemptions)
	}

	fleetCfg := cfg
	fleetCfg.Rate *= 2
	fleetCfg.Trace = fixedLengthTrace(fleetCfg)
	fc := FleetConfig{Replicas: 2, Policy: LeastLoaded}
	serial, err := RunFleet(be, fleetCfg, fc)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Aggregate.SwapOuts == 0 {
		t.Fatalf("auto never swapped in the fleet (%d preemptions)", serial.Aggregate.Preemptions)
	}
	if be.Coster, err = NewStepCoster(be, fleetCfg); err != nil {
		t.Fatal(err)
	}
	const runs = 8
	reps := make([]*FleetReport, runs)
	err = par.For(4, runs, func(j int) error {
		var err error
		reps[j], err = RunFleet(be, fleetCfg, fc)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, rep := range reps {
		if !reflect.DeepEqual(serial, rep) {
			t.Fatalf("concurrent shared-coster fleet %d diverges from the serial run:\n%+v\nvs\n%+v",
				j, rep.Aggregate, serial.Aggregate)
		}
	}
}

// TestParsePreemptPolicy covers the CLI surface.
func TestParsePreemptPolicy(t *testing.T) {
	for s, want := range map[string]PreemptPolicy{
		"": PreemptRecompute, "recompute": PreemptRecompute,
		"swap": PreemptSwap, "auto": PreemptAuto, " Swap ": PreemptSwap,
	} {
		got, err := ParsePreemptPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePreemptPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePreemptPolicy("discard"); err == nil {
		t.Error("unknown policy accepted")
	}
	if got := PreemptAuto.String(); got != "auto" {
		t.Errorf("String() = %q", got)
	}
	// An out-of-range policy value is a config error, not a silent default.
	be, cfg := preemptionHeavyConfig()
	cfg.PreemptPolicy = PreemptPolicy(9)
	if _, err := Run(be, cfg); err == nil {
		t.Error("invalid policy value accepted")
	}
}
