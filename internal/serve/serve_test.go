package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cllm/internal/cloud"
	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/mem"
	"cllm/internal/model"
	"cllm/internal/perf"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// tinyModel is a small but valid transformer so scheduler tests iterate
// fast; TEE-facing tests use the real zoo models.
func tinyModel() model.Config {
	return model.Config{
		Name: "tiny", HiddenDim: 256, Layers: 4, Heads: 8, KVHeads: 8,
		FFDim: 512, VocabSize: 1024, ContextLen: 2048, NormEps: 1e-5, RopeTheta: 10000,
	}
}

func cpuBackend(p tee.Platform) Backend {
	return Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: p, Sockets: 1, AMX: true}}
}

func tinyConfig(rate float64, n int) Config {
	return Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16, InputLen: 64, OutputLen: 8},
		Rate:     rate,
		Requests: n,
		Seed:     1,
	}
}

// fixedLengthTrace is cfg's Poisson load with every request exactly
// cfg.Workload.InputLen/OutputLen tokens long: the arrival times Poisson
// synthesis would draw from rand(cfg.Seed), without the length jitter, for
// tests whose assertions are exact token or block arithmetic.
func fixedLengthTrace(cfg Config) []Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := make([]Request, cfg.Requests)
	t := 0.0
	for i := range tr {
		t += rng.ExpFloat64() / cfg.Rate
		tr[i] = Request{ID: i, ArrivalSec: t, InputLen: cfg.Workload.InputLen, OutputLen: cfg.Workload.OutputLen}
	}
	return tr
}

func mustLookup(t *testing.T, name string) model.Config {
	t.Helper()
	cfg, err := model.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestServeCompletesAndConservesBlocks(t *testing.T) {
	rep, err := Run(cpuBackend(tee.Baremetal()), tinyConfig(20, 40))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 40 || rep.Dropped != 0 || rep.Unfinished != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 40/0/0",
			rep.Completed, rep.Dropped, rep.Unfinished)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d KV blocks", rep.KVBlocksInUseAtEnd)
	}
	if rep.TokensPerSec <= 0 || rep.TotalTokens == 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.TTFT.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Fatalf("implausible latency quantiles: %+v %+v", rep.TTFT, rep.Latency)
	}
	if rep.PeakKVBlocksInUse <= 0 || rep.PeakKVBlocksInUse > rep.KVBlocksTotal {
		t.Fatalf("peak blocks %d outside (0, %d]", rep.PeakKVBlocksInUse, rep.KVBlocksTotal)
	}
	for _, m := range rep.Requests {
		if m.TTFT <= 0 || m.Latency < m.TTFT || m.OutputTokens < 2 {
			t.Fatalf("implausible request metrics: %+v", m)
		}
	}
}

func TestServeDeterministicForEqualSeeds(t *testing.T) {
	a, err := Run(cpuBackend(tee.TDX()), tinyConfig(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cpuBackend(tee.TDX()), tinyConfig(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	cfg := tinyConfig(30, 30)
	cfg.Seed = 2
	c, err := Run(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestServeFIFOAdmissionUnderOverload(t *testing.T) {
	// Arrivals land faster than the batch cap can drain; admission must
	// still follow arrival order.
	var tr []Request
	for i := 0; i < 24; i++ {
		tr = append(tr, Request{ID: i, ArrivalSec: float64(i) * 1e-4, InputLen: 64, OutputLen: 8})
	}
	cfg := Config{Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16}, Trace: tr, Knobs: Knobs{MaxBatch: 4}, Seed: 1}
	rep, order, err := runAudited(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 24 {
		t.Fatalf("completed %d, want 24", rep.Completed)
	}
	if len(order) != 24 {
		t.Fatalf("admitted %d requests, want 24", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("admission order %v is not FIFO", order)
		}
	}
}

func TestServePreemptionRecoversWithoutLeaks(t *testing.T) {
	// Cap usable memory via the EPC so the pool holds only a couple of
	// requests' KV, forcing preemption under concurrency.
	m := tinyModel()
	wl := trace.Workload{Model: m, Kind: dtype.BF16, InputLen: 64, OutputLen: 32}
	weights := int64(trace.WeightFootprint(wl))
	perToken := m.KVCacheBytesPerToken(2)
	p := tee.Baremetal()
	p.Name = "tiny-enclave"
	// Room for ~160 tokens of KV: two requests in flight, a third starves.
	p.EPC = mem.EPC{Size: weights + 160*perToken, PageInCostFactor: 1}
	cfg := Config{Workload: wl, Rate: 50, Requests: 12, Seed: 3, BlockTokens: 16}
	cfg.Trace = fixedLengthTrace(cfg)
	rep, err := Run(cpuBackend(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions == 0 {
		t.Fatalf("expected preemptions with %d-block pool, got none (peak %d)",
			rep.KVBlocksTotal, rep.PeakKVBlocksInUse)
	}
	if rep.Completed != 12 || rep.Unfinished != 0 || rep.Dropped != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 12/0/0",
			rep.Completed, rep.Dropped, rep.Unfinished)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d KV blocks across preemptions", rep.KVBlocksInUseAtEnd)
	}
}

func TestServeDropsImpossibleRequest(t *testing.T) {
	m := tinyModel()
	wl := trace.Workload{Model: m, Kind: dtype.BF16}
	weights := int64(trace.WeightFootprint(wl))
	p := tee.Baremetal()
	p.EPC = mem.EPC{Size: weights + 100*m.KVCacheBytesPerToken(2), PageInCostFactor: 1}
	tr := []Request{
		{ID: 0, ArrivalSec: 0, InputLen: 32, OutputLen: 4},
		{ID: 1, ArrivalSec: 0.01, InputLen: 1024, OutputLen: 4}, // can never fit 100 tokens of KV
		{ID: 2, ArrivalSec: 0.02, InputLen: 32, OutputLen: 4},
	}
	rep, err := Run(cpuBackend(p), Config{Workload: wl, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 1 || rep.Completed != 2 {
		t.Fatalf("dropped/completed = %d/%d, want 1/2", rep.Dropped, rep.Completed)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d blocks", rep.KVBlocksInUseAtEnd)
	}
}

func TestServeTEESlowerThanBaremetal(t *testing.T) {
	cfg := Config{
		Workload: trace.Workload{Model: mustLookup(t, "llama2-7b"), Kind: dtype.BF16, InputLen: 128, OutputLen: 8},
		Rate:     1, Requests: 12, Seed: 1,
	}
	base, err := Run(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tdx, err := Run(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tdx.TTFT.P99 <= base.TTFT.P99 {
		t.Fatalf("TDX p99 TTFT %.4fs not above baremetal %.4fs", tdx.TTFT.P99, base.TTFT.P99)
	}
	if tdx.TPOT.Mean <= base.TPOT.Mean {
		t.Fatalf("TDX mean TPOT %.4fs not above baremetal %.4fs", tdx.TPOT.Mean, base.TPOT.Mean)
	}
}

func TestServeGPUBackend(t *testing.T) {
	be := Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU()}}
	cfg := Config{
		Workload: trace.Workload{Model: mustLookup(t, "llama2-7b"), Kind: dtype.BF16, InputLen: 128, OutputLen: 8},
		Rate:     20, Requests: 16, Seed: 1,
	}
	rep, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 16 || rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("GPU run: %+v", rep)
	}
	if rep.Platform != "cGPU" {
		t.Fatalf("platform %q", rep.Platform)
	}
}

func TestServeGoodputSaturates(t *testing.T) {
	// Past saturation, pushing more load must not create more SLO-compliant
	// output: deep overload queues requests past the TTFT target, so their
	// tokens stop counting.
	goodput := func(rate float64) float64 {
		cfg := Config{
			Workload: trace.Workload{Model: mustLookup(t, "llama2-7b"), Kind: dtype.BF16, InputLen: 64, OutputLen: 8},
			Rate:     rate, Requests: 48, Seed: 1,
			Knobs: Knobs{
				MaxBatch:   8,
				TTFTSLOSec: 1.5,
				TPOTSLOSec: 0.5,
			},
		}
		rep, err := Run(cpuBackend(tee.Baremetal()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.GoodputTokensPerSec
	}
	moderate := goodput(8)
	flooded := goodput(500)
	if flooded > moderate*1.05 {
		t.Fatalf("goodput rose past saturation: %.1f tok/s at rate 8 vs %.1f tok/s at rate 500", moderate, flooded)
	}
}

func TestServeCostAtSLO(t *testing.T) {
	rep, err := Run(cpuBackend(tee.TDX()), tinyConfig(20, 40))
	if err != nil {
		t.Fatal(err)
	}
	cost, err := rep.CostAtSLO(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Replicas < 1 || cost.USDPerMTok <= 0 {
		t.Fatalf("implausible cost: %+v", cost)
	}
	if cost.FleetHourlyUSD != float64(cost.Replicas) {
		t.Fatalf("fleet hourly %.2f for %d replicas at $1/h", cost.FleetHourlyUSD, cost.Replicas)
	}
}

func TestServeChunkedPrefillInvariants(t *testing.T) {
	cfg := Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16, InputLen: 200, OutputLen: 8},
		Rate:     20, Requests: 24, Seed: 1,
		Knobs: Knobs{
			ChunkTokens: 48,
		},
	}
	rep, err := Run(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 24 || rep.Dropped != 0 || rep.Unfinished != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 24/0/0",
			rep.Completed, rep.Dropped, rep.Unfinished)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d KV blocks under chunked prefill", rep.KVBlocksInUseAtEnd)
	}
	// Chunking must not change what is produced, only when.
	mono := cfg
	mono.ChunkTokens = 0
	repM, err := Run(cpuBackend(tee.TDX()), mono)
	if err != nil {
		t.Fatal(err)
	}
	if repM.TotalTokens != rep.TotalTokens {
		t.Fatalf("chunked run produced %d tokens, monolithic %d", rep.TotalTokens, repM.TotalTokens)
	}
	// Determinism still holds with chunking on.
	rep2, err := Run(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("chunked runs with equal seeds diverged")
	}
}

func TestServePrefixSharingExactHits(t *testing.T) {
	// Arrivals far apart (each request finishes before the next arrives)
	// with ample memory: the first request of each prefix group misses its
	// whole 64-token prefix, every later one hits it fully. Any sharing
	// across the two groups (a hash-collision bug) would inflate the hits.
	var tr []Request
	for i := 0; i < 6; i++ {
		tr = append(tr, Request{ID: i, ArrivalSec: float64(i) * 5, InputLen: 96, OutputLen: 4,
			PrefixID: i%2 + 1, PrefixLen: 64})
	}
	cfg := Config{Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16},
		Trace: tr, Seed: 1,
		Knobs: Knobs{
			PrefixSharing: true,
		}}
	rep, err := Run(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 6 {
		t.Fatalf("completed %d, want 6", rep.Completed)
	}
	wantHits := 2 * 2 * 64 // two groups × two hitting requests × 64 tokens
	if rep.PrefixCacheHitTokens != wantHits {
		t.Fatalf("prefix hits %d tokens, want exactly %d", rep.PrefixCacheHitTokens, wantHits)
	}
	if rep.PrefixCacheMissTokens != 2*64 {
		t.Fatalf("prefix misses %d tokens, want %d (first arrival per group)", rep.PrefixCacheMissTokens, 2*64)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d blocks", rep.KVBlocksInUseAtEnd)
	}
	if rep.KVBlocksCachedAtEnd != 2*4 {
		t.Fatalf("cached %d blocks at end, want 8 (two 4-block prefixes)", rep.KVBlocksCachedAtEnd)
	}
	// Without sharing the same trace hits nothing.
	cfg.PrefixSharing = false
	rep, err = Run(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefixCacheHitTokens != 0 || rep.KVBlocksCachedAtEnd != 0 {
		t.Fatalf("sharing disabled but cache active: %+v", rep)
	}
}

func TestServePrefixSharingSurvivesPreemptionAndEviction(t *testing.T) {
	// A pool small enough to force preemption and cache eviction while two
	// prefix groups churn through it; the run must still complete every
	// request and release every active block.
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
	cfg := Config{Workload: wl, Trace: tr, Seed: 3, BlockTokens: 16, Knobs: Knobs{PrefixSharing: true}}
	rep, err := Run(cpuBackend(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 16 || rep.Dropped != 0 || rep.Unfinished != 0 {
		t.Fatalf("completed/dropped/unfinished = %d/%d/%d, want 16/0/0",
			rep.Completed, rep.Dropped, rep.Unfinished)
	}
	if rep.KVBlocksInUseAtEnd != 0 {
		t.Fatalf("leaked %d active blocks across share/preempt/evict", rep.KVBlocksInUseAtEnd)
	}
	if rep.PrefixCacheHitTokens == 0 {
		t.Fatal("no cache hits despite shared prefixes")
	}
	if rep.Preemptions == 0 {
		t.Fatalf("pool of %d blocks produced no preemptions (peak %d)",
			rep.KVBlocksTotal, rep.PeakKVBlocksInUse)
	}
}

func TestFleetDeterministicAndDispatch(t *testing.T) {
	cfg := Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16, InputLen: 64, OutputLen: 8},
		Rate:     40, Requests: 32, Seed: 1,
		Knobs: Knobs{
			PrefixGroups:  4,
			PrefixSharing: true,
		},
	}
	be := cpuBackend(tee.TDX())
	a, err := RunFleet(be, cfg, FleetConfig{Replicas: 3, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(be, cfg, FleetConfig{Replicas: 3, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fleet seeds diverged")
	}
	cfg2 := cfg
	cfg2.Seed = 2
	c, err := RunFleet(be, cfg2, FleetConfig{Replicas: 3, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different fleet seeds produced identical runs")
	}

	// Round-robin spreads arrivals evenly.
	total := 0
	for i, n := range a.Dispatch {
		total += n
		if n < 10 || n > 11 {
			t.Fatalf("round-robin dispatch %v unbalanced at replica %d", a.Dispatch, i)
		}
	}
	if total != 32 {
		t.Fatalf("dispatched %d requests, want 32", total)
	}
	if got := a.Aggregate.Completed + a.Aggregate.Dropped + a.Aggregate.Unfinished; got != 32 {
		t.Fatalf("aggregate accounts for %d requests, want 32", got)
	}

	// Prefix affinity sends a whole group to one replica under light load.
	var tr []Request
	for i := 0; i < 9; i++ {
		tr = append(tr, Request{ID: i, ArrivalSec: float64(i), InputLen: 64, OutputLen: 4,
			PrefixID: 1, PrefixLen: 48})
	}
	aff, err := RunFleet(be, Config{Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16},
		Trace: tr, Seed: 1,
		Knobs: Knobs{
			PrefixSharing: true,
		}}, FleetConfig{Replicas: 3, Policy: PrefixAffinity})
	if err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for _, n := range aff.Dispatch {
		if n > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("one shared prefix scattered across replicas: dispatch %v", aff.Dispatch)
	}
}

func TestFleetCostAndSizing(t *testing.T) {
	cfg := Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16, InputLen: 64, OutputLen: 8},
		Rate:     30, Requests: 24, Seed: 1,
	}
	fr, err := RunFleet(cpuBackend(tee.TDX()), cfg, FleetConfig{Replicas: 2, Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	// Two replicas at $1.50/h each rent for $3/h in total.
	usd, err := fr.CostPerMTok(3.0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cloud.CostPerMTokens(2*1.5, fr.Aggregate.GoodputTokensPerSec)
	if err != nil {
		t.Fatal(err)
	}
	if usd <= 0 || usd != want {
		t.Fatalf("fleet cost %v $/Mtok, want %v", usd, want)
	}
	n, sized, err := SizeFleetForSLO(cpuBackend(tee.TDX()), cfg, LeastLoaded, 0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 4 || sized.SLOAttainment() < 0.9 {
		t.Fatalf("sizing: %d replicas at %.2f attainment", n, sized.SLOAttainment())
	}
	if _, _, err := SizeFleetForSLO(cpuBackend(tee.TDX()), cfg, LeastLoaded, 1.5, 4); err == nil {
		t.Error("impossible attainment target accepted")
	}
}

func TestServeConfigValidation(t *testing.T) {
	be := cpuBackend(tee.Baremetal())
	if _, err := Run(be, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(be, Config{Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16}, Rate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	// A malformed trace is a config error: Validate names Trace without
	// running anything, and Run returns the same error.
	for name, tr := range map[string][]Request{
		"duplicate ID":   {{ID: 1, ArrivalSec: 0, InputLen: 8, OutputLen: 2}, {ID: 1, ArrivalSec: 1, InputLen: 8, OutputLen: 2}},
		"over context":   {{ID: 0, ArrivalSec: 0, InputLen: 2040, OutputLen: 9}},
		"unsorted shard": {{ID: 0, ArrivalSec: 1, InputLen: 8, OutputLen: 2}, {ID: 1, ArrivalSec: 0.5, InputLen: 8, OutputLen: 2}},
	} {
		cfg := Config{Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16}, Trace: tr, Knobs: Knobs{EpochRequests: 1}}
		var ce *ConfigError
		verr := cfg.Validate()
		if !errors.As(verr, &ce) || ce.Field != "Trace" {
			t.Errorf("%s: Validate = %v, want a *ConfigError naming Trace", name, verr)
			continue
		}
		if _, err := Run(be, cfg); err == nil || err.Error() != verr.Error() {
			t.Errorf("%s: Run err = %v, Validate %v", name, err, verr)
		}
	}
	// An invalid backend must fail the run, not report zeros as data.
	bad := cpuBackend(tee.Baremetal())
	bad.CPU.Sockets = 3 // EMR1 has 2
	if _, err := Run(bad, tinyConfig(10, 4)); err == nil {
		t.Error("impossible socket count accepted")
	}
	// A model too large for the platform memory must fail, not hang.
	huge := trace.Workload{Model: mustLookup(t, "llama2-70b"), Kind: dtype.F32}
	be70 := cpuBackend(tee.Baremetal())
	be70.CPU.CPU.MemPerSocketBytes = 32 << 30
	if _, err := Run(be70, Config{Workload: huge, Rate: 1}); err == nil {
		t.Error("oversized weights accepted")
	}
}

// TestConfigNormalizeIdempotent: normalizing an already normalized config
// changes nothing, for every kind of load and every defaulted knob group —
// fleets, control loops and replicas re-normalize the configs they share.
func TestConfigNormalizeIdempotent(t *testing.T) {
	sc, err := workload.ParseScenario("bursty+rag", 2)
	if err != nil {
		t.Fatal(err)
	}
	traceCfg := tinyConfig(0, 0)
	traceCfg.Trace = []Request{{ID: 0, InputLen: 64, OutputLen: 8}, {ID: 1, ArrivalSec: 0.5, InputLen: 32, OutputLen: 4}}
	scenarioCfg := Config{Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16}, Scenario: &sc}
	poissonCfg := tinyConfig(10, 0)
	poissonCfg.PrefixGroups = 2
	sketchCfg := tinyConfig(10, 32)
	sketchCfg.QuantileMode = QuantileSketch
	faultsCfg := tinyConfig(10, 32)
	faultsCfg.PreemptPolicy = PreemptSwap
	faultsCfg.Faults = FaultConfig{
		Plan:      []FailPoint{{TimeSec: 0.5}},
		Policy:    FailLost,
		Admission: AdmitShed,
		RetryMax:  2,
	}
	for name, cfg := range map[string]Config{
		"trace": traceCfg, "scenario": scenarioCfg, "poisson": poissonCfg,
		"sketch": sketchCfg, "faults": faultsCfg,
	} {
		if err := cfg.normalize(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		once := cfg
		if err := cfg.normalize(); err != nil {
			t.Fatalf("%s: second normalize: %v", name, err)
		}
		if !reflect.DeepEqual(once, cfg) {
			t.Errorf("%s: normalize is not idempotent:\n%+v\nvs\n%+v", name, once, cfg)
		}
	}
}

func TestServeScenarioArrivals(t *testing.T) {
	sc := workload.Scenario{
		Arrivals: workload.Bursty(20),
		Mix: workload.Mix{
			{Name: "a", Weight: 3, InputLen: 64, OutputLen: 8, LengthJitter: 0.2, PrefixGroups: 2, PrefixFrac: 0.5},
			{Name: "b", Weight: 1, InputLen: 256, OutputLen: 16, LengthJitter: 0.2},
		},
	}
	cfg := Config{
		Workload: trace.Workload{Model: tinyModel(), Kind: dtype.BF16},
		Scenario: &sc,
		Requests: 48,
		Seed:     1,
	}
	rep, err := Run(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Completed + rep.Dropped + rep.Unfinished; got != 48 {
		t.Fatalf("conservation: %d of 48 requests accounted", got)
	}
	if rep.KVBlocksInUseAtEnd != 0 && rep.Unfinished == 0 {
		t.Fatalf("leaked %d blocks", rep.KVBlocksInUseAtEnd)
	}
	// The report's offered rate reflects the scenario's mean rate.
	if rep.OfferedRate != sc.Arrivals.MeanRate() {
		t.Errorf("offered rate %g, want scenario mean %g", rep.OfferedRate, sc.Arrivals.MeanRate())
	}
	// Scenario runs are deterministic under the seed.
	rep2, err := Run(cpuBackend(tee.Baremetal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("scenario run not deterministic")
	}
	// Generated arrivals respect the model context window.
	arrivals, err := Arrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 48 {
		t.Fatalf("Arrivals returned %d requests", len(arrivals))
	}
	for _, r := range arrivals {
		if r.InputLen+r.OutputLen > tinyModel().ContextLen {
			t.Fatalf("request %d exceeds context: %+v", r.ID, r)
		}
		if r.PrefixLen >= r.InputLen {
			t.Fatalf("prefix covers prompt: %+v", r)
		}
	}
	// An invalid scenario is rejected.
	bad := cfg
	bad.Scenario = &workload.Scenario{Arrivals: workload.Poisson{Rate: -1}, Mix: sc.Mix}
	if _, err := Run(cpuBackend(tee.Baremetal()), bad); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// probeDispatcher is a minimal external Dispatcher: at Start it builds one
// replica of be seeded with the config seed and runs the optional hook;
// every arrival goes to that replica.
type probeDispatcher struct {
	be    Backend
	start func(p *Pool)
}

func (d *probeDispatcher) Start(p *Pool) error {
	if err := p.Add(0, d.be, p.cfg.Seed); err != nil {
		return err
	}
	if d.start != nil {
		d.start(p)
	}
	return nil
}

func (d *probeDispatcher) Dispatch(p *Pool, a Arrival) { p.Submit(0, a) }

func TestReplicaMatchesRun(t *testing.T) {
	// Driving one replica through an external dispatcher with the config's
	// own arrivals must reproduce Run's accounting: same scheduler, same
	// arrivals, same clock (only the noise stream starts fresh).
	cfg := tinyConfig(20, 24)
	want, err := Run(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Drive(cfg, &probeDispatcher{be: cpuBackend(tee.TDX())})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Aggregate(func(int) bool { return true })
	if got.Completed != want.Completed || got.TotalTokens != want.TotalTokens {
		t.Errorf("replica completed %d/%d tokens vs Run %d/%d",
			got.Completed, got.TotalTokens, want.Completed, want.TotalTokens)
	}
	if p.Offered() != 24 || p.reps[0].submitted != 24 || p.Outstanding(0) != 0 {
		t.Errorf("offered %d, submitted %d, outstanding %d", p.Offered(), p.reps[0].submitted, p.Outstanding(0))
	}
}

// sizingConfig is a llama2-7b load that needs five TDX replicas for 90%
// attainment under both least-loaded and prefix-affinity dispatch, so the
// sizing search fails several sizes before it passes.
func sizingConfig(t *testing.T) Config {
	return Config{
		Workload: trace.Workload{Model: mustLookup(t, "llama2-7b"), Kind: dtype.BF16, InputLen: 1024, OutputLen: 32},
		Rate:     6, Requests: 96, Seed: 1,
		Knobs: Knobs{PrefixGroups: 4, PrefixSharing: true},
	}
}

// TestSizeFleetForSLOMatchesLinearScan: the search picks the smallest
// passing size and returns that fleet's own report, or the "even N
// replicas miss" error when no size up to maxReplicas passes. The
// nonmonotone case's attainment under PrefixAffinity dips from 3 to 4
// replicas (0.4375, 0.3854), so a search that skips 3 returns a larger
// fleet than needed.
func TestSizeFleetForSLOMatchesLinearScan(t *testing.T) {
	be := cpuBackend(tee.TDX())
	impossible := sizingConfig(t)
	impossible.TTFTSLOSec = 1e-6
	dipping := sizingConfig(t)
	dipping.Rate = 8
	both := []LBPolicy{LeastLoaded, PrefixAffinity}
	cases := []struct {
		name     string
		cfg      Config
		policies []LBPolicy
		target   float64
		maxN     int
		want     int // the linear scan's size; 0 when none passes
	}{
		{"max1", sizingConfig(t), both, 0.9, 1, 0},
		{"max5", sizingConfig(t), both, 0.9, 5, 5},
		{"max6", sizingConfig(t), both, 0.9, 6, 5},
		{"max8", sizingConfig(t), both, 0.9, 8, 5},
		{"unreachable", impossible, both, 0.9, 8, 0},
		{"nonmonotone", dipping, []LBPolicy{PrefixAffinity}, 0.42, 8, 3},
	}
	for _, tc := range cases {
		for _, policy := range tc.policies {
			t.Run(tc.name+"/"+policy.String(), func(t *testing.T) {
				var linear *FleetReport
				for n := 1; n <= tc.maxN && linear == nil; n++ {
					fr, err := RunFleet(be, tc.cfg, FleetConfig{Replicas: n, Policy: policy})
					if err != nil {
						t.Fatal(err)
					}
					if fr.SLOAttainment() >= tc.target {
						linear = fr
					}
				}
				if linear == nil && tc.want != 0 || linear != nil && len(linear.PerReplica) != tc.want {
					t.Fatalf("linear scan no longer finds %d replicas; the config has drifted", tc.want)
				}
				n, fr, err := SizeFleetForSLO(be, tc.cfg, policy, tc.target, tc.maxN)
				if linear == nil {
					want := fmt.Sprintf("even %d replicas miss", tc.maxN)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("no size reaches the target, got %d replicas, err %v; want %q", n, err, want)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if n != len(linear.PerReplica) || !reflect.DeepEqual(fr, linear) {
					t.Errorf("search found %d replicas, linear scan %d", n, len(linear.PerReplica))
				}
			})
		}
	}
}

// TestSizeFleetForSLOUnobserved: candidate fleets are side-simulations, so
// an observer and clear-twin coster passed in see nothing and change
// nothing.
func TestSizeFleetForSLOUnobserved(t *testing.T) {
	be := cpuBackend(tee.TDX())
	cfg := sizingConfig(t)
	wantN, want, err := SizeFleetForSLO(be, cfg, LeastLoaded, 0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	tally := &eventTally{}
	cfg.Observer = tally
	if cfg.ClearCoster, err = NewClearStepCoster(be, cfg); err != nil {
		t.Fatal(err)
	}
	n, got, err := SizeFleetForSLO(be, cfg, LeastLoaded, 0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tally.byKind) != 0 {
		t.Errorf("sizing fed the caller's observer events %v", tally.byKind)
	}
	if n != wantN || !reflect.DeepEqual(got, want) {
		t.Errorf("observed sizing picked %d replicas, unobserved %d, or their reports differ", n, wantN)
	}
}

func TestMergeReportsMixedPlatforms(t *testing.T) {
	a := &Report{Platform: "TDX", Completed: 1, MakespanSec: 1,
		Requests: []RequestMetrics{{ID: 0, TTFT: 0.1, OutputTokens: 4, SLOMet: true}}}
	b := &Report{Platform: "cGPU", Completed: 2, MakespanSec: 2,
		Requests: []RequestMetrics{{ID: 1, TTFT: 0.2, OutputTokens: 4, SLOMet: true}}}
	agg := MergeReports(5, []*Report{a, b})
	if agg.Platform != "mixed" {
		t.Errorf("merged platform %q, want mixed", agg.Platform)
	}
	if agg.Completed != 3 || agg.OfferedRate != 5 || agg.MakespanSec != 2 {
		t.Errorf("merge totals wrong: %+v", agg)
	}
	same := MergeReports(5, []*Report{a, a})
	if same.Platform != "TDX" {
		t.Errorf("homogeneous merge platform %q, want TDX", same.Platform)
	}
}

// TestMergeReportsCountersAndQuantiles pins the full merge contract on
// synthetic reports: every counter — including the PR-5 swap/preemption
// fields — sums, the makespan takes the maximum, throughput figures are
// rederived from merged totals, and the quantiles are recomputed over the
// union of completed requests in replica order.
func TestMergeReportsCountersAndQuantiles(t *testing.T) {
	r1 := &Report{
		Platform: "tdx", Completed: 3, Dropped: 1, Unfinished: 1, Preemptions: 4,
		MakespanSec: 10, TotalTokens: 90,
		KVBlocksTotal: 100, PeakKVBlocksInUse: 60, KVBlocksInUseAtEnd: 2, KVBlocksCachedAtEnd: 5,
		PrefixCacheHitTokens: 32, PrefixCacheMissTokens: 64, EvictedBlocks: 3,
		SwapOuts: 2, SwapIns: 1, SwapPoolBlocks: 50, PeakSwapBlocksInUse: 20, SwapBlocksAtEnd: 4,
		GoodRequests: 2, GoodOutputTokens: 21, CompletedOutputTokens: 51,
		Requests: []RequestMetrics{
			{ID: 0, TTFT: 0.2, TPOT: 0.05, Latency: 1.0, OutputTokens: 20, SLOMet: true},
			{ID: 1, TTFT: 0.4, TPOT: 0.10, Latency: 2.0, OutputTokens: 30, SLOMet: false},
			{ID: 2, TTFT: 0.1, Latency: 0.5, OutputTokens: 1, SLOMet: true}, // single-token: no TPOT sample
		},
	}
	r2 := &Report{
		Platform: "tdx", Completed: 2, Unfinished: 2, Preemptions: 1,
		MakespanSec: 8, TotalTokens: 60,
		KVBlocksTotal: 100, PeakKVBlocksInUse: 40, KVBlocksInUseAtEnd: 1, KVBlocksCachedAtEnd: 7,
		PrefixCacheHitTokens: 8, PrefixCacheMissTokens: 16, EvictedBlocks: 2,
		SwapOuts: 3, SwapIns: 3, SwapPoolBlocks: 50, PeakSwapBlocksInUse: 30, SwapBlocksAtEnd: 0,
		GoodRequests: 1, GoodOutputTokens: 25, CompletedOutputTokens: 60,
		Requests: []RequestMetrics{
			{ID: 3, TTFT: 0.3, TPOT: 0.07, Latency: 1.5, OutputTokens: 25, SLOMet: true},
			{ID: 4, TTFT: 0.6, TPOT: 0.20, Latency: 3.0, OutputTokens: 35, SLOMet: false},
		},
	}
	agg := MergeReports(5, []*Report{r1, r2})

	intChecks := []struct {
		name      string
		got, want int
	}{
		{"Completed", agg.Completed, 5}, {"Dropped", agg.Dropped, 1}, {"Unfinished", agg.Unfinished, 3},
		{"Preemptions", agg.Preemptions, 5}, {"TotalTokens", agg.TotalTokens, 150},
		{"KVBlocksTotal", agg.KVBlocksTotal, 200}, {"PeakKVBlocksInUse", agg.PeakKVBlocksInUse, 100},
		{"KVBlocksInUseAtEnd", agg.KVBlocksInUseAtEnd, 3}, {"KVBlocksCachedAtEnd", agg.KVBlocksCachedAtEnd, 12},
		{"PrefixCacheHitTokens", agg.PrefixCacheHitTokens, 40}, {"PrefixCacheMissTokens", agg.PrefixCacheMissTokens, 80},
		{"EvictedBlocks", agg.EvictedBlocks, 5},
		{"SwapOuts", agg.SwapOuts, 5}, {"SwapIns", agg.SwapIns, 4},
		{"SwapPoolBlocks", agg.SwapPoolBlocks, 100}, {"PeakSwapBlocksInUse", agg.PeakSwapBlocksInUse, 50},
		{"SwapBlocksAtEnd", agg.SwapBlocksAtEnd, 4},
		{"GoodRequests", agg.GoodRequests, 3}, {"GoodOutputTokens", agg.GoodOutputTokens, 46},
		{"CompletedOutputTokens", agg.CompletedOutputTokens, 111},
	}
	for _, c := range intChecks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if agg.Platform != "tdx" || agg.OfferedRate != 5 {
		t.Errorf("platform/rate = %s/%g", agg.Platform, agg.OfferedRate)
	}
	if agg.MakespanSec != 10 {
		t.Errorf("makespan %g, want max 10", agg.MakespanSec)
	}
	if want := 150.0 / 10; agg.TokensPerSec != want {
		t.Errorf("TokensPerSec %g, want %g", agg.TokensPerSec, want)
	}
	// Goodput counts only SLO-met requests' tokens: 20 + 1 + 25.
	if want := 46.0 / 10; agg.GoodputTokensPerSec != want {
		t.Errorf("GoodputTokensPerSec %g, want %g", agg.GoodputTokensPerSec, want)
	}
	if want := 3.0 / 10; agg.GoodRequestsPerSec != want {
		t.Errorf("GoodRequestsPerSec %g, want %g", agg.GoodRequestsPerSec, want)
	}
	// Requests are the union in replica order; quantiles recompute over it.
	if len(agg.Requests) != 5 || agg.Requests[0].ID != 0 || agg.Requests[4].ID != 4 {
		t.Fatalf("merged requests misordered: %+v", agg.Requests)
	}
	wantTTFT := quantiles([]float64{0.2, 0.4, 0.1, 0.3, 0.6})
	wantTPOT := quantiles([]float64{0.05, 0.10, 0.07, 0.20}) // ID 2 excluded: single-token
	wantLat := quantiles([]float64{1.0, 2.0, 0.5, 1.5, 3.0})
	if agg.TTFT != wantTTFT || agg.TPOT != wantTPOT || agg.Latency != wantLat {
		t.Errorf("quantiles:\nTTFT %+v want %+v\nTPOT %+v want %+v\nLat %+v want %+v",
			agg.TTFT, wantTTFT, agg.TPOT, wantTPOT, agg.Latency, wantLat)
	}
}

// TestMergeReportsMatchesFleetRun cross-checks the synthetic contract
// against a real fleet: merging the per-replica reports must reproduce the
// aggregate RunFleet computed.
func TestMergeReportsMatchesFleetRun(t *testing.T) {
	cfg := tinyConfig(40, 32)
	cfg.PreemptPolicy = PreemptSwap
	fr, err := RunFleet(cpuBackend(tee.TDX()), cfg, FleetConfig{Replicas: 3, Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	// Undo RunFleet's per-replica offered-rate relabeling before re-merging:
	// MergeReports consumes scheduler-local reports.
	again := MergeReports(fr.Aggregate.OfferedRate, fr.PerReplica)
	again.OfferedRate = fr.Aggregate.OfferedRate
	if !reflect.DeepEqual(fr.Aggregate, again) {
		t.Fatalf("re-merge differs from fleet aggregate:\nfleet %+v\nmerge %+v", fr.Aggregate, again)
	}
}

// TestHourlyUSD pins the one rent rule: a GPU replica rents the
// confidential-GPU instance, a CPU replica every core of each socket it
// runs plus 128 GiB, and a topology sums its groups, a zero replica count
// defaulting to 1 as in Topology.Replicas. A backend without cores has no
// price.
func TestHourlyUSD(t *testing.T) {
	prices := cloud.DefaultPrices()
	gpu := Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU()}}
	oneSocket, twoSockets := cpuBackend(tee.TDX()), cpuBackend(tee.TDX())
	twoSockets.CPU.Sockets = 2
	topo := Topology{Groups: []RoleGroup{
		{Role: RolePrefill, Backend: gpu, Replicas: 2},
		{Role: RoleDecode, Backend: oneSocket},
	}}
	cores := hw.EMR1().CoresPerSocket
	for _, c := range []struct {
		name  string
		price func() (float64, error)
		vcpus int     // rented CPU vCPUs
		gpus  float64 // rented cGPU instances
	}{
		{"cgpu", gpu.HourlyUSD, 0, 1},
		{"one socket", oneSocket.HourlyUSD, cores, 0},
		{"two sockets", twoSockets.HourlyUSD, 2 * cores, 0},
		{"topology", topo.HourlyUSD, cores, 2},
	} {
		got, err := c.price()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := c.gpus * prices.CGPUHour
		if c.vcpus > 0 {
			cpu, err := prices.HourlyCost(cloud.CPUInstance{VCPUs: c.vcpus, MemGiB: 128})
			if err != nil {
				t.Fatal(err)
			}
			want += cpu
		}
		if got != want {
			t.Errorf("%s rents at %g/h, want %g/h", c.name, got, want)
		}
	}
	if _, err := (Topology{Groups: []RoleGroup{{Backend: Backend{}}}}).HourlyUSD(); err == nil {
		t.Error("a CPU backend without cores was priced")
	}
}
