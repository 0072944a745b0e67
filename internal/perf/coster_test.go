package perf

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func costerCPURun(t *testing.T) CPURun {
	t.Helper()
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		t.Fatal(err)
	}
	return CPURun{
		CPU: hw.EMR1(), Platform: tee.TDX(), Sockets: 1, AMX: true,
		Workload: trace.Workload{Model: m, Kind: dtype.BF16},
	}
}

// exactDecodeTime reproduces the serving scheduler's pre-coster costing
// path verbatim: build the step trace, flag shared bytes, walk the
// roofline. The coster must match it bit for bit.
func exactDecodeTime(t *testing.T, cfg CPURun, batch, meanCtx, shared int) float64 {
	t.Helper()
	wl := trace.Workload{Model: cfg.Workload.Model, Kind: cfg.Workload.Kind,
		Batch: batch, Beam: 1, InputLen: meanCtx, OutputLen: 1}
	st, err := trace.DecodeStep(wl, meanCtx)
	if err != nil {
		t.Fatal(err)
	}
	st.SharedBytes = float64(shared) * float64(wl.Model.KVCacheBytesPerToken(wl.Kind.Size()))
	run := cfg
	run.Workload = wl
	got, err := CPUStepTime(run, st)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStepCosterExactAtBucketOne: the memoized coster is the identity over the unmemoized cost model — bit-identical float64s for
// randomized decode and chunk shapes, on first computation and on table
// hits.
func TestStepCosterExactAtBucketOne(t *testing.T) {
	cfg := costerCPURun(t)
	c, err := NewCPUStepCoster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		batch := rng.Intn(32) + 1
		ctx := rng.Intn(3500) + 1
		shared := 0
		if rng.Intn(2) == 0 {
			shared = rng.Intn(ctx)
		}
		want := exactDecodeTime(t, cfg, batch, ctx, shared)
		for pass := 0; pass < 2; pass++ { // miss then hit
			got, err := c.DecodeTime(batch, ctx, shared)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("DecodeTime(%d,%d,%d) pass %d = %v, want exactly %v", batch, ctx, shared, pass, got, want)
			}
		}
	}
	for i := 0; i < 200; i++ {
		batch := rng.Intn(16) + 1
		chunk := rng.Intn(1024) + 1
		hist := rng.Intn(1024)
		wl := trace.Workload{Model: cfg.Workload.Model, Kind: cfg.Workload.Kind,
			Batch: batch, Beam: 1, InputLen: chunk, OutputLen: 1}
		run := cfg
		run.Workload = wl
		want, err := CPUPrefillChunkTime(run, hist)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := c.ChunkTime(batch, chunk, hist)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("ChunkTime(%d,%d,%d) pass %d = %v, want exactly %v", batch, chunk, hist, pass, got, want)
			}
		}
	}
}

// TestStepCosterExactAtBucketOneGPU covers the GPU path's identity.
func TestStepCosterExactAtBucketOneGPU(t *testing.T) {
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		t.Fatal(err)
	}
	cfg := GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU(),
		Workload: trace.Workload{Model: m, Kind: dtype.BF16}}
	c, err := NewGPUStepCoster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		batch := rng.Intn(32) + 1
		ctx := rng.Intn(3500) + 1
		wl := trace.Workload{Model: m, Kind: dtype.BF16, Batch: batch, Beam: 1, InputLen: ctx, OutputLen: 1}
		st, err := trace.DecodeStep(wl, ctx)
		if err != nil {
			t.Fatal(err)
		}
		run := cfg
		run.Workload = wl
		want, err := GPUStepTime(run, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DecodeTime(batch, ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("GPU DecodeTime(%d,%d) = %v, want exactly %v", batch, ctx, got, want)
		}
	}
}

// TestStepCosterClampsLikeScheduler: out-of-range shapes are clamped the
// way the serving scheduler clamped them before costing.
func TestStepCosterClampsLikeScheduler(t *testing.T) {
	cfg := costerCPURun(t)
	c, err := NewCPUStepCoster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := c.DecodeTime(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := c.DecodeTime(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if low != one {
		t.Fatalf("ctx 0 should clamp to 1: %v vs %v", low, one)
	}
	maxCtx := cfg.Workload.Model.ContextLen - 1
	over, err := c.DecodeTime(2, maxCtx+500, 0)
	if err != nil {
		t.Fatal(err)
	}
	at, err := c.DecodeTime(2, maxCtx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if over != at {
		t.Fatalf("ctx past window should clamp to %d: %v vs %v", maxCtx, over, at)
	}
	if _, err := c.DecodeTime(0, 64, 0); err == nil {
		t.Fatal("batch 0 should error")
	}
}

// TestStepCosterConcurrentDeterministic: hammering one coster from many
// goroutines — decode shapes with shared prefix tokens, chunk shapes and swap
// sizes, enough distinct keys that every table grows while other workers
// read it — yields the same values a fresh serial coster computes: the memo
// can only return what the pure cost model produced.
func TestStepCosterConcurrentDeterministic(t *testing.T) {
	cfg := costerCPURun(t)
	shared, err := NewCPUStepCoster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewCPUStepCoster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type q struct {
		kind        int // 0 decode, 1 chunk, 2 swap
		batch, a, b int
	}
	cost := func(c *StepCoster, qq q) (float64, error) {
		switch qq.kind {
		case 0:
			return c.DecodeTime(qq.batch, qq.a, qq.b)
		case 1:
			return c.ChunkTime(qq.batch, qq.a, qq.b)
		}
		return c.SwapTime(qq.a)
	}
	queries := make([]q, 3000)
	rng := rand.New(rand.NewSource(17))
	for i := range queries {
		switch i % 3 {
		case 0:
			ctx := rng.Intn(1024) + 1
			queries[i] = q{0, rng.Intn(8) + 1, ctx, rng.Intn(ctx)}
		case 1:
			queries[i] = q{1, rng.Intn(4) + 1, rng.Intn(512) + 1, rng.Intn(1024)}
		default:
			queries[i] = q{2, 0, rng.Intn(4096) + 1, 0}
		}
	}
	var wg sync.WaitGroup
	got := make([][]float64, 8)
	for w := 0; w < len(got); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]float64, len(queries))
			// Each worker starts at its own offset, so inserts by some
			// workers overlap hits and growth seen by others.
			for n := range queries {
				i := (n + w*len(queries)/len(got)) % len(queries)
				v, err := cost(shared, queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = v
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, qq := range queries {
		want, err := cost(serial, qq)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if got[w][i] != want {
				t.Fatalf("worker %d query %+v: %v != serial %v", w, qq, got[w][i], want)
			}
		}
	}
	for name, tab := range map[string]*costTable{"decode": &shared.decode, "chunk": &shared.chunk, "swap": &shared.swap} {
		if n := len(tab.cur.Load().slot); n <= minCostSlots {
			t.Errorf("%s table never grew (%d slots)", name, n)
		}
	}
}

// TestStepCosterSwapTime: the transfer coster must match the hand-derived
// bandwidth formula exactly, memoize deterministically, cost zero tokens as
// exactly zero, and price the cGPU bounce-buffer path far above both the
// unprotected-GPU PCIe path and the CPU TEE memcpy path.
func TestStepCosterSwapTime(t *testing.T) {
	cpuCfg := costerCPURun(t)
	cpu, err := NewCPUStepCoster(cpuCfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.Workload{Model: cpuCfg.Workload.Model, Kind: cpuCfg.Workload.Kind}
	const tokens = 512
	want := trace.KVSwapBytes(wl, tokens)/(hw.HostSwapBytesPerSec*tee.TDX().SwapBWFactor(false)) +
		hw.CPUOpDispatchSec + tee.TDX().PerOpCostSec
	for pass := 0; pass < 2; pass++ { // miss then hit
		got, err := cpu.SwapTime(tokens)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("SwapTime(%d) pass %d = %v, want exactly %v", tokens, pass, got, want)
		}
	}
	if got, err := cpu.SwapTime(0); err != nil || got != 0 {
		t.Fatalf("SwapTime(0) = %v, %v; want exactly 0", got, err)
	}
	if _, err := cpu.SwapTime(-1); err == nil {
		t.Fatal("negative token count accepted")
	}

	gpuCfg := GPURun{GPU: hw.H100NVL(), Platform: tee.GPU(), Workload: wl}
	gpu, err := NewGPUStepCoster(gpuCfg)
	if err != nil {
		t.Fatal(err)
	}
	cgpuCfg := gpuCfg
	cgpuCfg.Platform = tee.CGPU()
	cgpu, err := NewGPUStepCoster(cgpuCfg)
	if err != nil {
		t.Fatal(err)
	}
	gT, err := gpu.SwapTime(tokens)
	if err != nil {
		t.Fatal(err)
	}
	cgT, err := cgpu.SwapTime(tokens)
	if err != nil {
		t.Fatal(err)
	}
	cT, err := cpu.SwapTime(tokens)
	if err != nil {
		t.Fatal(err)
	}
	// The bounce buffer throttles cGPU swaps well below the clear-PCIe GPU
	// path and the CPU TEE's near-native memcpy — the asymmetry the auto
	// policy exploits.
	if cgT < 8*gT || cgT < 3*cT {
		t.Fatalf("cGPU swap %.6fs should dwarf GPU %.6fs and CPU TEE %.6fs", cgT, gT, cT)
	}
}

// BenchmarkStepCosterMiss measures the coster's cold path: every op queries
// a shape no earlier op used, so each one builds and costs a step and
// inserts it into the memo (tables reset at maxCostEntries, as in a run).
func BenchmarkStepCosterMiss(b *testing.B) {
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		b.Fatal(err)
	}
	wl := trace.Workload{Model: m, Kind: dtype.BF16}
	cpu, err := NewCPUStepCoster(CPURun{CPU: hw.EMR1(), Platform: tee.TDX(), Sockets: 1, AMX: true, Workload: wl})
	if err != nil {
		b.Fatal(err)
	}
	gpu, err := NewGPUStepCoster(GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU(), Workload: wl})
	if err != nil {
		b.Fatal(err)
	}
	// Decode keys walk batch, then context, then shared tokens (distinct for
	// every i); chunk keys walk batch, then chunk size, then history
	// (distinct for the first ~29M ops).
	const batches, ctxs, chunks = 32, 4000, 512
	decode := func(c *StepCoster) func(i int) (float64, error) {
		return func(i int) (float64, error) {
			return c.DecodeTime(1+i%batches, 1+(i/batches)%ctxs, i/(batches*ctxs))
		}
	}
	cases := []struct {
		name string
		cost func(i int) (float64, error)
	}{
		{"cpu-decode", decode(cpu)},
		{"cpu-chunk", func(i int) (float64, error) {
			return cpu.ChunkTime(1+i%16, 1+(i/16)%chunks, (i/(16*chunks))%(m.ContextLen-1-chunks))
		}},
		{"gpu-decode", decode(gpu)},
	}
	for _, tc := range cases {
		next := 0 // keys used by this case's earlier calibration runs
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.cost(next + i); err != nil {
					b.Fatal(err)
				}
			}
			next += b.N
		})
	}
}

// costerHitKeys is a decode key stream shaped like a serving run's: a batch
// of 1–32 rows whose mean context steps by +1 each round, re-drawn every few
// dozen rounds as requests finish and join, with no shared tokens.
func costerHitKeys() []costKey {
	rng := rand.New(rand.NewSource(5))
	keys := make([]costKey, 1<<14)
	batch, ctx := 1, 200
	for i := range keys {
		if rng.Intn(32) == 0 {
			batch, ctx = rng.Intn(32)+1, rng.Intn(2000)+100
		}
		keys[i] = costKey{batch: batch, a: ctx}
		ctx++
	}
	return keys
}

// BenchmarkStepCosterHit measures the coster's hit path on a warmed table:
// serially, and from GOMAXPROCS goroutines sharing the table as parallel
// sweeps do.
func BenchmarkStepCosterHit(b *testing.B) {
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCPUStepCoster(CPURun{CPU: hw.EMR1(), Platform: tee.TDX(), Sockets: 1, AMX: true,
		Workload: trace.Workload{Model: m, Kind: dtype.BF16}})
	if err != nil {
		b.Fatal(err)
	}
	keys := costerHitKeys()
	for _, k := range keys {
		if _, err := c.DecodeTime(k.batch, k.a, k.b); err != nil {
			b.Fatal(err)
		}
	}
	mask := len(keys) - 1
	b.Run("serial", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			k := keys[i&mask]
			t, _ := c.DecodeTime(k.batch, k.a, k.b)
			sum += t
		}
		costSink = sum
	})
	b.Run("parallel", func(b *testing.B) {
		var start, hits atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			n := int64(0)
			for i := int(start.Add(int64(len(keys) / 8))); pb.Next(); i++ {
				k := keys[i&mask]
				if t, _ := c.DecodeTime(k.batch, k.a, k.b); t > 0 {
					n++
				}
			}
			hits.Add(n)
		})
		if hits.Load() != int64(b.N) {
			b.Fatalf("%d of %d lookups costed", hits.Load(), b.N)
		}
	})
}

var costSink float64

// TestStepCosterEntries: Entries counts one memoized cost per distinct shape
// across the three tables; repeats and clamped-equal shapes add none.
func TestStepCosterEntries(t *testing.T) {
	c, err := NewCPUStepCoster(costerCPURun(t))
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Entries(); n != 0 {
		t.Fatalf("fresh coster has %d entries", n)
	}
	for pass := 0; pass < 2; pass++ {
		for _, q := range [][3]int{{4, 100, 0}, {4, 101, 0}, {4, 100, 64}, {4, 0, 0}, {4, -5, 0}} {
			if _, err := c.DecodeTime(q[0], q[1], q[2]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.ChunkTime(2, 512, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SwapTime(256); err != nil {
			t.Fatal(err)
		}
	}
	// Decode contexts 0 and -5 both clamp to 1: four decode shapes.
	if n := c.Entries(); n != 6 {
		t.Fatalf("Entries = %d, want 4 decode + 1 chunk + 1 swap", n)
	}
}
