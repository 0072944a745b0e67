package perf

import (
	"fmt"

	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/trace"
)

// StepCoster is a memoized costing layer over CPUStepTime/GPUStepTime for
// the serving scheduler's hot loop. A continuous-batching simulation costs
// one decode step and up to one batched prefill-chunk step per iteration;
// sweeps (fleet sizing, autoscaling policy grids, repeated benchmark runs)
// re-cost the same step shapes millions of times. The coster keys each step
// by its shape — (batch, context, shared tokens) for decode, (batch, chunk
// tokens, history) for prefill chunks — and serves repeats from a table
// instead of rebuilding the step trace and walking the roofline. A miss
// builds the block-structured trace (trace.StepTrace: embedding, one
// decoder block, head) on the stack and costs its 8 distinct operators,
// adding the block's durations once per layer. Every shape is costed at its
// true value through the same code path as CPUStepTime/GPUStepTime, so
// results are bit-identical to the unmemoized model.
//
// A StepCoster is safe for concurrent use (the harness sweeps share one
// across their parallel cells). Each table is a costTable: a
// hit takes no lock and writes no shared memory, and only a miss's insert
// (which at most allocates a page of eight values) takes a mutex. Identical
// keys always memoize identical float64s, so sharing cannot perturb
// determinism.
type StepCoster struct {
	isGPU bool
	cpu   CPURun // normalized once; Workload swapped per query
	gpu   GPURun
	model trace.Workload // Model/Kind template for query workloads

	decode costTable
	chunk  costTable
	swap   costTable // keyed by a = token count
}

// NewCPUStepCoster builds a memoized step coster for a CPU deployment.
// cfg.Workload supplies the model and datatype; its batch/length fields are
// ignored (queries carry their own shapes).
func NewCPUStepCoster(cfg CPURun) (*StepCoster, error) {
	probe := cfg
	probe.Workload = queryWorkload(cfg.Workload, 1, 1)
	if err := probe.normalize(); err != nil {
		return nil, err
	}
	return &StepCoster{cpu: probe, model: probe.Workload}, nil
}

// NewGPUStepCoster builds a memoized step coster for a GPU deployment.
func NewGPUStepCoster(cfg GPURun) (*StepCoster, error) {
	probe := cfg
	probe.Workload = queryWorkload(cfg.Workload, 1, 1)
	if err := probe.Workload.Validate(); err != nil {
		return nil, err
	}
	return &StepCoster{isGPU: true, gpu: probe, model: probe.Workload}, nil
}

// CompatibleWith reports whether the coster's memo keys mean the same
// thing under the given model and datatype — the inputs that shape every
// cached value. Callers sharing a coster across runs must hold this
// invariant; the serving scheduler enforces it so a table built for one
// model can never silently price another.
func (c *StepCoster) CompatibleWith(m model.Config, kind dtype.Kind) bool {
	return c.model.Model == m && c.model.Kind == kind
}

// queryWorkload shapes one step's workload on the coster's model template.
func queryWorkload(tmpl trace.Workload, batch, inputLen int) trace.Workload {
	return trace.Workload{
		Model: tmpl.Model, Kind: tmpl.Kind,
		Batch: batch, Beam: 1, InputLen: inputLen, OutputLen: 1,
	}
}

// DecodeTime costs one decode step over a batch whose mean per-row context
// is meanCtx tokens, of which sharedTokens are repeat reads of shared
// prefix blocks (bandwidth, not resident working set). It mirrors the
// clamping the serving scheduler applies: context is held inside
// [1, ContextLen-1] so one more token always fits.
func (c *StepCoster) DecodeTime(batch, meanCtx, sharedTokens int) (float64, error) {
	if batch < 1 {
		return 0, fmt.Errorf("perf: decode batch %d must be positive", batch)
	}
	if meanCtx < 1 {
		meanCtx = 1
	}
	if max := c.model.Model.ContextLen - 1; meanCtx > max {
		meanCtx = max
	}
	if sharedTokens < 0 {
		sharedTokens = 0
	}
	key := costKey{batch: batch, a: meanCtx, b: sharedTokens}
	if t, ok := c.decode.get(key); ok {
		return t, nil
	}
	t, err := c.decodeCost(batch, meanCtx, sharedTokens)
	if err != nil {
		return 0, err
	}
	c.decode.put(key, t)
	return t, nil
}

// decodeCost is DecodeTime's miss path: build and cost one decode step
// shape, already clamped.
func (c *StepCoster) decodeCost(batch, ctx, sharedTokens int) (float64, error) {
	wl := queryWorkload(c.model, batch, ctx)
	st, err := trace.DecodeStep(wl, ctx)
	if err != nil {
		return 0, err
	}
	st.SharedBytes = float64(sharedTokens) * float64(wl.Model.KVCacheBytesPerToken(wl.Kind.Size()))
	return c.stepTime(wl, &st), nil
}

// ChunkTime costs one batched prefill-chunk step: batch rows each computing
// chunkTokens new prompt tokens on top of hist cached ones. Clamping
// mirrors the serving scheduler: chunk in [1, ContextLen-1], history in
// [0, ContextLen-1-chunk].
func (c *StepCoster) ChunkTime(batch, chunkTokens, hist int) (float64, error) {
	if batch < 1 {
		return 0, fmt.Errorf("perf: chunk batch %d must be positive", batch)
	}
	if chunkTokens < 1 {
		chunkTokens = 1
	}
	if max := c.model.Model.ContextLen - 1; chunkTokens > max {
		chunkTokens = max
	}
	if hist < 0 {
		hist = 0
	}
	if max := c.model.Model.ContextLen - 1 - chunkTokens; hist > max {
		hist = max
	}
	key := costKey{batch: batch, a: chunkTokens, b: hist}
	if t, ok := c.chunk.get(key); ok {
		return t, nil
	}
	t, err := c.chunkCost(batch, chunkTokens, hist)
	if err != nil {
		return 0, err
	}
	c.chunk.put(key, t)
	return t, nil
}

// chunkCost is ChunkTime's miss path: build and cost one prefill-chunk
// step shape, already clamped.
func (c *StepCoster) chunkCost(batch, chunkTokens, hist int) (float64, error) {
	wl := queryWorkload(c.model, batch, chunkTokens)
	st, err := trace.PrefillChunkStep(wl, hist)
	if err != nil {
		return 0, err
	}
	return c.stepTime(wl, &st), nil
}

// SwapTime costs moving `tokens` KV-cache entries of one sequence between
// the serving pool and the host swap pool — one direction of a
// swap-to-host preemption (swap-out) or its resume (swap-in). The payload
// is trace.KVSwapBytes; the rate is the platform's swap path: PCIe times
// the bounce-buffer factor on GPUs (cGPU's dominant cost), a DRAM memcpy
// behind the inline encryption engine on CPUs (near-native on TDX/SGX).
// Each transfer also pays one dispatch: a DMA setup / kernel launch on
// GPUs (encrypted command buffers under cGPU), an operator dispatch plus
// the TEE per-op cost on CPUs. Zero tokens cost exactly zero.
func (c *StepCoster) SwapTime(tokens int) (float64, error) {
	if tokens < 0 {
		return 0, fmt.Errorf("perf: swap of %d tokens", tokens)
	}
	if tokens == 0 {
		return 0, nil
	}
	key := costKey{a: tokens}
	if t, ok := c.swap.get(key); ok {
		return t, nil
	}
	bytes := trace.KVSwapBytes(c.model, tokens)
	var bw, setup float64
	if c.isGPU {
		p := c.gpu.Platform
		bw = c.gpu.GPU.PCIeBandwidth * p.SwapBWFactor(true)
		setup = c.gpu.GPU.KernelLaunchSec + p.KernelLaunchExtraSec
	} else {
		p := c.cpu.Platform
		bw = hw.HostSwapBytesPerSec * p.SwapBWFactor(false)
		setup = hw.CPUOpDispatchSec + p.PerOpCostSec
	}
	if bw <= 0 {
		return 0, fmt.Errorf("perf: swap bandwidth is zero on %s", c.model.Model.Name)
	}
	t := bytes/bw + setup
	c.swap.put(key, t)
	return t, nil
}

// Entries counts the costs memoized across the decode, chunk and swap
// tables — one per distinct shape priced since the tables last reset. Each
// count is read under its table's insert mutex; this is a diagnostic for
// tests and tools, not for the hot path.
func (c *StepCoster) Entries() int {
	return c.decode.entries() + c.chunk.entries() + c.swap.entries()
}

// stepTime routes one built step trace through the backend's cost model,
// with the query workload installed.
func (c *StepCoster) stepTime(wl trace.Workload, st *trace.StepTrace) float64 {
	if c.isGPU {
		cfg := c.gpu
		cfg.Workload = wl
		return gpuStepTime(&cfg, st)
	}
	cfg := c.cpu
	cfg.Workload = wl
	return cpuStepTime(&cfg, st)
}
