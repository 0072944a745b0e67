// Package perf is the execution engine of the reproduction: it walks an
// operator trace (internal/trace) through a hardware description
// (internal/hw) and a TEE platform (internal/tee), producing per-token
// latency samples and end-to-end throughput. Every overhead the paper
// reports emerges here from mechanisms — roofline compute vs. memory time,
// TLB reach under the effective page policy, NUMA remote traffic over
// (possibly encrypted) UPI, EPC paging, enclave exits, kernel-launch and
// bounce-buffer costs — never from hard-coded percentages.
package perf

import (
	"fmt"

	"cllm/internal/hw"
	"cllm/internal/mem"
	"cllm/internal/sim"
	"cllm/internal/stats"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

// CPURun configures one CPU measurement.
type CPURun struct {
	CPU      hw.CPU
	Platform tee.Platform
	Workload trace.Workload
	// Sockets used (1 or 2).
	Sockets int
	// CoresPerSocket actually used; 0 = all.
	CoresPerSocket int
	// AMX enables the tile units (Fig 8 ablates this).
	AMX bool
	// BackendEfficiency is the framework factor (IPEX = 1, Fig 3).
	BackendEfficiency float64
	// Seed drives the noise model.
	Seed int64
}

// Result carries the measured series.
type Result struct {
	// TokenLatencies are per-decode-step seconds (one per output token),
	// after the harness-level noise model, before outlier filtering.
	TokenLatencies []float64
	// PrefillSec is the prompt-processing time.
	PrefillSec float64
	// TotalSec is prefill plus all decode steps.
	TotalSec float64
	// Tokens is the number of user-visible generated tokens.
	Tokens int
}

// filteredDecodeSec returns the decode-phase duration with the paper's
// Z>3 outlier exclusion applied (§III-D): rare memory-encryption stalls
// appear in the violin plots but are excluded from the reported statistics.
func (r *Result) filteredDecodeSec() float64 {
	if len(r.TokenLatencies) == 0 {
		return r.TotalSec - r.PrefillSec
	}
	kept, _ := stats.FilterZScore(r.TokenLatencies, 3)
	return stats.Mean(kept) * float64(len(r.TokenLatencies))
}

// Throughput returns generated tokens per second including the first-token
// (prefill) latency, as the paper's generation throughput does (Fig 12),
// after Z>3 outlier exclusion.
func (r *Result) Throughput() float64 {
	d := r.PrefillSec + r.filteredDecodeSec()
	if d <= 0 {
		return 0
	}
	return float64(r.Tokens) / d
}

// DecodeThroughput excludes prefill (steady-state tokens/s), after Z>3
// outlier exclusion.
func (r *Result) DecodeThroughput() float64 {
	d := r.filteredDecodeSec()
	if d <= 0 {
		return 0
	}
	return float64(r.Tokens) / d
}

// MeanTokenLatency returns the outlier-filtered mean next-token latency,
// replicating the paper's Z>3 filtering.
func (r *Result) MeanTokenLatency() float64 {
	kept, _ := stats.FilterZScore(r.TokenLatencies, 3)
	return stats.Mean(kept)
}

func (c *CPURun) normalize() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Sockets <= 0 {
		c.Sockets = 1
	}
	if c.Sockets > c.CPU.Sockets {
		return fmt.Errorf("perf: %d sockets requested, %s has %d", c.Sockets, c.CPU.Name, c.CPU.Sockets)
	}
	if c.CoresPerSocket <= 0 || c.CoresPerSocket > c.CPU.CoresPerSocket {
		c.CoresPerSocket = c.CPU.CoresPerSocket
	}
	if c.BackendEfficiency <= 0 {
		c.BackendEfficiency = 1
	}
	return nil
}

// RunCPU simulates the full generation (prefill + OutputLen decode steps).
func RunCPU(cfg CPURun) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return generate(cfg.Workload, NewNoise(false, cfg.Seed), cfg.Platform.Protected,
		func(st *trace.StepTrace) float64 { return cpuStepTime(&cfg, st) })
}

// NewNoise returns the device noise stream every measured path samples —
// the single-request runs, each serving replica and the RAG query timing.
// CPUs take the calibrated base and memory-encryption jitter plus the TEE
// outlier tail; GPUs jitter at half the base and a quarter of the TEE
// jitter, with no outliers (H100 leaves HBM clear).
func NewNoise(isGPU bool, seed int64) *sim.Noise {
	if isGPU {
		return sim.NewNoise(seed, hw.NoiseBase/2, hw.MemEncryptJitter/4, 0, 1)
	}
	return sim.NewNoise(seed, hw.NoiseBase, hw.MemEncryptJitter, hw.OutlierProb, hw.OutlierScale)
}

// generate is the generation loop RunCPU and RunGPU share: the prefill
// step, then OutputLen decode steps, each costed by stepTime. Only decode
// steps are jittered; TotalSec sums prefill then every decode step in turn.
func generate(w trace.Workload, noise *sim.Noise, protected bool, stepTime func(*trace.StepTrace) float64) (*Result, error) {
	pre, err := trace.PrefillStep(w)
	if err != nil {
		return nil, err
	}
	res := &Result{PrefillSec: stepTime(&pre)}
	res.TotalSec = res.PrefillSec
	for i := 0; i < w.OutputLen; i++ {
		st, err := trace.DecodeStep(w, w.InputLen+i)
		if err != nil {
			return nil, err
		}
		t := noise.Sample(stepTime(&st), protected)
		res.TokenLatencies = append(res.TokenLatencies, t)
		res.TotalSec += t
		res.Tokens += st.NewTokens
	}
	return res, nil
}

// effectiveMemBW returns the DRAM bandwidth the run can actually use: the
// socket bandwidth degraded by memory encryption, capped by per-core
// achievable bandwidth (why Fig 12's throughput plateaus near 32 cores).
func effectiveMemBW(cfg *CPURun) float64 {
	perSocket := cfg.CPU.MemBWPerSocket * cfg.Platform.MemBWFactor
	coreCap := float64(cfg.CoresPerSocket) * PerCoreMemBW
	if coreCap < perSocket {
		perSocket = coreCap
	}
	eff := cfg.BackendEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	// Framework inefficiency wastes bandwidth too (extra copies, poor
	// layouts) — this is what separates HF from IPEX on the memory-bound
	// decode path (Fig 3).
	return perSocket * float64(cfg.Sockets) * eff
}

// PerCoreMemBW is the streaming bandwidth one core can sustain; it caps
// socket bandwidth until enough cores are used (~31 cores saturate a socket).
const PerCoreMemBW = 8e9

// spanFactor scales the NUMA policy's remote fraction by how much of a
// socket's memory the model occupies: a 7B model (14 GB) mostly lands on one
// node even with broken bindings, while a 70B model (140 GB) necessarily
// spans sockets, so placement failures hurt it fully (Fig 5 vs Fig 6).
func spanFactor(cfg *CPURun) float64 {
	foot := trace.WeightFootprint(cfg.Workload) +
		trace.KVCacheBytes(cfg.Workload, cfg.Workload.InputLen+cfg.Workload.OutputLen)
	half := 0.5 * float64(cfg.CPU.MemPerSocketBytes)
	f := foot / half
	if f < 0.5 {
		return 0.5
	}
	if f > 1 {
		return 1
	}
	return f
}

// cpuStepParams holds the step-level factors shared by every operator of
// one step: roofline inputs plus the TLB/EPC penalties derived from the
// step's resident working set. Computing them once lets each operator be
// costed by opTime without allocating.
type cpuStepParams struct {
	flops, bw, remote, upi float64
	tlb, epcFactor         float64
	perOp                  float64
}

func newCPUStepParams(cfg *CPURun, st *trace.StepTrace) cpuStepParams {
	p := cfg.Platform
	flops := cfg.CPU.SocketFlops(cfg.Workload.Kind, cfg.AMX, cfg.CoresPerSocket) * float64(cfg.Sockets) * cfg.BackendEfficiency
	if st.Phase == trace.Prefill {
		flops *= hw.CPUPrefillEfficiency
	}
	// Step-level working set drives TLB pressure: each step streams the
	// weights plus the KV cache, evicting translations continuously.
	// Cross-row re-reads of shared prefix pages (st.SharedBytes) are
	// bandwidth, not resident footprint — the pages are mapped once, so
	// they neither widen TLB reach demand nor page the enclave.
	ws := st.TotalBytes() - st.SharedBytes
	if ws < 0 {
		ws = 0
	}
	return cpuStepParams{
		flops:     flops,
		bw:        effectiveMemBW(cfg),
		remote:    mem.RemoteFraction(p.NUMA, cfg.Sockets) * spanFactor(cfg),
		upi:       cfg.CPU.UPIBandwidth * p.UPIFactor(),
		tlb:       mem.TLBPenalty(ws, p.Pages, cfg.CPU.DTLBEntries, p.PageWalkAmp),
		epcFactor: p.EPC.PagingPenalty(ws),
		perOp:     hw.CPUOpDispatchSec + p.PerOpCostSec,
	}
}

// opTime costs one operator under the step's shared factors.
func (sp cpuStepParams) opTime(op trace.Op) float64 {
	computeT := 0.0
	if sp.flops > 0 {
		computeT = op.FLOPs / sp.flops
	}
	bytes := op.Bytes()
	memT := bytes * (1 - sp.remote) / sp.bw
	if sp.remote > 0 && sp.upi > 0 {
		memT += bytes * sp.remote / sp.upi
	}
	memT *= (1 + sp.tlb) * sp.epcFactor
	opT := computeT
	if memT > opT {
		opT = memT
	}
	return opT + sp.perOp
}

// blockTimes costs each decoder-block operator once; every layer of the
// step repeats these durations.
func (sp cpuStepParams) blockTimes(st *trace.StepTrace) [trace.BlockOps]float64 {
	var t [trace.BlockOps]float64
	for i, op := range st.Block {
		t[i] = sp.opTime(op)
	}
	return t
}

// cpuStepTime costs one step trace on the CPU configuration. It is the
// serving coster's miss path, so it evaluates opTime once per distinct
// operator (embedding, the BlockOps block operators, head) and adds the
// block's durations Layers times in execution order — the same sum, bit
// for bit, as costing every layer's operators in turn. The configuration
// and trace (~0.9 KB together) are passed by pointer so a miss does not
// copy them into every helper.
func cpuStepTime(cfg *CPURun, st *trace.StepTrace) float64 {
	p := cfg.Platform
	sp := newCPUStepParams(cfg, st)
	block := sp.blockTimes(st)
	total := sp.opTime(st.Embed)
	for l := 0; l < st.Layers; l++ {
		for _, t := range block {
			total += t
		}
	}
	total += sp.opTime(st.Head)
	// Per-sequence framework overhead (sampling, cache management).
	total += hw.CPUPerSeqStepCost * float64(cfg.Workload.Rows())
	// Enclave exits (SGX): per user-visible token this step produces.
	total += p.ExitCostSec * p.ExitsPerToken * float64(st.NewTokens)
	// Virtualization tax applies to wall-clock (vCPU scheduling, timers).
	total *= 1 + p.ComputeTax
	return total
}

// CPUStepTime exposes the per-step cost model: the modeled wall-clock
// duration of one step trace under the configuration, with defaults
// normalized. The serving scheduler composes steps dynamically (mixed
// prefill/decode batches whose shape changes every iteration) instead of
// running fixed generations, so it needs the step cost without the
// surrounding generation loop. The noise model is deliberately excluded —
// callers own jitter so one sample covers one scheduler iteration.
func CPUStepTime(cfg CPURun, st trace.StepTrace) (float64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	return cpuStepTime(&cfg, &st), nil
}

// GPUStepTime is CPUStepTime's GPU counterpart.
func GPUStepTime(cfg GPURun, st trace.StepTrace) (float64, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return 0, err
	}
	return gpuStepTime(&cfg, &st), nil
}

// CPUPrefillChunkTime costs one chunked-prefill step on the CPU
// configuration: cfg.Workload.InputLen new prompt tokens per row computed
// on top of hist cached tokens (earlier chunks or shared-prefix reuse).
// With hist == 0 it equals the monolithic prompt pass of the same length.
// It is the unmemoized reference StepCoster.ChunkTime is tested against.
func CPUPrefillChunkTime(cfg CPURun, hist int) (float64, error) {
	if err := cfg.normalize(); err != nil {
		return 0, err
	}
	st, err := trace.PrefillChunkStep(cfg.Workload, hist)
	if err != nil {
		return 0, err
	}
	return cpuStepTime(&cfg, &st), nil
}

// OpCost is an operator-kind duration aggregate (Fig 7).
type OpCost struct {
	Kind    trace.OpKind
	Seconds float64
}

// DecoderBlockBreakdown returns the per-decoder-block duration of each
// operator kind for one decode step (total across layers divided by the
// layer count), reproducing the paper's per-block trace.
func DecoderBlockBreakdown(cfg CPURun, ctxLen int) ([]OpCost, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	st, err := trace.DecodeStep(cfg.Workload, ctxLen)
	if err != nil {
		return nil, err
	}
	sp := newCPUStepParams(&cfg, &st)
	block := sp.blockTimes(&st)
	layers := float64(st.Layers)
	out := make([]OpCost, 0, trace.BlockOps)
	for i, op := range st.Block {
		// Total the kind across layers by repeated addition (which rounds
		// as a per-layer walk does, unlike one multiply), then average it
		// back to one block.
		t := block[i] * (1 + cfg.Platform.ComputeTax)
		var sum float64
		for l := 0; l < st.Layers; l++ {
			sum += t
		}
		out = append(out, OpCost{Kind: op.Kind, Seconds: sum / layers})
	}
	return out, nil
}

// GPURun configures one GPU measurement.
type GPURun struct {
	GPU      hw.GPU
	Platform tee.Platform
	Workload trace.Workload
	Seed     int64
}

// RunGPU simulates generation on the (c)GPU.
func RunGPU(cfg GPURun) (*Result, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if fit := float64(cfg.GPU.HBMBytes); trace.WeightFootprint(cfg.Workload)+trace.KVCacheBytes(cfg.Workload, cfg.Workload.InputLen+cfg.Workload.OutputLen) > fit {
		return nil, fmt.Errorf("perf: workload does not fit in %s HBM (%d bytes)", cfg.GPU.Name, cfg.GPU.HBMBytes)
	}
	return generate(cfg.Workload, NewNoise(true, cfg.Seed), cfg.Platform.Protected,
		func(st *trace.StepTrace) float64 { return gpuStepTime(&cfg, st) })
}

// gpuStepTime costs one step on the GPU: roofline over tensor cores and HBM,
// plus kernel-launch and host-transfer costs — the cGPU's only overheads
// (H100 does not encrypt HBM, so no memory-path cost, §V-A).
func gpuStepTime(cfg *GPURun, st *trace.StepTrace) float64 {
	g := cfg.GPU
	p := cfg.Platform

	var total float64
	launch := g.KernelLaunchSec + p.KernelLaunchExtraSec
	kernels := float64(cfg.Workload.Model.Layers*g.KernelsPerBlock + 4)
	total += kernels * launch

	computeT := st.TotalFLOPs() / g.TensorFlops
	// H100 leaves HBM unencrypted (MemBWFactor 1); the projected B100
	// encrypts it, paying on the memory-bound decode path.
	memT := st.TotalBytes() / (g.HBMBandwidth * p.MemBWFactor)
	if memT > computeT {
		total += memT
	} else {
		total += computeT
	}

	// Host traffic over (possibly bounce-buffered) PCIe: sampled token IDs
	// out, next token IDs in, plus the per-step command stream.
	hostBytes := float64(st.NewTokens)*8 + CommandStreamBytesPerStep
	if st.Phase == trace.Prefill {
		hostBytes += float64(st.NewTokens) * 4 // prompt upload
	}
	total += hostBytes / (g.PCIeBandwidth * p.PCIeBWFactor)
	total += hw.GPUPerSeqStepCost * float64(cfg.Workload.Rows())
	total += hw.GPUStepOverheadSec + p.StepExtraSec
	return total
}

// CommandStreamBytesPerStep approximates the encrypted command-buffer
// traffic per decode step on a cGPU.
const CommandStreamBytesPerStep = 192 << 10
