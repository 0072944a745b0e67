package perf

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/hw"
	"cllm/internal/mem"
	"cllm/internal/model"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

// This file freezes the op-by-op cost walk the model used before step
// traces became block-structured: build the flat operator list (embedding,
// Layers × six block operators, head), sum every operator's Bytes() for the
// resident working set, then call opTime once per operator. The production
// path costs the eight distinct operators once and repeats the block's
// durations per layer; the tests below hold it to these references with ==.

// refStep is a flat step trace: the operator list plus the step metadata
// the cost models read.
type refStep struct {
	phase     trace.Phase
	newTokens int
	shared    float64
	ops       []trace.Op
}

// refOps builds the flat operator list for `chunk` new tokens per row on
// top of `hist` cached tokens, one block per layer.
func refOps(w trace.Workload, phase trace.Phase, chunk, hist int) []trace.Op {
	cfg := w.Model
	h := float64(cfg.HiddenDim)
	f := float64(cfg.FFDim)
	v := float64(cfg.VocabSize)
	kvd := float64(cfg.KVDim())
	rows := float64(w.Rows())
	n := rows * float64(chunk)
	elem := float64(w.Kind.Size())
	act := 2.0
	if w.Kind == dtype.F32 {
		act = 4
	}
	kvElem := float64(w.Kind.Size())

	var attnSpan float64
	if phase == trace.Decode {
		attnSpan = rows * float64(hist+1)
	} else {
		attnSpan = rows * float64(chunk) * (float64(hist) + float64(chunk+1)/2)
	}

	ops := make([]trace.Op, 0, 2+6*cfg.Layers)
	ops = append(ops, trace.Op{
		Kind: trace.OpEmbedding, Layer: -1,
		FLOPs:      n * h,
		ActBytes:   n * h * (4 + act),
		WorkingSet: v * h * 4,
	})

	hd := float64(cfg.HeadDim())
	heads := float64(cfg.Heads)
	for l := 0; l < cfg.Layers; l++ {
		normWS := n*h*act*2 + h*4
		ops = append(ops, trace.Op{
			Kind: trace.OpInputNorm, Layer: l,
			FLOPs:      5 * n * h,
			ActBytes:   2*n*h*act + h*4,
			WorkingSet: normWS,
		})
		qkvW := (h*h + 2*h*kvd) * elem
		scoreFlops := 2 * attnSpan * heads * hd
		avFlops := 2 * attnSpan * heads * hd
		var kvTraffic float64
		if phase == trace.Decode {
			kvTraffic = attnSpan*2*kvd*kvElem + n*2*kvd*kvElem
		} else {
			kvTraffic = 3*n*kvd*kvElem + rows*float64(hist)*2*kvd*kvElem
		}
		ops = append(ops, trace.Op{
			Kind: trace.OpSelfAttn, Layer: l,
			FLOPs:       2*n*h*(h+2*kvd) + 6*n*h + scoreFlops + avFlops,
			WeightBytes: qkvW,
			ActBytes:    n * h * act * 4,
			KVBytes:     kvTraffic,
			WorkingSet:  qkvW + kvTraffic,
		})
		ops = append(ops, trace.Op{
			Kind: trace.OpMHALinearAdd, Layer: l,
			FLOPs:       2*n*h*h + n*h,
			WeightBytes: h * h * elem,
			ActBytes:    3 * n * h * act,
			WorkingSet:  h * h * elem,
		})
		ops = append(ops, trace.Op{
			Kind: trace.OpPostNorm, Layer: l,
			FLOPs:      5 * n * h,
			ActBytes:   2*n*h*act + h*4,
			WorkingSet: normWS,
		})
		ops = append(ops, trace.Op{
			Kind: trace.OpLinearSiluMul, Layer: l,
			FLOPs:       2*n*h*2*f + 6*n*f,
			WeightBytes: 2 * h * f * elem,
			ActBytes:    n*h*act + 3*n*f*act,
			WorkingSet:  2 * h * f * elem,
		})
		ops = append(ops, trace.Op{
			Kind: trace.OpMLPLinearAdd, Layer: l,
			FLOPs:       2*n*h*f + n*h,
			WeightBytes: h * f * elem,
			ActBytes:    n*f*act + 2*n*h*act,
			WorkingSet:  h * f * elem,
		})
	}

	headRows := rows
	return append(ops, trace.Op{
		Kind: trace.OpFinalNormHead, Layer: -1,
		FLOPs:       5*headRows*h + 2*headRows*h*v,
		WeightBytes: h * v * elem,
		ActBytes:    headRows * (h + v) * act,
		WorkingSet:  h * v * elem,
	})
}

func refTotalFLOPs(ops []trace.Op) float64 {
	var t float64
	for _, o := range ops {
		t += o.FLOPs
	}
	return t
}

func refTotalBytes(ops []trace.Op) float64 {
	var t float64
	for _, o := range ops {
		t += o.Bytes()
	}
	return t
}

// refWorkingSet is the resident working set the TLB and EPC models see.
func refWorkingSet(st refStep) float64 {
	ws := refTotalBytes(st.ops) - st.shared
	if ws < 0 {
		ws = 0
	}
	return ws
}

func refCPUStepParams(cfg CPURun, st refStep) cpuStepParams {
	p := cfg.Platform
	flops := cfg.CPU.SocketFlops(cfg.Workload.Kind, cfg.AMX, cfg.CoresPerSocket) * float64(cfg.Sockets) * cfg.BackendEfficiency
	if st.phase == trace.Prefill {
		flops *= hw.CPUPrefillEfficiency
	}
	ws := refWorkingSet(st)
	return cpuStepParams{
		flops:     flops,
		bw:        effectiveMemBW(&cfg),
		remote:    mem.RemoteFraction(p.NUMA, cfg.Sockets) * spanFactor(&cfg),
		upi:       cfg.CPU.UPIBandwidth * p.UPIFactor(),
		tlb:       mem.TLBPenalty(ws, p.Pages, cfg.CPU.DTLBEntries, p.PageWalkAmp),
		epcFactor: p.EPC.PagingPenalty(ws),
		perOp:     hw.CPUOpDispatchSec + p.PerOpCostSec,
	}
}

// refCPUStepTime costs a flat step on a normalized CPU configuration.
func refCPUStepTime(cfg CPURun, st refStep) float64 {
	p := cfg.Platform
	sp := refCPUStepParams(cfg, st)
	var total float64
	for _, op := range st.ops {
		total += sp.opTime(op)
	}
	total += hw.CPUPerSeqStepCost * float64(cfg.Workload.Rows())
	total += p.ExitCostSec * p.ExitsPerToken * float64(st.newTokens)
	total *= 1 + p.ComputeTax
	return total
}

// refGPUStepTime costs a flat step on the GPU configuration.
func refGPUStepTime(cfg GPURun, st refStep) float64 {
	g := cfg.GPU
	p := cfg.Platform

	var total float64
	launch := g.KernelLaunchSec + p.KernelLaunchExtraSec
	kernels := float64(cfg.Workload.Model.Layers*g.KernelsPerBlock + 4)
	total += kernels * launch

	computeT := refTotalFLOPs(st.ops) / g.TensorFlops
	memT := refTotalBytes(st.ops) / (g.HBMBandwidth * p.MemBWFactor)
	if memT > computeT {
		total += memT
	} else {
		total += computeT
	}

	hostBytes := float64(st.newTokens)*8 + CommandStreamBytesPerStep
	if st.phase == trace.Prefill {
		hostBytes += float64(st.newTokens) * 4
	}
	total += hostBytes / (g.PCIeBandwidth * p.PCIeBWFactor)
	total += hw.GPUPerSeqStepCost * float64(cfg.Workload.Rows())
	total += hw.GPUStepOverheadSec + p.StepExtraSec
	return total
}

// refBlockBreakdown is DecoderBlockBreakdown over the flat decode step at
// ctxLen, on a normalized CPU configuration.
func refBlockBreakdown(cfg CPURun, ctxLen int) []OpCost {
	st := refStep{phase: trace.Decode, newTokens: cfg.Workload.Batch,
		ops: refOps(cfg.Workload, trace.Decode, 1, ctxLen)}
	sp := refCPUStepParams(cfg, st)
	times := make([]float64, len(st.ops))
	for i, op := range st.ops {
		times[i] = sp.opTime(op)
	}
	agg := make(map[trace.OpKind]float64)
	for i, op := range st.ops {
		if op.Layer < 0 {
			continue
		}
		agg[op.Kind] += times[i] * (1 + cfg.Platform.ComputeTax)
	}
	order := []trace.OpKind{
		trace.OpInputNorm, trace.OpSelfAttn, trace.OpMHALinearAdd,
		trace.OpPostNorm, trace.OpLinearSiluMul, trace.OpMLPLinearAdd,
	}
	layers := float64(cfg.Workload.Model.Layers)
	out := make([]OpCost, 0, len(order))
	for _, k := range order {
		out = append(out, OpCost{Kind: k, Seconds: agg[k] / layers})
	}
	return out
}

// refShape is one randomized step shape on a model: decode (tokens is the
// context), a prefill chunk (tokens new on top of hist cached), or a
// monolithic prompt pass (tokens prompt length, beam rows per sequence).
type refShape struct {
	phase                     trace.Phase
	mono                      bool
	batch, beam, tokens, hist int
	sharedTokens              int
}

// refShapes draws two decode shapes (one with shared prefix tokens), two
// chunk shapes with cached history and one monolithic prefill.
func refShapes(rng *rand.Rand, m model.Config) []refShape {
	maxCtx := m.ContextLen - 1
	var out []refShape
	for i := 0; i < 2; i++ {
		s := refShape{phase: trace.Decode, batch: rng.Intn(32) + 1, beam: 1, tokens: rng.Intn(maxCtx) + 1}
		if i == 0 {
			s.sharedTokens = rng.Intn(s.batch*s.tokens) + 1
		}
		out = append(out, s)
	}
	for i := 0; i < 2; i++ {
		chunk := rng.Intn(min(1024, maxCtx/2)) + 1
		out = append(out, refShape{phase: trace.Prefill, batch: rng.Intn(16) + 1, beam: 1,
			tokens: chunk, hist: rng.Intn(maxCtx-chunk) + 1})
	}
	return append(out, refShape{phase: trace.Prefill, mono: true, batch: rng.Intn(4) + 1,
		beam: rng.Intn(2) + 1, tokens: rng.Intn(maxCtx-1) + 1})
}

// workload is the shape's step workload on the model template: the
// coster's query workload for decode and chunk steps, a generation with
// one output token for the monolithic pass.
func (s refShape) workload(tmpl trace.Workload) trace.Workload {
	return trace.Workload{Model: tmpl.Model, Kind: tmpl.Kind,
		Batch: s.batch, Beam: s.beam, InputLen: s.tokens, OutputLen: 1}
}

// ref returns the flat reference step and the production trace of the
// shape, with shared bytes installed on both.
func (s refShape) ref(t *testing.T, wl trace.Workload) (refStep, trace.StepTrace) {
	t.Helper()
	var (
		st  trace.StepTrace
		err error
		ref refStep
	)
	switch {
	case s.phase == trace.Decode:
		st, err = trace.DecodeStep(wl, s.tokens)
		ref = refStep{phase: trace.Decode, newTokens: wl.Batch, ops: refOps(wl, trace.Decode, 1, s.tokens)}
	case s.mono:
		st, err = trace.PrefillStep(wl)
		ref = refStep{phase: trace.Prefill, newTokens: wl.Batch * s.tokens, ops: refOps(wl, trace.Prefill, s.tokens, 0)}
	default:
		st, err = trace.PrefillChunkStep(wl, s.hist)
		ref = refStep{phase: trace.Prefill, newTokens: wl.Batch * s.tokens, ops: refOps(wl, trace.Prefill, s.tokens, s.hist)}
	}
	if err != nil {
		t.Fatal(err)
	}
	ref.shared = float64(s.sharedTokens) * float64(wl.Model.KVCacheBytesPerToken(wl.Kind.Size()))
	st.SharedBytes = ref.shared
	if got := st.Ops(); !slices.Equal(got, ref.ops) {
		t.Fatalf("%+v: Ops() differs from the flat reference trace", s)
	}
	if st.Phase != ref.phase || st.NewTokens != ref.newTokens {
		t.Fatalf("%+v: phase/tokens %v/%d, want %v/%d", s, st.Phase, st.NewTokens, ref.phase, ref.newTokens)
	}
	if st.TotalFLOPs() != refTotalFLOPs(ref.ops) || st.TotalBytes() != refTotalBytes(ref.ops) {
		t.Fatalf("%+v: step totals differ from the flat per-op sums", s)
	}
	return ref, st
}

// costerTwice queries the coster for the shape twice (miss, then hit) and
// requires both answers to equal want exactly.
func costerTwice(t *testing.T, c *StepCoster, s refShape, want float64) {
	t.Helper()
	if s.mono {
		return // the coster serves decode and chunk steps only
	}
	for pass := 0; pass < 2; pass++ {
		var got float64
		var err error
		if s.phase == trace.Decode {
			got, err = c.DecodeTime(s.batch, s.tokens, s.sharedTokens)
		} else {
			got, err = c.ChunkTime(s.batch, s.tokens, s.hist)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%+v pass %d: coster = %v, want exactly %v", s, pass, got, want)
		}
	}
}

// TestStepCostMatchesFrozenReference: every costing entry point — the
// coster's miss and hit, CPUStepTime, GPUStepTime, CPUPrefillChunkTime and
// DecoderBlockBreakdown — equals the frozen op-by-op walk bit for bit,
// across the whole model zoo (MHA, GQA, single-KV-head, a 6-layer encoder),
// all three datatypes, clear/TDX/SGX-with-EPC-paging CPUs and H100/cGPU,
// for decode with shared bytes, chunks with history and monolithic prefill.
func TestStepCostMatchesFrozenReference(t *testing.T) {
	sgx, err := tee.SGX(gramine.DefaultManifest("/models/w.bin", 8<<30, 64))
	if err != nil {
		t.Fatal(err)
	}
	cpuPlatforms := []tee.Platform{tee.Baremetal(), tee.TDX(), sgx}
	gpuPlatforms := []tee.Platform{tee.GPU(), tee.CGPU()}
	kinds := []dtype.Kind{dtype.F32, dtype.BF16, dtype.I8}
	zoo := model.Zoo()
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)

	rng := rand.New(rand.NewSource(23))
	paged := false
	for _, name := range names {
		for _, kind := range kinds {
			tmpl := trace.Workload{Model: zoo[name], Kind: kind}
			for _, p := range cpuPlatforms {
				cfg := CPURun{CPU: hw.EMR2(), Platform: p, Workload: tmpl,
					Sockets: rng.Intn(2) + 1, AMX: kind != dtype.F32}
				c, err := NewCPUStepCoster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range refShapes(rng, tmpl.Model) {
					run := cfg
					run.Workload = s.workload(tmpl)
					if err := run.normalize(); err != nil {
						t.Fatal(err)
					}
					ref, st := s.ref(t, run.Workload)
					want := refCPUStepTime(run, ref)
					paged = paged || p.EPC.PagingPenalty(refWorkingSet(ref)) > 1
					costerTwice(t, c, s, want)
					if got, err := CPUStepTime(run, st); err != nil || got != want {
						t.Fatalf("%s %v %s %+v: CPUStepTime = %v, %v; want exactly %v", name, kind, p.Name, s, got, err, want)
					}
					switch {
					case s.phase == trace.Decode:
						got, err := DecoderBlockBreakdown(run, s.tokens)
						if err != nil {
							t.Fatal(err)
						}
						if want := refBlockBreakdown(run, s.tokens); !slices.Equal(got, want) {
							t.Fatalf("%s %v %s %+v: DecoderBlockBreakdown = %v, want exactly %v", name, kind, p.Name, s, got, want)
						}
					case !s.mono:
						if got, err := CPUPrefillChunkTime(run, s.hist); err != nil || got != want {
							t.Fatalf("%s %v %s %+v: CPUPrefillChunkTime = %v, %v; want exactly %v", name, kind, p.Name, s, got, err, want)
						}
					}
				}
			}
			for _, p := range gpuPlatforms {
				cfg := GPURun{GPU: hw.H100NVL(), Platform: p, Workload: tmpl}
				c, err := NewGPUStepCoster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range refShapes(rng, tmpl.Model) {
					run := cfg
					run.Workload = s.workload(tmpl)
					ref, st := s.ref(t, run.Workload)
					want := refGPUStepTime(run, ref)
					costerTwice(t, c, s, want)
					if got, err := GPUStepTime(run, st); err != nil || got != want {
						t.Fatalf("%s %v %s %+v: GPUStepTime = %v, %v; want exactly %v", name, kind, p.Name, s, got, err, want)
					}
				}
			}
		}
	}
	if !paged {
		t.Fatal("no SGX shape paged the enclave; the EPC path went untested")
	}
}

// TestStepCosterMissAllocFree: building and costing one step shape — the
// coster's miss path without the memo insert — allocates nothing, on
// either backend, for decode and chunk steps.
func TestStepCosterMissAllocFree(t *testing.T) {
	cpu, err := NewCPUStepCoster(costerCPURun(t))
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := NewGPUStepCoster(GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU(),
		Workload: costerCPURun(t).Workload})
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	for _, c := range []*StepCoster{cpu, gpu} {
		decode := testing.AllocsPerRun(100, func() {
			v, err := c.decodeCost(8, 1500, 700)
			if err != nil {
				panic(err)
			}
			sink += v
		})
		chunk := testing.AllocsPerRun(100, func() {
			v, err := c.chunkCost(4, 512, 900)
			if err != nil {
				panic(err)
			}
			sink += v
		})
		if decode != 0 || chunk != 0 {
			t.Fatalf("gpu=%v: miss path allocates %v (decode) / %v (chunk) per step, want 0", c.isGPU, decode, chunk)
		}
	}
	if sink <= 0 {
		t.Fatal("costed nothing")
	}
}
