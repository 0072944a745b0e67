// Package trace converts a model architecture and workload parameters
// (batch, beam, input/output lengths, datatype) into an operator-level
// workload description: FLOPs, weight/activation/KV-cache bytes and working
// sets per decoder-block layer. The operator names mirror the paper's
// per-block trace (Fig 7): input_layernorm, self_attn, mha_linear_add,
// post_attention_layernorm, linear_silu_mul, mlp_linear_add.
package trace

import (
	"fmt"

	"cllm/internal/dtype"
	"cllm/internal/model"
)

// Phase distinguishes prompt prefill from token-by-token decode.
type Phase int

const (
	// Prefill processes the whole prompt in one pass.
	Prefill Phase = iota
	// Decode generates one token per sequence per step.
	Decode
)

// String names the phase.
func (p Phase) String() string {
	if p == Prefill {
		return "prefill"
	}
	return "decode"
}

// OpKind identifies an operator class within a decoder block.
type OpKind int

// Operator kinds in block order, matching the paper's trace labels.
const (
	OpEmbedding OpKind = iota
	OpInputNorm
	OpSelfAttn
	OpMHALinearAdd
	OpPostNorm
	OpLinearSiluMul
	OpMLPLinearAdd
	OpFinalNormHead
)

var opNames = map[OpKind]string{
	OpEmbedding:     "embedding",
	OpInputNorm:     "input_layernorm",
	OpSelfAttn:      "self_attn",
	OpMHALinearAdd:  "mha_linear_add",
	OpPostNorm:      "post_attention_layernorm",
	OpLinearSiluMul: "linear_silu_mul",
	OpMLPLinearAdd:  "mlp_linear_add",
	OpFinalNormHead: "final_norm_head",
}

// String returns the paper's label for the operator.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operator instance with its resource demands.
type Op struct {
	Kind  OpKind
	Layer int // decoder layer index; -1 for embedding/head
	// FLOPs is the floating (or integer) operation count.
	FLOPs float64
	// WeightBytes is streamed model-weight traffic.
	WeightBytes float64
	// ActBytes is activation read+write traffic.
	ActBytes float64
	// KVBytes is KV-cache read+write traffic.
	KVBytes float64
	// WorkingSet is the bytes touched (for the TLB-reach model).
	WorkingSet float64
}

// Bytes returns total memory traffic of the op.
func (o Op) Bytes() float64 { return o.WeightBytes + o.ActBytes + o.KVBytes }

// Workload describes an inference configuration to trace.
type Workload struct {
	Model model.Config
	Kind  dtype.Kind
	// Batch is the number of user sequences.
	Batch int
	// Beam is the beam width (1 = greedy). Compute scales with Batch×Beam
	// while user-visible tokens scale with Batch, as the paper counts them.
	Beam int
	// InputLen is the prompt length in tokens.
	InputLen int
	// OutputLen is the number of generated tokens.
	OutputLen int
}

// Validate reports obviously inconsistent workloads.
func (w Workload) Validate() error {
	if err := w.Model.Validate(); err != nil {
		return err
	}
	switch {
	case w.Batch <= 0:
		return fmt.Errorf("trace: batch %d must be positive", w.Batch)
	case w.Beam <= 0:
		return fmt.Errorf("trace: beam %d must be positive", w.Beam)
	case w.InputLen <= 0 || w.OutputLen <= 0:
		return fmt.Errorf("trace: lengths %d/%d must be positive", w.InputLen, w.OutputLen)
	case w.InputLen+w.OutputLen > w.Model.ContextLen:
		return fmt.Errorf("trace: %d+%d exceeds context %d", w.InputLen, w.OutputLen, w.Model.ContextLen)
	}
	return nil
}

// Rows returns the number of sequence rows computed per step.
func (w Workload) Rows() int { return w.Batch * w.Beam }

// elemSize returns the weight element size in bytes for the datatype.
func (w Workload) elemSize() float64 { return float64(w.Kind.Size()) }

// kvElemSize returns the KV-cache element size; the inference state follows
// the compute datatype (the paper notes int8's smaller inference state).
func (w Workload) kvElemSize() float64 { return float64(w.Kind.Size()) }

// actElemSize returns activation element size (f32 for f32, else bf16 —
// int8 pipelines keep activations in 16-bit between quantized GEMMs).
func (w Workload) actElemSize() float64 {
	if w.Kind == dtype.F32 {
		return 4
	}
	return 2
}

// BlockOps is the number of operators in one decoder block.
const BlockOps = 6

// StepTrace is one inference step: the embedding, one decoder block
// repeated Layers times, and the final norm + LM head. Every layer of a
// step does identical work (the block's demands depend on the step shape,
// never on the layer index), so the trace stores the block once and cost
// models price its BlockOps operators once per step instead of once per
// layer.
type StepTrace struct {
	Phase Phase
	// NewTokens is the number of user-visible tokens this step produces
	// (batch for decode) or consumes (batch×inputLen for prefill).
	NewTokens int
	// SharedBytes is the portion of the step's KV traffic that re-reads
	// pages shared across rows (prefix-cache sharing): it is real memory
	// bandwidth — each row's attention streams the shared prefix — but not
	// additional resident working set, so TLB-reach and enclave-paging
	// models must not count it twice. Serving schedulers set it from block
	// refcounts; single-request paths leave it zero.
	SharedBytes float64
	// Embed is the token-embedding lookup (Layer -1).
	Embed Op
	// Block is one decoder block's operators in the paper's order, with
	// Layer 0; every one of the Layers blocks has exactly these demands.
	Block [BlockOps]Op
	// Head is the final norm + LM head (Layer -1).
	Head Op
	// Layers is the number of decoder blocks the step runs.
	Layers int
}

// Ops returns the step's flat operator list in execution order: the
// embedding, Layers copies of the block numbered 0..Layers-1, the head.
func (s StepTrace) Ops() []Op {
	ops := make([]Op, 0, 2+BlockOps*s.Layers)
	ops = append(ops, s.Embed)
	for l := 0; l < s.Layers; l++ {
		for _, o := range s.Block {
			o.Layer = l
			ops = append(ops, o)
		}
	}
	return append(ops, s.Head)
}

// TotalFLOPs sums FLOPs over all ops, in execution order.
func (s StepTrace) TotalFLOPs() float64 {
	var block [BlockOps]float64
	for i := range s.Block {
		block[i] = s.Block[i].FLOPs
	}
	return layerSum(s.Embed.FLOPs, &block, s.Layers, s.Head.FLOPs)
}

// TotalBytes sums memory traffic over all ops, in execution order.
func (s StepTrace) TotalBytes() float64 {
	var block [BlockOps]float64
	for i := range s.Block {
		block[i] = s.Block[i].Bytes()
	}
	return layerSum(s.Embed.Bytes(), &block, s.Layers, s.Head.Bytes())
}

// layerSum adds per-op values in execution order — embed, the block's
// values once per layer, head — so the total rounds exactly as a walk over
// Ops() would.
func layerSum(embed float64, block *[BlockOps]float64, layers int, head float64) float64 {
	t := embed
	for l := 0; l < layers; l++ {
		for _, v := range block {
			t += v
		}
	}
	return t + head
}

// DecodeStep builds the operator trace of one decode step with ctxLen tokens
// of visible history per sequence row.
func DecodeStep(w Workload, ctxLen int) (StepTrace, error) {
	if err := w.Validate(); err != nil {
		return StepTrace{}, err
	}
	if ctxLen <= 0 || ctxLen > w.Model.ContextLen {
		return StepTrace{}, fmt.Errorf("trace: ctxLen %d out of range", ctxLen)
	}
	return buildStep(w, Decode, 1, ctxLen), nil
}

// PrefillStep builds the operator trace of the prompt pass.
func PrefillStep(w Workload) (StepTrace, error) {
	if err := w.Validate(); err != nil {
		return StepTrace{}, err
	}
	return buildStep(w, Prefill, w.InputLen, 0), nil
}

// PrefillChunkStep builds the operator trace of one chunked-prefill step:
// w.InputLen new prompt tokens per row computed on top of hist tokens whose
// KV entries already exist (earlier chunks, or blocks reused from a shared
// prefix cache). With hist == 0 it is exactly PrefillStep. Chunk tokens
// attend to the full cached history, so attention FLOPs and KV read traffic
// grow with hist while projection/MLP work scales only with the chunk —
// this is what makes late chunks of a long prompt more memory-bound than
// early ones, and what a prefix-cache hit avoids entirely.
func PrefillChunkStep(w Workload, hist int) (StepTrace, error) {
	if err := w.Validate(); err != nil {
		return StepTrace{}, err
	}
	if hist < 0 || hist+w.InputLen > w.Model.ContextLen {
		return StepTrace{}, fmt.Errorf("trace: chunk history %d + chunk %d outside context %d",
			hist, w.InputLen, w.Model.ContextLen)
	}
	return buildStep(w, Prefill, w.InputLen, hist), nil
}

// buildStep constructs the trace for processing `chunk` new tokens per row
// on top of `hist` cached tokens.
func buildStep(w Workload, phase Phase, chunk, hist int) StepTrace {
	cfg := w.Model
	h := float64(cfg.HiddenDim)
	f := float64(cfg.FFDim)
	v := float64(cfg.VocabSize)
	kvd := float64(cfg.KVDim())
	rows := float64(w.Rows())
	n := rows * float64(chunk) // token-rows processed this step
	elem := w.elemSize()
	act := w.actElemSize()
	kvElem := w.kvElemSize()

	// Attention span: decode sees hist+1; prefill token i of a chunk sees
	// hist+i+1 — sum over the chunk gives chunk*hist + chunk*(chunk+1)/2 per
	// row (hist is 0 for a monolithic prompt pass).
	var attnSpan float64 // total (row, position) pairs attended
	if phase == Decode {
		attnSpan = rows * float64(hist+1)
	} else {
		attnSpan = rows * float64(chunk) * (float64(hist) + float64(chunk+1)/2)
	}

	newTokens := w.Batch * chunk
	if phase == Decode {
		newTokens = w.Batch
	}

	hd := float64(cfg.HeadDim())
	heads := float64(cfg.Heads)
	normWS := n*h*act*2 + h*4
	// Self-attention: QKV projections + RoPE + scores + AV.
	qkvW := (h*h + 2*h*kvd) * elem
	scoreFlops := 2 * attnSpan * heads * hd // QK^T
	avFlops := 2 * attnSpan * heads * hd    // probs × V
	// KV-cache DRAM traffic. Decode re-reads the whole history once per
	// step; prefill attention is tiled (flash-attention style), so its
	// K/V blocks stay cache-resident and DRAM sees each entry ~twice. A
	// chunked-prefill step additionally streams the cached history K/V
	// once (the chunk's queries attend to it tile by tile).
	var kvTraffic float64
	if phase == Decode {
		kvTraffic = attnSpan*2*kvd*kvElem + n*2*kvd*kvElem
	} else {
		kvTraffic = 3*n*kvd*kvElem + rows*float64(hist)*2*kvd*kvElem
	}
	headRows := rows // the head runs on the last position of each row
	// One composite literal builds the trace straight into the result; field
	// by field assignment measured ~10% slower per coster miss (extra
	// copies of the ~0.5 KB value).
	return StepTrace{
		Phase: phase, NewTokens: newTokens, Layers: cfg.Layers,
		Embed: Op{
			Kind: OpEmbedding, Layer: -1,
			FLOPs:      n * h,
			ActBytes:   n * h * (4 + act), // f32 table read + activation write
			WorkingSet: v * h * 4,
		},
		Block: [BlockOps]Op{{
			Kind:       OpInputNorm,
			FLOPs:      5 * n * h,
			ActBytes:   2*n*h*act + h*4,
			WorkingSet: normWS,
		}, {
			Kind:        OpSelfAttn,
			FLOPs:       2*n*h*(h+2*kvd) + 6*n*h + scoreFlops + avFlops,
			WeightBytes: qkvW,
			ActBytes:    n * h * act * 4, // read input, write Q,K,V-sized activations
			KVBytes:     kvTraffic,
			WorkingSet:  qkvW + kvTraffic,
		}, {
			Kind:        OpMHALinearAdd,
			FLOPs:       2*n*h*h + n*h,
			WeightBytes: h * h * elem,
			ActBytes:    3 * n * h * act,
			WorkingSet:  h * h * elem,
		}, {
			Kind:       OpPostNorm,
			FLOPs:      5 * n * h,
			ActBytes:   2*n*h*act + h*4,
			WorkingSet: normWS,
		}, {
			Kind:        OpLinearSiluMul,
			FLOPs:       2*n*h*2*f + 6*n*f,
			WeightBytes: 2 * h * f * elem,
			ActBytes:    n*h*act + 3*n*f*act,
			WorkingSet:  2 * h * f * elem,
		}, {
			Kind:        OpMLPLinearAdd,
			FLOPs:       2*n*h*f + n*h,
			WeightBytes: h * f * elem,
			ActBytes:    n*f*act + 2*n*h*act,
			WorkingSet:  h * f * elem,
		}},
		Head: Op{ // final norm + LM head
			Kind: OpFinalNormHead, Layer: -1,
			FLOPs:       5*headRows*h + 2*headRows*h*v,
			WeightBytes: h * v * elem,
			ActBytes:    headRows * (h + v) * act,
			WorkingSet:  h * v * elem,
		},
	}
}

// KVSwapBytes returns the bytes one swap transfer of `tokens` KV-cache
// entries moves for a single sequence: every layer's K and V vectors for
// each token, at the inference-state element size. It is the payload of a
// swap-to-host preemption step — a bulk copy, not an operator trace: the
// transfer streams blocks sequentially, so it is costed against a copy
// bandwidth (perf.StepCoster.SwapTime), not the roofline.
func KVSwapBytes(w Workload, tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	return float64(tokens) * 2 * float64(w.Model.KVDim()) * w.kvElemSize() * float64(w.Model.Layers)
}

// KVCacheBytes returns the resident KV-cache size for the workload when all
// rows hold ctxLen tokens.
func KVCacheBytes(w Workload, ctxLen int) float64 {
	return float64(w.Rows()) * float64(ctxLen) * 2 * float64(w.Model.KVDim()) * w.kvElemSize() * float64(w.Model.Layers)
}

// WeightFootprint returns resident weight bytes at the workload's datatype.
func WeightFootprint(w Workload) float64 {
	return float64(w.Model.WeightBytes(w.Kind.Size()))
}
