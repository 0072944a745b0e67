package trace

import (
	"math"
	"testing"
	"testing/quick"

	"cllm/internal/dtype"
	"cllm/internal/model"
)

// arithmeticIntensity returns an op's FLOPs per byte moved.
func arithmeticIntensity(o Op) float64 {
	b := o.Bytes()
	if b == 0 {
		return 0
	}
	return o.FLOPs / b
}

// generationTrace returns the prefill step plus one decode step per output
// token, with the context growing as tokens are emitted.
func generationTrace(w Workload) ([]StepTrace, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	steps := make([]StepTrace, 0, w.OutputLen+1)
	pre, err := PrefillStep(w)
	if err != nil {
		return nil, err
	}
	steps = append(steps, pre)
	for i := 0; i < w.OutputLen; i++ {
		dec, err := DecodeStep(w, w.InputLen+i)
		if err != nil {
			return nil, err
		}
		steps = append(steps, dec)
	}
	return steps, nil
}

func wl(t *testing.T, name string, kind dtype.Kind, batch, beam, in, out int) Workload {
	t.Helper()
	cfg, err := model.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return Workload{Model: cfg, Kind: kind, Batch: batch, Beam: beam, InputLen: in, OutputLen: out}
}

func TestValidate(t *testing.T) {
	good := wl(t, "llama2-7b", dtype.BF16, 1, 1, 1024, 128)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Workload{
		{Model: good.Model, Kind: dtype.BF16, Batch: 0, Beam: 1, InputLen: 8, OutputLen: 8},
		{Model: good.Model, Kind: dtype.BF16, Batch: 1, Beam: 0, InputLen: 8, OutputLen: 8},
		{Model: good.Model, Kind: dtype.BF16, Batch: 1, Beam: 1, InputLen: 0, OutputLen: 8},
		{Model: good.Model, Kind: dtype.BF16, Batch: 1, Beam: 1, InputLen: 4000, OutputLen: 200},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad workload %d validated", i)
		}
	}
}

func TestDecodeFlopsApproxTwiceParams(t *testing.T) {
	// A decode step for one token must cost ≈ 2×params FLOPs (the standard
	// transformer estimate), within ~15% (attention span and head add a bit).
	w := wl(t, "llama2-7b", dtype.BF16, 1, 1, 128, 8)
	st, err := DecodeStep(w, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * float64(w.Model.ParamCount())
	got := st.TotalFLOPs()
	if got < want*0.85 || got > want*1.3 {
		t.Errorf("decode FLOPs = %.3g, want ≈ %.3g", got, want)
	}
}

func TestDecodeBytesDominatedByWeights(t *testing.T) {
	// Small-batch decode is memory-bound on weights: weight traffic must be
	// > 80% of all bytes for batch 1, short context.
	w := wl(t, "llama2-7b", dtype.BF16, 1, 1, 128, 8)
	st, _ := DecodeStep(w, 128)
	var weights float64
	for _, o := range st.Ops() {
		weights += o.WeightBytes
	}
	if frac := weights / st.TotalBytes(); frac < 0.8 {
		t.Errorf("weight fraction = %.2f, want > 0.8", frac)
	}
	// And roughly equal the model footprint at 2 bytes/weight.
	foot := WeightFootprint(w)
	if weights < foot*0.9 || weights > foot*1.1 {
		t.Errorf("weights traffic %.3g vs footprint %.3g", weights, foot)
	}
}

func TestKVTrafficGrowsWithContext(t *testing.T) {
	w := wl(t, "llama2-7b", dtype.BF16, 4, 1, 1024, 128)
	short, _ := DecodeStep(w, 64)
	long, _ := DecodeStep(w, 2048)
	kv := func(st StepTrace) float64 {
		var s float64
		for _, o := range st.Ops() {
			s += o.KVBytes
		}
		return s
	}
	if kv(long) <= kv(short)*16 {
		t.Errorf("KV bytes grew only %0.1fx for 32x context", kv(long)/kv(short))
	}
}

func TestInt8HalvesWeightTraffic(t *testing.T) {
	bf := wl(t, "llama2-13b", dtype.BF16, 1, 1, 128, 8)
	i8 := wl(t, "llama2-13b", dtype.I8, 1, 1, 128, 8)
	sb, _ := DecodeStep(bf, 128)
	si, _ := DecodeStep(i8, 128)
	wsum := func(st StepTrace) float64 {
		var s float64
		for _, o := range st.Ops() {
			s += o.WeightBytes
		}
		return s
	}
	ratio := wsum(sb) / wsum(si)
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("bf16/int8 weight traffic ratio = %.3f, want 2", ratio)
	}
}

func TestPrefillQuadraticAttention(t *testing.T) {
	// Prefill attention FLOPs grow ~quadratically with input length.
	attnFlops := func(in int) float64 {
		w := wl(t, "llama2-7b", dtype.BF16, 1, 1, in, 8)
		st, err := PrefillStep(w)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, o := range st.Ops() {
			if o.Kind == OpSelfAttn {
				s += o.FLOPs
			}
		}
		return s
	}
	f512, f1024, f2048 := attnFlops(512), attnFlops(1024), attnFlops(2048)
	// Projections are linear; the score/AV part is quadratic, so doubling
	// the input must grow FLOPs by more than 2x, and the growth ratio must
	// itself increase with length (positive curvature).
	r1 := f1024 / f512
	r2 := f2048 / f1024
	if r1 <= 2.02 {
		t.Errorf("prefill attention scaling 512→1024 = %.3fx, want > 2.02x", r1)
	}
	if r2 <= r1 {
		t.Errorf("attention growth not convex: %.3f then %.3f", r1, r2)
	}
}

func TestBeamScalesComputeNotTokens(t *testing.T) {
	w1 := wl(t, "llama2-7b", dtype.BF16, 2, 1, 128, 8)
	w4 := wl(t, "llama2-7b", dtype.BF16, 2, 4, 128, 8)
	s1, _ := DecodeStep(w1, 128)
	s4, _ := DecodeStep(w4, 128)
	if s1.NewTokens != s4.NewTokens {
		t.Errorf("beam changed token accounting: %d vs %d", s1.NewTokens, s4.NewTokens)
	}
	if s4.TotalFLOPs() < 3.5*s1.TotalFLOPs() {
		t.Errorf("beam 4 FLOPs only %.2fx of beam 1", s4.TotalFLOPs()/s1.TotalFLOPs())
	}
}

func TestGenerationTraceSteps(t *testing.T) {
	w := wl(t, "llama2-7b", dtype.BF16, 2, 1, 64, 16)
	steps, err := generationTrace(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 17 {
		t.Fatalf("steps = %d, want 17", len(steps))
	}
	if steps[0].Phase != Prefill {
		t.Error("first step not prefill")
	}
	if steps[0].NewTokens != 2*64 {
		t.Errorf("prefill tokens = %d", steps[0].NewTokens)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Phase != Decode || steps[i].NewTokens != 2 {
			t.Fatalf("step %d: phase %v tokens %d", i, steps[i].Phase, steps[i].NewTokens)
		}
	}
	// Later decode steps cost strictly more KV traffic than earlier ones.
	if steps[16].TotalBytes() <= steps[1].TotalBytes() {
		t.Error("decode cost did not grow with context")
	}
}

func TestOpOrderingMatchesPaperBlock(t *testing.T) {
	w := wl(t, "llama2-7b", dtype.BF16, 1, 1, 128, 8)
	st, _ := DecodeStep(w, 128)
	ops := st.Ops()
	if len(ops) != 2+BlockOps*w.Model.Layers {
		t.Fatalf("%d ops, want %d", len(ops), 2+BlockOps*w.Model.Layers)
	}
	wantBlock := []OpKind{OpInputNorm, OpSelfAttn, OpMHALinearAdd, OpPostNorm, OpLinearSiluMul, OpMLPLinearAdd}
	if ops[0].Kind != OpEmbedding {
		t.Fatal("trace does not start with embedding")
	}
	for l := 0; l < w.Model.Layers; l++ {
		for j, want := range wantBlock {
			got := ops[1+l*len(wantBlock)+j]
			if got.Kind != want || got.Layer != l {
				t.Fatalf("layer %d op %d = %v/%d, want %v/%d", l, j, got.Kind, got.Layer, want, l)
			}
		}
	}
	if last := ops[len(ops)-1]; last.Kind != OpFinalNormHead {
		t.Fatal("trace does not end with final norm/head")
	}
}

func TestNormsAreMemoryBound(t *testing.T) {
	w := wl(t, "llama2-7b", dtype.BF16, 4, 1, 1024, 128)
	st, _ := DecodeStep(w, 1024)
	for _, o := range st.Ops() {
		switch o.Kind {
		case OpInputNorm, OpPostNorm:
			if ai := arithmeticIntensity(o); ai > 4 {
				t.Errorf("%v arithmetic intensity %.1f, expected memory-bound (<4)", o.Kind, ai)
			}
		case OpLinearSiluMul:
			if ai := arithmeticIntensity(o); ai < 1 {
				t.Errorf("%v arithmetic intensity %.2f unexpectedly low", o.Kind, ai)
			}
		}
	}
}

func TestBatchRaisesArithmeticIntensity(t *testing.T) {
	// The central mechanism behind Insight 9: batching raises FLOPs/byte.
	ai := func(batch int) float64 {
		w := wl(t, "llama2-7b", dtype.BF16, batch, 1, 128, 8)
		st, _ := DecodeStep(w, 128)
		return st.TotalFLOPs() / st.TotalBytes()
	}
	if !(ai(64) > ai(8) && ai(8) > ai(1)) {
		t.Errorf("AI not monotone in batch: %v %v %v", ai(1), ai(8), ai(64))
	}
}

func TestKVCacheBytesFormula(t *testing.T) {
	w := wl(t, "llama2-7b", dtype.BF16, 2, 2, 128, 8)
	// 4 rows × 100 ctx × 2 × 4096 × 2 bytes × 32 layers.
	want := 4.0 * 100 * 2 * 4096 * 2 * 32
	if got := KVCacheBytes(w, 100); got != want {
		t.Errorf("KVCacheBytes = %g, want %g", got, want)
	}
}

func TestDecodeStepCtxValidation(t *testing.T) {
	w := wl(t, "llama2-7b", dtype.BF16, 1, 1, 128, 8)
	if _, err := DecodeStep(w, 0); err == nil {
		t.Error("ctxLen 0 accepted")
	}
	if _, err := DecodeStep(w, 1<<20); err == nil {
		t.Error("huge ctxLen accepted")
	}
}

func TestTraceFlopsMonotoneInModelSize(t *testing.T) {
	names := []string{"llama2-7b", "llama2-13b", "llama2-70b"}
	var prev float64
	for _, n := range names {
		w := wl(t, n, dtype.BF16, 1, 1, 128, 8)
		st, _ := DecodeStep(w, 128)
		if st.TotalFLOPs() <= prev {
			t.Fatalf("FLOPs not monotone at %s", n)
		}
		prev = st.TotalFLOPs()
	}
}

func TestWorkloadPropertyFlopsScaleWithRows(t *testing.T) {
	cfg, _ := model.Lookup("llama2-7b")
	if err := quick.Check(func(b, beam uint8) bool {
		batch := int(b%16) + 1
		bm := int(beam%4) + 1
		w := Workload{Model: cfg, Kind: dtype.BF16, Batch: batch, Beam: bm, InputLen: 64, OutputLen: 8}
		st, err := DecodeStep(w, 64)
		if err != nil {
			return false
		}
		base := Workload{Model: cfg, Kind: dtype.BF16, Batch: 1, Beam: 1, InputLen: 64, OutputLen: 8}
		bst, err := DecodeStep(base, 64)
		if err != nil {
			return false
		}
		// FLOPs scale linearly with rows (weights traffic does not).
		wantRatio := float64(batch * bm)
		ratio := st.TotalFLOPs() / bst.TotalFLOPs()
		return math.Abs(ratio-wantRatio)/wantRatio < 0.05
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestOpKindString(t *testing.T) {
	if OpSelfAttn.String() != "self_attn" {
		t.Errorf("OpSelfAttn = %q", OpSelfAttn.String())
	}
	if OpKind(99).String() == "" {
		t.Error("unknown OpKind produced empty string")
	}
	if Prefill.String() != "prefill" || Decode.String() != "decode" {
		t.Error("phase names wrong")
	}
}
