package dtype

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Reference dequantizers: the inverses the quantization tests check
// QuantizeAbsmax and QuantizePerChannel against.

// dequantize expands int8 values back to float32 with the given scale.
func dequantize(q []int8, scale float32) []float32 {
	out := make([]float32, len(q))
	for i, v := range q {
		out[i] = float32(v) * scale
	}
	return out
}

// dequantizePerChannel reverses QuantizePerChannel.
func dequantizePerChannel(q []int8, scales []float32, rows, cols int) ([]float32, error) {
	if rows*cols != len(q) || len(scales) != rows {
		return nil, fmt.Errorf("dtype: shape %dx%d does not match %d values / %d scales", rows, cols, len(q), len(scales))
	}
	out := make([]float32, len(q))
	for r := 0; r < rows; r++ {
		s := scales[r]
		for c := 0; c < cols; c++ {
			out[r*cols+c] = float32(q[r*cols+c]) * s
		}
	}
	return out, nil
}

// maxQuantError returns the worst-case absolute error bound of absmax int8
// quantization for inputs with the given maximum magnitude: scale/2.
func maxQuantError(maxAbs float32) float32 {
	if maxAbs == 0 {
		return 0
	}
	return maxAbs / 127 / 2
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{F32: "f32", BF16: "bf16", I8: "int8", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindSize(t *testing.T) {
	cases := map[Kind]int{F32: 4, BF16: 2, I8: 1, Kind(9): 0}
	for k, want := range cases {
		if got := k.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", k, got, want)
		}
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"f32", F32}, {"float32", F32}, {"fp32", F32},
		{"bf16", BF16}, {"bfloat16", BF16},
		{"int8", I8}, {"i8", I8},
	} {
		got, err := Parse(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("Parse(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := Parse("fp64"); err == nil {
		t.Error("Parse(fp64) succeeded, want error")
	}
}

func TestBF16ExactValues(t *testing.T) {
	// Values exactly representable in bf16 must round-trip unchanged.
	for _, f := range []float32{0, 1, -1, 0.5, 2, -3.5, 256, 1 << 30, -1.0 / (1 << 30)} {
		if got := RoundBF16(f); got != f {
			t.Errorf("RoundBF16(%g) = %g, want exact", f, got)
		}
	}
}

func TestBF16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := RoundBF16(inf); got != inf {
		t.Errorf("RoundBF16(+Inf) = %g", got)
	}
	if got := RoundBF16(-inf); got != -inf {
		t.Errorf("RoundBF16(-Inf) = %g", got)
	}
	nan := float32(math.NaN())
	if got := RoundBF16(nan); got == got {
		t.Errorf("RoundBF16(NaN) = %g, want NaN", got)
	}
}

func TestBF16RelativeError(t *testing.T) {
	// bf16 has 8 significand bits: relative error <= 2^-8 after rounding.
	if err := quick.Check(func(f float32) bool {
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			return true
		}
		if math.Abs(float64(f)) < 1e-30 || math.Abs(float64(f)) > 1e30 {
			return true // skip subnormal/overflow edge ranges
		}
		r := RoundBF16(f)
		rel := math.Abs(float64(r-f)) / math.Abs(float64(f))
		return rel <= 1.0/256
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBF16RoundNearestEven(t *testing.T) {
	// 1 + 2^-9 is exactly halfway between bf16(1.0) and bf16(1+2^-8):
	// round-to-nearest-even picks the even pattern, 1.0.
	f := float32(1.0 + 1.0/512)
	if got := RoundBF16(f); got != 1.0 {
		t.Errorf("RoundBF16(1+2^-9) = %g, want 1 (ties-to-even)", got)
	}
	// 1 + 3*2^-9 is halfway as well but the even neighbour is 1+2^-7... check
	// it rounds up to 1+2^-7 (pattern with LSB 0).
	f = float32(1.0 + 3.0/512)
	want := float32(1.0 + 1.0/128)
	if got := RoundBF16(f); got != want {
		t.Errorf("RoundBF16(1+3*2^-9) = %g, want %g", got, want)
	}
}

func TestQuantizeAbsmaxBasic(t *testing.T) {
	src := []float32{-1, -0.5, 0, 0.5, 1}
	q, scale := QuantizeAbsmax(src)
	if scale != float32(1.0/127) {
		t.Fatalf("scale = %g, want 1/127", scale)
	}
	want := []int8{-127, -64, 0, 64, 127}
	for i := range q {
		if q[i] != want[i] {
			t.Errorf("q[%d] = %d, want %d", i, q[i], want[i])
		}
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	q, scale := QuantizeAbsmax(make([]float32, 4))
	if scale != 1 {
		t.Errorf("zero-vector scale = %g, want 1", scale)
	}
	for i, v := range q {
		if v != 0 {
			t.Errorf("q[%d] = %d, want 0", i, v)
		}
	}
}

func TestQuantRoundTripErrorBound(t *testing.T) {
	if err := quick.Check(func(vals []float32) bool {
		clean := vals[:0:0]
		maxAbs := float32(0)
		for _, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e30 {
				continue
			}
			clean = append(clean, v)
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		q, scale := QuantizeAbsmax(clean)
		back := dequantize(q, scale)
		// Quantization error is at most scale/2 (+ float rounding slack).
		bound := float64(maxQuantError(maxAbs))*1.0001 + 1e-12
		for i := range clean {
			if math.Abs(float64(back[i]-clean[i])) > bound {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPerChannelShapes(t *testing.T) {
	src := []float32{1, 2, 3, 100, 200, 300}
	q, scales, err := QuantizePerChannel(src, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scales) != 2 {
		t.Fatalf("len(scales) = %d, want 2", len(scales))
	}
	// Per-channel: both rows should use their own scale so both reach 127.
	if q[2] != 127 || q[5] != 127 {
		t.Errorf("row maxima = %d, %d; want 127, 127", q[2], q[5])
	}
	back, err := dequantizePerChannel(q, scales, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		rel := math.Abs(float64(back[i]-src[i])) / math.Abs(float64(src[i]))
		if rel > 0.01 {
			t.Errorf("per-channel round trip [%d]: %g vs %g", i, back[i], src[i])
		}
	}
}

func TestPerChannelShapeErrors(t *testing.T) {
	if _, _, err := QuantizePerChannel([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Error("QuantizePerChannel with bad shape succeeded")
	}
}

func TestPerChannelBeatsPerTensor(t *testing.T) {
	// Rows with very different magnitudes: per-channel error must be smaller.
	src := []float32{0.001, 0.002, 0.003, 100, 200, 300}
	qc, sc, _ := QuantizePerChannel(src, 2, 3)
	backC, _ := dequantizePerChannel(qc, sc, 2, 3)
	qt, st := QuantizeAbsmax(src)
	backT := dequantize(qt, st)
	var errC, errT float64
	for i := range src {
		errC += math.Abs(float64(backC[i] - src[i]))
		errT += math.Abs(float64(backT[i] - src[i]))
	}
	if errC >= errT {
		t.Errorf("per-channel error %g >= per-tensor %g", errC, errT)
	}
}

func BenchmarkToBF16(b *testing.B) {
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(i)*0.37 - 700
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			_ = ToBF16(v)
		}
	}
}

func BenchmarkQuantizeAbsmax(b *testing.B) {
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(i)*0.37 - 700
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		QuantizeAbsmax(vals)
	}
}
