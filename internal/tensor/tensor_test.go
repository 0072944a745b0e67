package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const matmulBlock = 64

// matMul computes C = A×B for A (m×k) and B (k×n) into a new m×n tensor.
// The inner loops are blocked for cache locality. The model uses
// MatMulTransposed; this is the row-major reference it is checked against.
func matMul(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires 2-D operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dimensions %d and %d differ", k, k2)
	}
	c := New(m, n)
	for i0 := 0; i0 < m; i0 += matmulBlock {
		iMax := min(i0+matmulBlock, m)
		for k0 := 0; k0 < k; k0 += matmulBlock {
			kMax := min(k0+matmulBlock, k)
			for i := i0; i < iMax; i++ {
				ar := a.Data[i*k : (i+1)*k]
				cr := c.Data[i*n : (i+1)*n]
				for kk := k0; kk < kMax; kk++ {
					av := ar[kk]
					if av == 0 {
						continue
					}
					br := b.Data[kk*n : (kk+1)*n]
					for j := range br {
						cr[j] += av * br[j]
					}
				}
			}
		}
	}
	return c, nil
}

// scale multiplies every element by s in place and returns t.
func scale(t *Tensor, s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// softmaxRows applies a numerically-stable softmax to each row of a 2-D
// tensor in place.
func softmaxRows(t *Tensor) {
	rows, cols := t.Shape[0], t.Shape[1]
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		SoftmaxInPlace(row)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func almostEqual(a, b, tol float32) bool {
	return math.Abs(float64(a-b)) <= float64(tol)
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {65, 130, 33}, {128, 17, 96}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got, err := matMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMatMul(a, b)
		for i := range got.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("dims %v: C[%d] = %g, want %g", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransposedMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 13, 21)
	b := randTensor(rng, 21, 34) // B as k×n
	want, _ := matMul(a, b)
	// Build Bᵀ (n×k) and use MatMulTransposed.
	bt := New(34, 21)
	for i := 0; i < 21; i++ {
		for j := 0; j < 34; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	got, err := MatMulTransposed(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("C[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	if _, err := matMul(a, b); err == nil {
		t.Error("MatMul with mismatched inner dims succeeded")
	}
	if _, err := MatMulTransposed(a, b); err == nil {
		t.Error("MatMulTransposed with mismatched inner dims succeeded")
	}
	if _, err := matMul(New(2), New(2, 2)); err == nil {
		t.Error("MatMul with 1-D operand succeeded")
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Error("FromSlice with wrong length succeeded")
	}
	tt, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tt.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g, want 3", tt.At(1, 0))
	}
}

func TestSoftmaxProperties(t *testing.T) {
	if err := quick.Check(func(vals []float32) bool {
		row := make([]float32, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				continue
			}
			// Keep values in a sane range; softmax saturates beyond.
			if v > 50 {
				v = 50
			} else if v < -50 {
				v = -50
			}
			row = append(row, v)
		}
		if len(row) == 0 {
			return true
		}
		out := append([]float32(nil), row...)
		SoftmaxInPlace(out)
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{101, 102, 103, 104}
	SoftmaxInPlace(a)
	SoftmaxInPlace(b)
	for i := range a {
		if !almostEqual(a[i], b[i], 1e-6) {
			t.Errorf("shift invariance violated at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := New(2, 3)
	copy(m.Data, []float32{0, 0, 0, 1, 2, 3})
	softmaxRows(m)
	for j := 0; j < 3; j++ {
		if !almostEqual(m.At(0, j), 1.0/3, 1e-6) {
			t.Errorf("uniform row softmax[%d] = %g", j, m.At(0, j))
		}
	}
	if m.At(1, 2) <= m.At(1, 1) || m.At(1, 1) <= m.At(1, 0) {
		t.Error("softmax not monotone in logits")
	}
}

func TestRMSNorm(t *testing.T) {
	x := New(1, 4)
	copy(x.Data, []float32{2, 2, 2, 2})
	gain := []float32{1, 1, 1, 1}
	if err := RMSNorm(x, gain, 0); err != nil {
		t.Fatal(err)
	}
	// rms of (2,2,2,2) is 2, so output should be all ones.
	for i, v := range x.Data {
		if !almostEqual(v, 1, 1e-5) {
			t.Errorf("RMSNorm[%d] = %g, want 1", i, v)
		}
	}
	if err := RMSNorm(x, []float32{1}, 0); err == nil {
		t.Error("RMSNorm with wrong gain length succeeded")
	}
}

func TestRMSNormUnitRMS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randTensor(rng, 4, 32)
	gain := make([]float32, 32)
	for i := range gain {
		gain[i] = 1
	}
	if err := RMSNorm(x, gain, 0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		var ss float64
		for _, v := range x.Row(r) {
			ss += float64(v) * float64(v)
		}
		rms := math.Sqrt(ss / 32)
		if math.Abs(rms-1) > 1e-4 {
			t.Errorf("row %d rms = %g, want 1", r, rms)
		}
	}
}

func TestSiLU(t *testing.T) {
	x := New(1, 3)
	copy(x.Data, []float32{0, 10, -10})
	SiLU(x)
	if x.Data[0] != 0 {
		t.Errorf("SiLU(0) = %g", x.Data[0])
	}
	if !almostEqual(x.Data[1], 10, 1e-3) {
		t.Errorf("SiLU(10) = %g, want ~10", x.Data[1])
	}
	if !almostEqual(x.Data[2], 0, 1e-3) {
		t.Errorf("SiLU(-10) = %g, want ~0", x.Data[2])
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	// Rotations preserve the norm of each pair.
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 3, 8)
	orig := x.Clone()
	if err := RoPE(x, []int{0, 5, 100}, 10000); err != nil {
		t.Fatal(err)
	}
	for tok := 0; tok < 3; tok++ {
		for i := 0; i < 4; i++ {
			a0, b0 := orig.At(tok, 2*i), orig.At(tok, 2*i+1)
			a1, b1 := x.At(tok, 2*i), x.At(tok, 2*i+1)
			n0 := math.Hypot(float64(a0), float64(b0))
			n1 := math.Hypot(float64(a1), float64(b1))
			if math.Abs(n0-n1) > 1e-4 {
				t.Errorf("tok %d pair %d: norm %g -> %g", tok, i, n0, n1)
			}
		}
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randTensor(rng, 1, 16)
	orig := x.Clone()
	if err := RoPE(x, []int{0}, 10000); err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if !almostEqual(x.Data[i], orig.Data[i], 1e-6) {
			t.Errorf("RoPE at position 0 changed element %d", i)
		}
	}
}

func TestRoPEErrors(t *testing.T) {
	if err := RoPE(New(2, 3), []int{0, 1}, 10000); err == nil {
		t.Error("RoPE with odd dim succeeded")
	}
	if err := RoPE(New(2, 4), []int{0}, 10000); err == nil {
		t.Error("RoPE with wrong positions length succeeded")
	}
	if err := RoPE(New(2), []int{0, 1}, 10000); err == nil {
		t.Error("RoPE with 1-D input succeeded")
	}
}

func TestArgMaxTopK(t *testing.T) {
	v := []float32{3, 9, 1, 9, 5}
	if got := ArgMax(v); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first tie)", got)
	}
	top := TopK(v, 3)
	want := []int{1, 3, 4}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("TopK[%d] = %d, want %d", i, top[i], want[i])
		}
	}
	if got := TopK(v, 99); len(got) != len(v) {
		t.Errorf("TopK with k>len returned %d items", len(got))
	}
}

func TestAddMulScale(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	copy(a.Data, []float32{1, 2, 3, 4})
	copy(b.Data, []float32{10, 20, 30, 40})
	if _, err := Add(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Data[3] != 44 {
		t.Errorf("Add: a[3] = %g", a.Data[3])
	}
	if _, err := Mul(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Data[0] != 110 {
		t.Errorf("Mul: a[0] = %g", a.Data[0])
	}
	scale(a, 0.5)
	if a.Data[0] != 55 {
		t.Errorf("Scale: a[0] = %g", a.Data[0])
	}
	if _, err := Add(a, New(1)); err == nil {
		t.Error("Add with size mismatch succeeded")
	}
	if _, err := Mul(a, New(1)); err == nil {
		t.Error("Mul with size mismatch succeeded")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := CosineSimilarity(a, a); !almostEqual(got, 1, 1e-6) {
		t.Errorf("cos(a,a) = %g", got)
	}
	if got := CosineSimilarity(a, b); !almostEqual(got, 0, 1e-6) {
		t.Errorf("cos(a,b) = %g", got)
	}
	if got := CosineSimilarity(a, []float32{0, 0}); got != 0 {
		t.Errorf("cos with zero vector = %g", got)
	}
	if got := Dot(a, []float32{3, 7}); got != 3 {
		t.Errorf("Dot = %g", got)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randTensor(rng, 128, 128)
	y := randTensor(rng, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := matMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulTransposed128(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randTensor(rng, 128, 128)
	y := randTensor(rng, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulTransposed(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
