// Package tensor is a minimal dense float32 tensor library implementing the
// operators a Llama-family decoder needs: blocked matmul, softmax, RMSNorm,
// SiLU, rotary position embeddings, and reductions. It is deliberately
// simple and allocation-aware; correctness is checked against naive
// reference implementations in the tests.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a row-major dense float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data with a shape; the length must match.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: %v needs %d values, got %d", shape, n, len(data))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.Data) }

// At returns the element at the given indices (2-D only, convenience).
func (t *Tensor) At(i, j int) float32 {
	return t.Data[i*t.Shape[1]+j]
}

// Set writes the element at the given indices (2-D only).
func (t *Tensor) Set(i, j int, v float32) {
	t.Data[i*t.Shape[1]+j] = v
}

// Row returns row i of a 2-D tensor as a slice view.
func (t *Tensor) Row(i int) []float32 {
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// MatMulTransposed computes C = A×Bᵀ for A (m×k) and B (n×k). Weight
// matrices are stored row-major per output channel, so this is the natural
// layout for linear layers and attention scores.
func MatMulTransposed(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: MatMulTransposed requires 2-D operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMulTransposed inner dimensions %d and %d differ", k, k2)
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		ar := a.Data[i*k : (i+1)*k]
		cr := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var sum float32
			for kk := 0; kk < k; kk++ {
				sum += ar[kk] * br[kk]
			}
			cr[j] = sum
		}
	}
	return c, nil
}

// Add adds b element-wise into a (in place) and returns a.
func Add(a, b *Tensor) (*Tensor, error) {
	if len(a.Data) != len(b.Data) {
		return nil, fmt.Errorf("tensor: Add size mismatch %d vs %d", len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
	return a, nil
}

// Mul multiplies b element-wise into a (in place) and returns a.
func Mul(a, b *Tensor) (*Tensor, error) {
	if len(a.Data) != len(b.Data) {
		return nil, fmt.Errorf("tensor: Mul size mismatch %d vs %d", len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		a.Data[i] *= b.Data[i]
	}
	return a, nil
}

// SoftmaxInPlace applies a numerically-stable softmax to a vector in place.
func SoftmaxInPlace(row []float32) {
	if len(row) == 0 {
		return
	}
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range row {
		e := float32(math.Exp(float64(v - maxV)))
		row[i] = e
		sum += float64(e)
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// RMSNorm normalizes each row of x by its root-mean-square and multiplies by
// the gain vector, as Llama's layer norms do: y = x / rms(x) * g.
func RMSNorm(x *Tensor, gain []float32, eps float32) error {
	cols := x.Shape[len(x.Shape)-1]
	if len(gain) != cols {
		return fmt.Errorf("tensor: RMSNorm gain length %d != %d", len(gain), cols)
	}
	rows := len(x.Data) / cols
	for r := 0; r < rows; r++ {
		row := x.Data[r*cols : (r+1)*cols]
		var ss float64
		for _, v := range row {
			ss += float64(v) * float64(v)
		}
		inv := float32(1 / math.Sqrt(ss/float64(cols)+float64(eps)))
		for i := range row {
			row[i] = row[i] * inv * gain[i]
		}
	}
	return nil
}

// SiLU applies x*sigmoid(x) element-wise in place (Llama's MLP activation).
func SiLU(t *Tensor) {
	for i, v := range t.Data {
		t.Data[i] = v * sigmoid(v)
	}
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// RoPE applies rotary position embeddings in place to a (tokens × dim)
// tensor where each token sits at positions[i] and dim is even. theta is the
// base frequency (10000 for Llama2).
func RoPE(x *Tensor, positions []int, theta float64) error {
	if len(x.Shape) != 2 {
		return fmt.Errorf("tensor: RoPE requires 2-D input, got %v", x.Shape)
	}
	tokens, dim := x.Shape[0], x.Shape[1]
	if dim%2 != 0 {
		return fmt.Errorf("tensor: RoPE dimension %d must be even", dim)
	}
	if len(positions) != tokens {
		return fmt.Errorf("tensor: RoPE needs %d positions, got %d", tokens, len(positions))
	}
	half := dim / 2
	for t := 0; t < tokens; t++ {
		row := x.Data[t*dim : (t+1)*dim]
		pos := float64(positions[t])
		for i := 0; i < half; i++ {
			freq := math.Pow(theta, -2*float64(i)/float64(dim))
			angle := pos * freq
			sin, cos := math.Sincos(angle)
			a, b := row[2*i], row[2*i+1]
			row[2*i] = a*float32(cos) - b*float32(sin)
			row[2*i+1] = a*float32(sin) + b*float32(cos)
		}
	}
	return nil
}

// ArgMax returns the index of the largest element (first on ties).
func ArgMax(v []float32) int {
	best, bi := float32(math.Inf(-1)), -1
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// TopK returns the indices of the k largest elements in descending order.
// It is O(n·k), fine for the beam widths used here.
func TopK(v []float32, k int) []int {
	if k > len(v) {
		k = len(v)
	}
	out := make([]int, 0, k)
	used := make([]bool, len(v))
	for n := 0; n < k; n++ {
		best, bi := float32(math.Inf(-1)), -1
		for i, x := range v {
			if !used[i] && x > best {
				best, bi = x, i
			}
		}
		if bi < 0 {
			break
		}
		used[bi] = true
		out = append(out, bi)
	}
	return out
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float32) float32 {
	var sum float32
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// CosineSimilarity returns a·b / (|a||b|), or 0 when either norm is zero.
func CosineSimilarity(a, b []float32) float32 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float32(dot / math.Sqrt(na*nb))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
