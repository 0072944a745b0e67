// Package dtype implements the numeric datatypes used for confidential LLM
// inference: IEEE float32, bfloat16 (truncated float32, AMX-native), and
// int8 with absmax quantization. All conversions are implemented in software
// so the inference engine exercises the same datatype paths the paper's
// workloads do (bf16 and int8 on AMX, f32 on AVX).
package dtype

import (
	"fmt"
	"math"
)

// Kind identifies an inference datatype.
type Kind uint8

const (
	// F32 is IEEE-754 binary32.
	F32 Kind = iota
	// BF16 is bfloat16: the top 16 bits of a float32.
	BF16
	// I8 is signed 8-bit integer with a per-tensor or per-channel scale.
	I8
)

// String returns the conventional lowercase name used in the paper's plots.
func (k Kind) String() string {
	switch k {
	case F32:
		return "f32"
	case BF16:
		return "bf16"
	case I8:
		return "int8"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Size returns the storage size of one element in bytes.
func (k Kind) Size() int {
	switch k {
	case F32:
		return 4
	case BF16:
		return 2
	case I8:
		return 1
	default:
		return 0
	}
}

// Parse converts a name such as "bf16" into a Kind.
func Parse(s string) (Kind, error) {
	switch s {
	case "f32", "float32", "fp32":
		return F32, nil
	case "bf16", "bfloat16":
		return BF16, nil
	case "int8", "i8":
		return I8, nil
	}
	return F32, fmt.Errorf("dtype: unknown datatype %q", s)
}

// BFloat16 is a bfloat16 value stored as its 16-bit pattern.
type BFloat16 uint16

// ToBF16 converts a float32 to bfloat16 with round-to-nearest-even,
// matching the AMX/AVX512-BF16 hardware conversion.
func ToBF16(f float32) BFloat16 {
	bits := math.Float32bits(f)
	if f != f { // NaN: preserve quiet bit, avoid rounding into infinity.
		return BFloat16((bits >> 16) | 0x0040)
	}
	// Round to nearest even on the truncated 16 low bits.
	rounding := uint32(0x7FFF) + ((bits >> 16) & 1)
	bits += rounding
	return BFloat16(bits >> 16)
}

// Float32 converts back to float32 (exact: bf16 values are a subset of f32).
func (b BFloat16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// RoundBF16 rounds a float32 through bfloat16 precision and back. It is the
// element transform applied by a bf16 compute pipeline.
func RoundBF16(f float32) float32 { return ToBF16(f).Float32() }

// QuantizeAbsmax quantizes src into int8 using symmetric absmax scaling:
// scale = max|x| / 127. It returns the quantized values and the scale.
// A zero vector quantizes to zeros with scale 1 to keep dequantization exact.
func QuantizeAbsmax(src []float32) ([]int8, float32) {
	maxAbs := float32(0)
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return make([]int8, len(src)), 1
	}
	scale := maxAbs / 127
	out := make([]int8, len(src))
	inv := 1 / scale
	for i, v := range src {
		q := math.RoundToEven(float64(v * inv))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		out[i] = int8(q)
	}
	return out, scale
}

// QuantizePerChannel quantizes a row-major matrix of shape rows×cols with an
// independent absmax scale per row (per output channel), the scheme the
// paper's int8 models use. Returned scales has length rows.
func QuantizePerChannel(src []float32, rows, cols int) ([]int8, []float32, error) {
	if rows*cols != len(src) {
		return nil, nil, fmt.Errorf("dtype: shape %dx%d does not match %d values", rows, cols, len(src))
	}
	out := make([]int8, len(src))
	scales := make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		q, s := QuantizeAbsmax(row)
		copy(out[r*cols:(r+1)*cols], q)
		scales[r] = s
	}
	return out, scales, nil
}
