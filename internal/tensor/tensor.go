// Package tensor implements the dense tensor types that flow through the
// ML pipeline: FP32 and quantized INT8/UINT8 tensors with shapes and
// affine quantization parameters, as used by TFLite-style runtimes.
package tensor

import (
	"fmt"
	"math"
)

// DType identifies a tensor element type.
type DType int

// Supported element types.
const (
	Float32 DType = iota
	Int8
	UInt8
	Int32 // used for quantized bias and integer outputs
)

// String returns the conventional name of the type.
func (d DType) String() string {
	switch d {
	case Float32:
		return "fp32"
	case Int8:
		return "int8"
	case UInt8:
		return "uint8"
	case Int32:
		return "int32"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Size returns the element width in bytes.
func (d DType) Size() int {
	switch d {
	case Float32, Int32:
		return 4
	case Int8, UInt8:
		return 1
	default:
		panic("tensor: unknown dtype")
	}
}

// Shape is a tensor's dimension list, outermost first (e.g. NHWC).
type Shape []int

// Elems returns the total element count; an empty shape is a scalar (1).
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape", d))
		}
		n *= d
	}
	return n
}

// Equal reports whether two shapes match exactly.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// String renders the shape as "[a b c]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// QuantParams are the affine quantization parameters of a quantized
// tensor: real = scale * (q - zeroPoint).
type QuantParams struct {
	Scale     float64
	ZeroPoint int
}

// Quantize maps a real value to the quantized domain, rounding to nearest
// and saturating to the dtype's range.
func (q QuantParams) Quantize(x float64, d DType) int {
	if q.Scale == 0 {
		return q.ZeroPoint
	}
	v := int(math.Round(x/q.Scale)) + q.ZeroPoint
	lo, hi := dtypeRange(d)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Dequantize maps a quantized value back to the real domain.
func (q QuantParams) Dequantize(v int) float64 {
	return q.Scale * float64(v-q.ZeroPoint)
}

func dtypeRange(d DType) (int, int) {
	switch d {
	case Int8:
		return -128, 127
	case UInt8:
		return 0, 255
	case Int32:
		return math.MinInt32, math.MaxInt32
	default:
		panic("tensor: dtype has no integer range")
	}
}

// Tensor is a dense n-dimensional array. Exactly one of the backing
// slices is populated, matching DType.
type Tensor struct {
	Name  string
	Shape Shape
	DType DType
	Quant QuantParams // meaningful for Int8/UInt8

	F32 []float32
	I8  []int8
	U8  []uint8
	I32 []int32
}

// New allocates a zeroed tensor of the given type and shape.
func New(d DType, shape Shape) *Tensor {
	t := &Tensor{Shape: shape.Clone(), DType: d}
	n := shape.Elems()
	switch d {
	case Float32:
		t.F32 = make([]float32, n)
	case Int8:
		t.I8 = make([]int8, n)
	case UInt8:
		t.U8 = make([]uint8, n)
	case Int32:
		t.I32 = make([]int32, n)
	}
	return t
}

// NewQuant allocates a quantized tensor with parameters q.
func NewQuant(d DType, shape Shape, q QuantParams) *Tensor {
	t := New(d, shape)
	t.Quant = q
	return t
}

// Elems returns the element count.
func (t *Tensor) Elems() int { return t.Shape.Elems() }

// Bytes returns the storage footprint in bytes.
func (t *Tensor) Bytes() int { return t.Elems() * t.DType.Size() }

// At returns element i as a float64 in the *real* domain (dequantized for
// quantized tensors).
func (t *Tensor) At(i int) float64 {
	switch t.DType {
	case Float32:
		return float64(t.F32[i])
	case Int8:
		return t.Quant.Dequantize(int(t.I8[i]))
	case UInt8:
		return t.Quant.Dequantize(int(t.U8[i]))
	case Int32:
		return float64(t.I32[i])
	default:
		panic("tensor: unknown dtype")
	}
}

// RawAt returns element i in the stored (possibly quantized) domain.
func (t *Tensor) RawAt(i int) float64 {
	switch t.DType {
	case Float32:
		return float64(t.F32[i])
	case Int8:
		return float64(t.I8[i])
	case UInt8:
		return float64(t.U8[i])
	case Int32:
		return float64(t.I32[i])
	default:
		panic("tensor: unknown dtype")
	}
}

// Set stores a real-domain value at index i, quantizing if needed.
func (t *Tensor) Set(i int, x float64) {
	switch t.DType {
	case Float32:
		t.F32[i] = float32(x)
	case Int8:
		t.I8[i] = int8(t.Quant.Quantize(x, Int8))
	case UInt8:
		t.U8[i] = uint8(t.Quant.Quantize(x, UInt8))
	case Int32:
		t.I32[i] = int32(math.Round(x))
	default:
		panic("tensor: unknown dtype")
	}
}

// Fill sets every element to the real-domain value x.
func (t *Tensor) Fill(x float64) {
	for i, n := 0, t.Elems(); i < n; i++ {
		t.Set(i, x)
	}
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Name: t.Name, Shape: t.Shape.Clone(), DType: t.DType, Quant: t.Quant}
	switch t.DType {
	case Float32:
		out.F32 = append([]float32(nil), t.F32...)
	case Int8:
		out.I8 = append([]int8(nil), t.I8...)
	case UInt8:
		out.U8 = append([]uint8(nil), t.U8...)
	case Int32:
		out.I32 = append([]int32(nil), t.I32...)
	}
	return out
}

// String describes the tensor without dumping its contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%s %s %s)", t.Name, t.DType, t.Shape)
}

// ChooseQuantParams picks affine parameters covering [lo, hi] for dtype d,
// in the style of post-training quantization. The range is widened to
// include zero so that zero is exactly representable.
func ChooseQuantParams(lo, hi float64, d DType) QuantParams {
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		hi = lo + 1
	}
	qlo, qhi := dtypeRange(d)
	scale := (hi - lo) / float64(qhi-qlo)
	zp := qlo - int(math.Round(lo/scale))
	if zp < qlo {
		zp = qlo
	}
	if zp > qhi {
		zp = qhi
	}
	return QuantParams{Scale: scale, ZeroPoint: zp}
}

// QuantizeTensor converts an FP32 tensor to the quantized dtype d using
// parameters chosen from the tensor's observed range.
func QuantizeTensor(t *Tensor, d DType) *Tensor {
	if t.DType != Float32 {
		panic("tensor: QuantizeTensor requires an fp32 input")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range t.F32 {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if len(t.F32) == 0 {
		lo, hi = 0, 1
	}
	out := NewQuant(d, t.Shape, ChooseQuantParams(lo, hi, d))
	out.Name = t.Name
	for i, v := range t.F32 {
		out.Set(i, float64(v))
	}
	return out
}

// DequantizeTensor converts a quantized tensor to FP32.
func DequantizeTensor(t *Tensor) *Tensor {
	out := New(Float32, t.Shape)
	out.Name = t.Name
	for i := range out.F32 {
		out.F32[i] = float32(t.At(i))
	}
	return out
}
