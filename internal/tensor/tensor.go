// Package tensor provides dense float32 tensors and the reference
// implementations of the neural-network operators used throughout ASV:
// 2-D convolution, transposed convolution (deconvolution), 16-bit
// fixed-point convolution and the tanh activation.
//
// The implementations here favour clarity over speed: they are the ground
// truth against which the deconvolution transformation (package deconv) is
// verified, and the functional substrate for the accuracy experiments.
// Performance experiments never execute these loops; they use the analytic
// accelerator models.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major float32 tensor of arbitrary rank.
// The zero value is an empty tensor; use New to construct one.
type Tensor struct {
	shape  []int
	stride []int
	data   []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape:  append([]int(nil), shape...),
		data:   make([]float32, n),
		stride: strides(shape),
	}
	return t
}

func strides(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.stride[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// At3 returns element (c, y, x) of a rank-3 tensor without allocating.
func (t *Tensor) At3(c, y, x int) float32 {
	return t.data[c*t.stride[0]+y*t.stride[1]+x]
}

// Set3 assigns element (c, y, x) of a rank-3 tensor without allocating.
func (t *Tensor) Set3(v float32, c, y, x int) {
	t.data[c*t.stride[0]+y*t.stride[1]+x] = v
}

// At4 returns element (a, b, y, x) of a rank-4 tensor without allocating.
func (t *Tensor) At4(a, b, y, x int) float32 {
	return t.data[a*t.stride[0]+b*t.stride[1]+y*t.stride[2]+x]
}

// Set4 assigns element (a, b, y, x) of a rank-4 tensor without allocating.
func (t *Tensor) Set4(v float32, a, b, y, x int) {
	t.data[a*t.stride[0]+b*t.stride[1]+y*t.stride[2]+x] = v
}

// Apply replaces every element x with f(x) and returns t.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Scale multiplies every element by s and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging; large tensors are summarized.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 64 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%d elements]", len(t.data))
	}
	return b.String()
}
