package tensor

import (
	"fmt"
	"math"
)

// 16-bit fixed-point arithmetic, matching the ASV PE datapath (Sec. 5.2):
// each PE takes two 16-bit fixed-point operands and accumulates into a
// 32-bit register. The functions here quantize tensors, run convolution
// and SAD in integer arithmetic, and dequantize — used to show that the
// stereo pipeline survives the hardware's numeric format.

// Fixed is a dense int16 tensor with a power-of-two scale: the represented
// value of element q is q / 2^FracBits.
type Fixed struct {
	shape    []int
	stride   []int
	data     []int16
	FracBits uint
}

// MaxFracBits bounds the scale so the int32 accumulator of a PE cannot
// overflow on realistic layer sizes.
const MaxFracBits = 14

// Quantize converts t to fixed point with the given fractional bits,
// saturating values outside the representable range.
func Quantize(t *Tensor, fracBits uint) *Fixed {
	if fracBits > MaxFracBits {
		panic(fmt.Sprintf("tensor: fracBits %d > %d", fracBits, MaxFracBits))
	}
	f := &Fixed{
		shape:    append([]int(nil), t.shape...),
		stride:   strides(t.shape),
		data:     make([]int16, len(t.data)),
		FracBits: fracBits,
	}
	scale := float64(int64(1) << fracBits)
	for i, v := range t.data {
		q := math.Round(float64(v) * scale)
		if q > math.MaxInt16 {
			q = math.MaxInt16
		} else if q < math.MinInt16 {
			q = math.MinInt16
		}
		f.data[i] = int16(q)
	}
	return f
}

// Shape returns the dimensions.
func (f *Fixed) Shape() []int { return f.shape }

// Len returns the element count.
func (f *Fixed) Len() int { return len(f.data) }

// Data returns the raw int16 storage.
func (f *Fixed) Data() []int16 { return f.data }

// At3 returns element (c, y, x) of a rank-3 fixed tensor.
func (f *Fixed) At3(c, y, x int) int16 {
	return f.data[c*f.stride[0]+y*f.stride[1]+x]
}

// At4 returns element (a, b, y, x) of a rank-4 fixed tensor.
func (f *Fixed) At4(a, b, y, x int) int16 {
	return f.data[a*f.stride[0]+b*f.stride[1]+y*f.stride[2]+x]
}

// FixedConv2D cross-correlates a fixed-point ifmap [C,H,W] with fixed-point
// weights [F,C,KH,KW] exactly as the PE array does: 16-bit operands, 32-bit
// accumulation (64-bit here to detect, not hide, overflow — see the test
// suite), then dequantizes by the combined scale.
func FixedConv2D(in, w *Fixed, stride, pad int) *Tensor {
	if len(in.shape) != 3 || len(w.shape) != 4 {
		panic("tensor: FixedConv2D wants ranks 3,4")
	}
	c, h, wd := in.shape[0], in.shape[1], in.shape[2]
	fN, wc, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	if c != wc {
		panic("tensor: FixedConv2D channel mismatch")
	}
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(fN, oh, ow)
	invScale := 1 / float64(int64(1)<<(in.FracBits+w.FracBits))
	for fi := 0; fi < fN; fi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc int64
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= wd {
								continue
							}
							acc += int64(in.At3(ci, iy, ix)) * int64(w.At4(fi, ci, ky, kx))
						}
					}
				}
				out.Set3(float32(float64(acc)*invScale), fi, oy, ox)
			}
		}
	}
	return out
}
