package tensor

import "fmt"

// Convolution and deconvolution reference implementations.
//
// Layout conventions:
//
//	ifmap  [C, H, W]          weights [F, C, KH, KW]
//
// All operators compute cross-correlation (the deep-learning convention).
//
// Deconvolution follows the paper's formulation (Fig. 6): the ifmap is
// upsampled by inserting stride-1 zeros between neighbouring elements, the
// upsampled map is zero-padded by pad on every border, and the result is
// convolved ("valid") with the kernel. For the standard transposed-conv
// parameterisation with kernel k and transposed padding p, the equivalent
// border padding is k-1-p.

// ConvOut returns the output spatial extent of a convolution with the given
// input extent, kernel extent, stride and padding.
func ConvOut(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// DeconvOut returns the output spatial extent of a deconvolution (paper
// semantics: zero-insertion upsampling by stride, border padding pad, valid
// convolution with a kernel of extent k).
func DeconvOut(in, k, stride, pad int) int {
	return (in-1)*stride + 1 + 2*pad - k + 1
}

// Conv2D cross-correlates in [C,H,W] with w [F,C,KH,KW] and returns
// [F,OH,OW]. Zero padding pad is applied on all four borders.
func Conv2D(in, w *Tensor, stride, pad int) *Tensor {
	if in.Rank() != 3 || w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D wants ranks 3,4; got %d,%d", in.Rank(), w.Rank()))
	}
	c, h, wd := in.Dim(0), in.Dim(1), in.Dim(2)
	f, wc, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	if c != wc {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch ifmap=%d weights=%d", c, wc))
	}
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D non-positive output %dx%d", oh, ow))
	}
	out := New(f, oh, ow)
	for fi := 0; fi < f; fi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float64
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
							acc += float64(in.At3(ci, iy, ix)) * float64(w.At4(fi, ci, ky, kx))
						}
					}
				}
				out.Set3(float32(acc), fi, oy, ox)
			}
		}
	}
	return out
}

// Upsample2D inserts stride-1 zeros between neighbouring elements of each
// channel of in [C,H,W] and zero-pads the result by pad on all borders.
func Upsample2D(in *Tensor, stride, pad int) *Tensor {
	if in.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Upsample2D wants rank 3; got %d", in.Rank()))
	}
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	uh := (h-1)*stride + 1 + 2*pad
	uw := (w-1)*stride + 1 + 2*pad
	out := New(c, uh, uw)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out.Set3(in.At3(ci, y, x), ci, y*stride+pad, x*stride+pad)
			}
		}
	}
	return out
}

// Deconv2D is the reference deconvolution: upsample in [C,H,W] by stride
// with border padding pad, then valid-convolve with w [F,C,KH,KW].
// This is the "standard deconvolution" path of Fig. 6, including all the
// multiplications against inserted zeros.
func Deconv2D(in, w *Tensor, stride, pad int) *Tensor {
	up := Upsample2D(in, stride, pad)
	return Conv2D(up, w, 1, 0)
}
