package deconv

import (
	"fmt"
	"testing"

	"asv/internal/nn"
	"asv/internal/tensor"
	"asv/internal/testkit"
)

// The 3-D half of the Appendix A construction and the paper's redundancy
// figures, kept as test oracles: production schedules 3-D layers through
// Transform's shape accounting and never executes them.

// decompose3D splits a 3-D kernel w [F,C,KD,KH,KW] into eight sub-kernels
// indexed by the parity bits (δd, δy, δx) = (k>>2&1, k&1, k>>1&1), matching
// the Appendix A construction. Empty sub-kernels are nil.
func decompose3D(w *tensor.Tensor) [8]*tensor.Tensor {
	if w.Rank() != 5 {
		panic(fmt.Sprintf("deconv: decompose3D wants rank 5, got %d", w.Rank()))
	}
	f, c := w.Dim(0), w.Dim(1)
	kd, kh, kw := w.Dim(2), w.Dim(3), w.Dim(4)
	var out [8]*tensor.Tensor
	for k := 0; k < 8; k++ {
		dy := k & 1
		dx := (k >> 1) & 1
		dz := (k >> 2) & 1
		sd := subExtent(kd, dz)
		sh := subExtent(kh, dy)
		sw := subExtent(kw, dx)
		if sd == 0 || sh == 0 || sw == 0 {
			continue
		}
		s := tensor.New(f, c, sd, sh, sw)
		for fi := 0; fi < f; fi++ {
			for ci := 0; ci < c; ci++ {
				for z := 0; z < sd; z++ {
					for i := 0; i < sh; i++ {
						for j := 0; j < sw; j++ {
							s.Set(w.At(fi, ci, 2*z+dz, 2*i+dy, 2*j+dx), fi, ci, z, i, j)
						}
					}
				}
			}
		}
		out[k] = s
	}
	return out
}

// transformed3D is the 3-D analogue of Transformed2D for in [C,D,H,W] and
// w [F,C,KD,KH,KW]; it equals deconv3DRef(in, w, pad).
func transformed3D(in, w *tensor.Tensor, pad int) *tensor.Tensor {
	if in.Rank() != 4 || w.Rank() != 5 {
		panic("deconv: transformed3D wants ranks 4,5")
	}
	c, d, h, wd := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	f, kd, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3), w.Dim(4)
	od := tensor.DeconvOut(d, kd, Stride, pad)
	oh := tensor.DeconvOut(h, kh, Stride, pad)
	ow := tensor.DeconvOut(wd, kw, Stride, pad)
	subs := decompose3D(w)
	out := tensor.New(f, od, oh, ow)
	for t := 0; t < od; t++ {
		dz := parity(pad - t)
		az := (t - pad + dz) / 2
		for u := 0; u < oh; u++ {
			dy := parity(pad - u)
			ay := (u - pad + dy) / 2
			for v := 0; v < ow; v++ {
				dx := parity(pad - v)
				ax := (v - pad + dx) / 2
				s := subs[dy|dx<<1|dz<<2]
				if s == nil {
					continue
				}
				sd, sh, sw := s.Dim(2), s.Dim(3), s.Dim(4)
				for fi := 0; fi < f; fi++ {
					var acc float64
					for ci := 0; ci < c; ci++ {
						for z := 0; z < sd; z++ {
							iz := az + z
							if iz < 0 || iz >= d {
								continue
							}
							for i := 0; i < sh; i++ {
								iy := ay + i
								if iy < 0 || iy >= h {
									continue
								}
								for j := 0; j < sw; j++ {
									ix := ax + j
									if ix < 0 || ix >= wd {
										continue
									}
									acc += float64(in.At(ci, iz, iy, ix)) * float64(s.At(fi, ci, z, i, j))
								}
							}
						}
					}
					out.Set(float32(acc), fi, t, u, v)
				}
			}
		}
	}
	return out
}

// deconv3DRef is the standard (sparse) 3-D deconvolution: upsample by
// Stride with border padding pad, then valid-convolve.
func deconv3DRef(in, w *tensor.Tensor, pad int) *tensor.Tensor {
	return conv3D(upsample3D(in, Stride, pad), w, 1, 0)
}

// conv3D cross-correlates in [C,D,H,W] with w [F,C,KD,KH,KW] and returns
// [F,OD,OH,OW] with the same stride and padding in all three spatial dims.
func conv3D(in, w *tensor.Tensor, stride, pad int) *tensor.Tensor {
	c, d, h, wd := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	f, kd, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3), w.Dim(4)
	od, oh, ow := tensor.ConvOut(d, kd, stride, pad), tensor.ConvOut(h, kh, stride, pad), tensor.ConvOut(wd, kw, stride, pad)
	out := tensor.New(f, od, oh, ow)
	for fi := 0; fi < f; fi++ {
		for oz := 0; oz < od; oz++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					for ci := 0; ci < c; ci++ {
						for kz := 0; kz < kd; kz++ {
							iz := oz*stride + kz - pad
							if iz < 0 || iz >= d {
								continue
							}
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
									acc += float64(in.At(ci, iz, iy, ix)) * float64(w.At(fi, ci, kz, ky, kx))
								}
							}
						}
					}
					out.Set(float32(acc), fi, oz, oy, ox)
				}
			}
		}
	}
	return out
}

// upsample3D inserts stride-1 zeros between the elements of in [C,D,H,W]
// along its three spatial dimensions and pads every border by pad.
func upsample3D(in *tensor.Tensor, stride, pad int) *tensor.Tensor {
	c, d, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	up := func(n int) int { return (n-1)*stride + 1 + 2*pad }
	out := tensor.New(c, up(d), up(h), up(w))
	for ci := 0; ci < c; ci++ {
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					out.Set(in.At(ci, z, y, x), ci, z*stride+pad, y*stride+pad, x*stride+pad)
				}
			}
		}
	}
	return out
}

func TestConv3DReducesToConv2D(t *testing.T) {
	in2 := testkit.SeededTensor(9, 3, 5, 5)
	w2 := testkit.SeededTensor(10, 2, 3, 3, 3)
	in3, w3 := tensor.New(3, 1, 5, 5), tensor.New(2, 3, 1, 3, 3)
	copy(in3.Data(), in2.Data())
	copy(w3.Data(), w2.Data())
	o2 := tensor.Conv2D(in2, w2, 1, 0)
	flat := tensor.New(o2.Shape()...)
	copy(flat.Data(), conv3D(in3, w3, 1, 0).Data())
	testkit.MustEqualTensors(t, "conv3D(D=1) against Conv2D", flat, o2, 1e-5)
}

func TestDeconv3DShape(t *testing.T) {
	out := deconv3DRef(testkit.SeededTensor(3, 2, 3, 3, 3), testkit.SeededTensor(4, 2, 2, 3, 3, 3), 1)
	want := tensor.DeconvOut(3, 3, 2, 1)
	if out.Dim(0) != 2 || out.Dim(1) != want || out.Dim(2) != want || out.Dim(3) != want {
		t.Fatalf("shape %v, want [2 %d %d %d]", out.Shape(), want, want, want)
	}
}

// networkEffectiveMACs sums EffectiveMACs over all layers.
func networkEffectiveMACs(n *nn.Network) int64 {
	var s int64
	for _, l := range n.Layers {
		s += EffectiveMACs(l)
	}
	return s
}

// redundancyRatio returns the fraction of a deconvolution layer's naive
// MACs that operate on inserted zeros (paper: >75% for stride-2 2-D
// kernels, ~87.5% for 3-D).
func redundancyRatio(l nn.Layer) float64 {
	naive := l.MACs()
	if naive == 0 {
		return 0
	}
	return 1 - float64(EffectiveMACs(l))/float64(naive)
}
