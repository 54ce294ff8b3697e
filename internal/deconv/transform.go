// Package deconv implements ASV's deconvolution-to-convolution
// transformation (paper Sec. 4.1 and Appendix A): a stride-2 deconvolution
// kernel of N spatial dimensions is decomposed into 2^N dense sub-kernels,
// each convolved with the original (un-upsampled) input feature map; a
// gather step interleaves the sub-convolution outputs into the ofmap. The
// transformation removes every multiplication against an inserted zero
// without any hardware support.
//
// The package provides both the functional transformation (operating on
// tensors, verified against the reference deconvolution in package tensor)
// and the shape/MAC accounting consumed by the dataflow scheduler.
package deconv

import (
	"fmt"

	"asv/internal/nn"
	"asv/internal/tensor"
)

// Stride is the upsampling factor the transformation targets. ASV's
// formulation (Appendix A) decomposes by coordinate parity, i.e. stride 2 —
// the stride used by every deconvolution in the stereo and GAN zoos.
const Stride = 2

// Decompose2D splits a 2-D deconvolution kernel w [F,C,KH,KW] into the four
// sub-kernels (S0..S3) of paper Sec. 4.1:
//
//	S0 = K[2i,   2j]    S1 = K[2i+1, 2j]
//	S2 = K[2i,   2j+1]  S3 = K[2i+1, 2j+1]
//
// Sub-kernels with an empty dimension (possible when KH or KW is 1) are
// returned as nil.
func Decompose2D(w *tensor.Tensor) [4]*tensor.Tensor {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("deconv: Decompose2D wants rank 4, got %d", w.Rank()))
	}
	f, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	var out [4]*tensor.Tensor
	for k := 0; k < 4; k++ {
		dy := k & 1        // δ for the H dimension
		dx := (k >> 1) & 1 // δ for the W dimension
		sh := subExtent(kh, dy)
		sw := subExtent(kw, dx)
		if sh == 0 || sw == 0 {
			continue
		}
		s := tensor.New(f, c, sh, sw)
		for fi := 0; fi < f; fi++ {
			for ci := 0; ci < c; ci++ {
				for i := 0; i < sh; i++ {
					for j := 0; j < sw; j++ {
						s.Set4(w.At4(fi, ci, 2*i+dy, 2*j+dx), fi, ci, i, j)
					}
				}
			}
		}
		out[k] = s
	}
	return out
}

// subExtent returns the extent of a sub-kernel dimension: elements 2i+δ of
// an extent-k dimension, i.e. ⌈k/2⌉ for δ=0 and ⌊k/2⌋ for δ=1.
func subExtent(k, delta int) int { return (k - delta + 1) / 2 }

// outPositions returns how many ofmap coordinates u ∈ [0, out) select the
// sub-kernel with parity δ, i.e. satisfy (pad-u) ≡ δ (mod 2).
func outPositions(out, pad, delta int) int {
	r := (pad - delta) % 2
	if r < 0 {
		r += 2
	}
	// Count of u in [0, out) with u ≡ r (mod 2).
	if r == 0 {
		return (out + 1) / 2
	}
	return out / 2
}

// Transformed2D executes a stride-2 deconvolution by the ASV transformation:
// each sub-kernel is densely convolved with the original ifmap, and the
// gather step interleaves the four results into the ofmap. pad is the
// upsampled-border padding (tensor.Deconv2D convention). The result is
// numerically identical to tensor.Deconv2D(in, w, 2, pad).
func Transformed2D(in, w *tensor.Tensor, pad int) *tensor.Tensor {
	if in.Rank() != 3 || w.Rank() != 4 {
		panic("deconv: Transformed2D wants ranks 3,4")
	}
	c, h, wd := in.Dim(0), in.Dim(1), in.Dim(2)
	f, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh := tensor.DeconvOut(h, kh, Stride, pad)
	ow := tensor.DeconvOut(wd, kw, Stride, pad)
	subs := Decompose2D(w)
	out := tensor.New(f, oh, ow)
	for u := 0; u < oh; u++ {
		dy := parity(pad - u)
		for v := 0; v < ow; v++ {
			dx := parity(pad - v)
			s := subs[dy|dx<<1]
			if s == nil {
				continue
			}
			sh, sw := s.Dim(2), s.Dim(3)
			ay := (u - pad + dy) / 2
			ax := (v - pad + dx) / 2
			for fi := 0; fi < f; fi++ {
				var acc float64
				for ci := 0; ci < c; ci++ {
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
							acc += float64(in.At3(ci, iy, ix)) * float64(s.At4(fi, ci, i, j))
						}
					}
				}
				out.Set3(float32(acc), fi, u, v)
			}
		}
	}
	return out
}

func parity(x int) int {
	p := x % 2
	if p < 0 {
		p += 2
	}
	return p
}

// SubLayer describes one sub-convolution produced by transforming a
// deconvolution layer: the sub-kernel shape and the slice of the ofmap it
// generates. It is the unit the dataflow optimizer schedules.
type SubLayer struct {
	KD, KH, KW       int // sub-kernel extents
	OutD, OutH, OutW int // ofmap positions this sub-convolution produces
}

// Taps returns the kernel volume of the sub-convolution.
func (s SubLayer) Taps() int64 { return int64(s.KD) * int64(s.KH) * int64(s.KW) }

// OutElemsPerFilter returns the ofmap positions per output channel.
func (s SubLayer) OutElemsPerFilter() int64 {
	return int64(s.OutD) * int64(s.OutH) * int64(s.OutW)
}

// Transform returns the sub-convolutions a layer decomposes into. A
// convolution (or a stride-1 deconvolution, which is already dense) maps to
// itself; a stride-2 deconvolution maps to 2^N sub-convolutions with N
// spatial dimensions, skipping empty sub-kernels.
func Transform(l nn.Layer) []SubLayer {
	od, oh, ow := l.OutDims()
	if l.Kind != nn.KindDeconv || l.Stride != Stride {
		return []SubLayer{{KD: l.KD, KH: l.KH, KW: l.KW, OutD: od, OutH: oh, OutW: ow}}
	}
	var subs []SubLayer
	n3d := l.Is3D()
	max := 4
	if n3d {
		max = 8
	}
	for k := 0; k < max; k++ {
		dy := k & 1
		dx := (k >> 1) & 1
		dz := (k >> 2) & 1
		kd, pd := 1, 0
		if n3d {
			kd = subExtent(l.KD, dz)
			pd = outPositions(od, l.Pad, dz)
		} else {
			pd = od // 2-D: depth is a single unit plane
		}
		kh := subExtent(l.KH, dy)
		kw := subExtent(l.KW, dx)
		if kd == 0 || kh == 0 || kw == 0 {
			continue
		}
		subs = append(subs, SubLayer{
			KD: kd, KH: kh, KW: kw,
			OutD: pd,
			OutH: outPositions(oh, l.Pad, dy),
			OutW: outPositions(ow, l.Pad, dx),
		})
	}
	return subs
}

// EffectiveMACs returns the layer's MAC count after the transformation:
// only multiplications against real (non-inserted-zero) ifmap data remain.
// For convolutions this equals the naive count.
func EffectiveMACs(l nn.Layer) int64 {
	var s int64
	for _, sub := range Transform(l) {
		s += sub.OutElemsPerFilter() * int64(l.OutC) * int64(l.InC) * sub.Taps()
	}
	return s
}
