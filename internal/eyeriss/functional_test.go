package eyeriss

import (
	"fmt"
	"testing"

	"asv/internal/deconv"
	"asv/internal/tensor"
	"asv/internal/testkit"
)

// Functional row-stationary simulator.
//
// The analytic model (RunNetwork) predicts Eyeriss-class performance; this
// test oracle actually *executes* the row-stationary dataflow, the way
// grid.Grid executes the weight-stationary one, so the comparison
// architecture is verified against the same reference convolution as the
// ASV array (see the differential oracle below).
//
// Row-stationary mapping (Chen et al., ISCA'16): a PE holds one filter row
// and performs a 1-D sliding convolution against one ifmap row; PEs of one
// column cover the KH filter rows of one output row, and their row-wise
// partial sums accumulate down the column. The array processes a
// (filter-row set ≤ Rows) × (output-row set ≤ Cols) tile per pass,
// iterating over filters, channels and kernel-row/output-row tiles.

// Array is a Rows×Cols row-stationary PE grid.
type Array struct {
	Rows, Cols int
	cycles     int64
	macs       int64
}

// Cycles returns the total simulated cycles, including pass fill/drain.
func (a *Array) Cycles() int64 { return a.cycles }

// MACs returns the multiply-accumulates performed (padding taps included,
// matching the naive execution model the analytic side charges).
func (a *Array) MACs() int64 { return a.macs }

// rowConv1D is the work of one PE for one pass: slide the kw-tap filter
// row over the ifmap row (already offset for stride/pad) and emit ow
// partial outputs. Accumulation is in float64, as one PE's psum register
// chain never leaves the datapath mid-row.
func (a *Array) rowConv1D(in *tensor.Tensor, ci, iy, pad, stride, ow, kw int, w *tensor.Tensor, fi, ky int, psum []float64) {
	h, wd := in.Dim(1), in.Dim(2)
	inRange := iy >= 0 && iy < h
	for ox := 0; ox < ow; ox++ {
		var acc float64
		for kx := 0; kx < kw; kx++ {
			ix := ox*stride + kx - pad
			if inRange && ix >= 0 && ix < wd {
				acc += float64(in.At3(ci, iy, ix)) * float64(w.At4(fi, ci, ky, kx))
			}
			a.macs++ // the PE clocks every tap, real or padded
		}
		psum[ox] += acc
	}
	a.cycles += int64(ow * kw)
}

// Conv2D executes the convolution of in [C,H,W] with w [F,C,KH,KW] on the
// row-stationary array (stride/pad as in tensor.Conv2D) and returns
// [F,OH,OW]. The result is numerically identical to tensor.Conv2D up to
// float summation order.
func (a *Array) Conv2D(in, w *tensor.Tensor, stride, pad int) *tensor.Tensor {
	if in.Rank() != 3 || w.Rank() != 4 {
		panic(fmt.Sprintf("eyeriss: Conv2D wants ranks 3,4; got %d,%d", in.Rank(), w.Rank()))
	}
	c, f := in.Dim(0), w.Dim(0)
	if c != w.Dim(1) {
		panic(fmt.Sprintf("eyeriss: Conv2D channel mismatch ifmap=%d weights=%d", c, w.Dim(1)))
	}
	kh, kw := w.Dim(2), w.Dim(3)
	oh := tensor.ConvOut(in.Dim(1), kh, stride, pad)
	ow := tensor.ConvOut(in.Dim(2), kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("eyeriss: Conv2D non-positive output %dx%d", oh, ow))
	}

	// Output accumulates in float64 until every channel/kernel-row pass has
	// been folded in (the RF-resident psum of the mapping).
	acc := make([]float64, f*oh*ow)
	psum := make([]float64, ow)

	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < c; ci++ {
			// Tile kernel rows onto array rows, output rows onto columns.
			for ky0 := 0; ky0 < kh; ky0 += a.Rows {
				kt := min(a.Rows, kh-ky0)
				for oy0 := 0; oy0 < oh; oy0 += a.Cols {
					ot := min(a.Cols, oh-oy0)
					// One pass: PE(i,j) convolves filter row ky0+i against
					// the ifmap row feeding output row oy0+j. PEs run in
					// lockstep; the pass costs one PE's row workload plus
					// the diagonal fill/drain of the psum chain.
					for j := 0; j < ot; j++ {
						oy := oy0 + j
						base := (fi*oh + oy) * ow
						for x := range psum {
							psum[x] = 0
						}
						for i := 0; i < kt; i++ {
							ky := ky0 + i
							iy := oy*stride + ky - pad
							a.rowConv1D(in, ci, iy, pad, stride, ow, kw, w, fi, ky, psum)
						}
						for x := 0; x < ow; x++ {
							acc[base+x] += psum[x]
						}
					}
					// Lockstep parallelism: the kt×ot PEs of the pass ran
					// concurrently, so charge one PE's work, not the sum.
					passMACs := int64(ow * kw)
					a.cycles -= int64(kt*ot)*passMACs - passMACs
					a.cycles += int64(a.Rows + a.Cols) // fill/drain bubble
				}
			}
		}
	}

	out := tensor.New(f, oh, ow)
	d := out.Data()
	for i := range d {
		d[i] = float32(acc[i])
	}
	return out
}

// Differential oracle (ISSUE 2): the functional row-stationary array must
// agree with the reference convolution on randomized shapes, exactly like
// the systolic array does — both comparison architectures compute the same
// math, only the performance models differ.

func TestRowStationaryConvMatchesReferenceRandomShapes(t *testing.T) {
	r := testkit.NewRand(t)
	for i := 0; i < 40; i++ {
		c := testkit.RandDim(r, 1, 4)
		f := testkit.RandDim(r, 1, 4)
		kh := testkit.RandDim(r, 1, 4)
		kw := testkit.RandDim(r, 1, 4)
		stride := testkit.RandDim(r, 1, 2)
		pad := testkit.RandDim(r, 0, 2)
		h := testkit.RandDim(r, kh, kh+6)
		wd := testkit.RandDim(r, kw, kw+6)
		if tensor.ConvOut(h, kh, stride, pad) < 1 || tensor.ConvOut(wd, kw, stride, pad) < 1 {
			continue
		}
		in := testkit.RandTensor(r, c, h, wd)
		w := testkit.RandTensor(r, f, c, kh, kw)
		arr := &Array{Rows: testkit.RandDim(r, 1, 4), Cols: testkit.RandDim(r, 1, 4)}
		got := arr.Conv2D(in, w, stride, pad)
		want := tensor.Conv2D(in, w, stride, pad)
		if m := testkit.DiffTensors(got, want, 1e-9); m != nil {
			t.Fatalf("case %d: in %v w %v stride %d pad %d array %dx%d: %s",
				i, in.Shape(), w.Shape(), stride, pad, arr.Rows, arr.Cols, m)
		}
	}
}

// subAxis describes one spatial dimension of a sub-convolution's gather:
// the n ofmap positions u0, u0+2, ... of one parity class read ifmap
// windows starting at a0, a0+1, ...; top is the (non-positive) first ifmap
// coordinate any window touches, i.e. the explicit padding offset.
type subAxis struct {
	u0, n, a0, top, padded int
}

func sliceAxis(out, pad, delta, sk, h int) subAxis {
	u0 := ((pad-delta)%2 + 2) % 2
	var n int
	if u0 == 0 {
		n = (out + 1) / 2
	} else {
		n = out / 2
	}
	a0 := (u0 - pad + delta) / 2
	top := 0
	if a0 < 0 {
		top = a0
	}
	bottom := h - 1
	if last := a0 + n - 1 + sk - 1; last > bottom {
		bottom = last
	}
	return subAxis{u0: u0, n: n, a0: a0, top: top, padded: bottom - top + 1}
}

// TestRowStationaryExecutesTransformedDeconv is the Eyeriss+DCT path of the
// paper's comparison in miniature: each sub-kernel of a transformed
// deconvolution is a dense convolution the row-stationary array can run
// as-is (on an explicitly zero-padded ifmap, since sub-windows may hang off
// either edge); the gather step must reproduce the reference deconvolution.
func TestRowStationaryExecutesTransformedDeconv(t *testing.T) {
	r := testkit.NewRand(t)
	for i := 0; i < 12; i++ {
		c := testkit.RandDim(r, 1, 3)
		f := testkit.RandDim(r, 1, 3)
		h := testkit.RandDim(r, 3, 6)
		wd := testkit.RandDim(r, 3, 6)
		kh := testkit.RandDim(r, 2, 4)
		kw := testkit.RandDim(r, 2, 4)
		pad := testkit.RandDim(r, 0, 2)
		oh := tensor.DeconvOut(h, kh, deconv.Stride, pad)
		ow := tensor.DeconvOut(wd, kw, deconv.Stride, pad)
		if oh < 1 || ow < 1 {
			continue
		}
		in := testkit.RandTensor(r, c, h, wd)
		w := testkit.RandTensor(r, f, c, kh, kw)
		want := tensor.Deconv2D(in, w, deconv.Stride, pad)

		got := tensor.New(f, oh, ow)
		arr := &Array{Rows: 3, Cols: 3}
		for k, s := range deconv.Decompose2D(w) {
			if s == nil {
				continue
			}
			dy, dx := k&1, (k>>1)&1
			sh, sw := s.Dim(2), s.Dim(3)
			ya := sliceAxis(oh, pad, dy, sh, h)
			xa := sliceAxis(ow, pad, dx, sw, wd)
			if ya.n == 0 || xa.n == 0 {
				continue
			}
			padded := tensor.New(c, ya.padded, xa.padded)
			for ci := 0; ci < c; ci++ {
				for iy := 0; iy < h; iy++ {
					for ix := 0; ix < wd; ix++ {
						padded.Set3(in.At3(ci, iy, ix), ci, iy-ya.top, ix-xa.top)
					}
				}
			}
			sub := arr.Conv2D(padded, s, 1, 0)
			for fi := 0; fi < f; fi++ {
				for m := 0; m < ya.n; m++ {
					for nIdx := 0; nIdx < xa.n; nIdx++ {
						v := sub.At3(fi, ya.a0+m-ya.top, xa.a0+nIdx-xa.top)
						got.Set3(v, fi, ya.u0+2*m, xa.u0+2*nIdx)
					}
				}
			}
		}
		if m := testkit.DiffTensors(got, want, 1e-9); m != nil {
			t.Fatalf("case %d: ifmap %v kernel %v pad %d: %s", i, in.Shape(), w.Shape(), pad, m)
		}
	}
}

func TestRowStationaryMACAccounting(t *testing.T) {
	r := testkit.NewRand(t)
	in := testkit.RandTensor(r, 2, 5, 7)
	w := testkit.RandTensor(r, 3, 2, 3, 3)
	arr := &Array{Rows: 2, Cols: 3}
	out := arr.Conv2D(in, w, 1, 1)
	oh, ow := out.Dim(1), out.Dim(2)
	want := int64(3 * 2 * 3 * 3 * oh * ow) // F*C*KH*KW*OH*OW, padding included
	if arr.MACs() != want {
		t.Fatalf("MACs = %d, want %d", arr.MACs(), want)
	}
	if arr.Cycles() <= 0 {
		t.Fatalf("cycles = %d", arr.Cycles())
	}
	// Lockstep parallelism: the array must be faster than one PE doing all
	// the work serially.
	if arr.Cycles() >= want {
		t.Fatalf("array no faster than serial: %d >= %d", arr.Cycles(), want)
	}
}
