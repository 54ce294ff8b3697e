package grid

import (
	"math"
	"testing"
	"testing/quick"

	"asv/internal/tensor"
	"asv/internal/testkit"
)

// sadWindow2D computes the sliding-window sum of absolute differences
// between in [H,W] and block [KH,KW] on the array in SAD mode (Sec. 5.2:
// block matching shares the convolution dataflow): im2col over the windows,
// with the block as the single "filter" column.
func (g *Grid) sadWindow2D(in, block *tensor.Tensor) *tensor.Tensor {
	g.Mode = ModeSAD
	h, wd := in.Dim(0), in.Dim(1)
	kh, kw := block.Dim(0), block.Dim(1)
	oh := tensor.ConvOut(h, kh, 1, 0)
	ow := tensor.ConvOut(wd, kw, 1, 0)
	k := kh * kw
	a := mat(oh*ow, k)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := a[oy*ow+ox]
			i := 0
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					row[i] = in.At(oy+ky, ox+kx)
					i++
				}
			}
		}
	}
	wm := mat(k, 1)
	for i, v := range block.Data() {
		wm[i][0] = v
	}
	res := g.MatMul(a, wm)
	out := tensor.New(oh, ow)
	for i, r := range res {
		out.Data()[i] = r[0]
	}
	return out
}

// sadWindowRef is the reference: the sum of absolute differences between
// block [KH,KW] and every aligned window of in [H,W], returning [OH,OW].
func sadWindowRef(in, block *tensor.Tensor) *tensor.Tensor {
	h, wd := in.Dim(0), in.Dim(1)
	kh, kw := block.Dim(0), block.Dim(1)
	out := tensor.New(tensor.ConvOut(h, kh, 1, 0), tensor.ConvOut(wd, kw, 1, 0))
	for oy := 0; oy < out.Dim(0); oy++ {
		for ox := 0; ox < out.Dim(1); ox++ {
			var acc float64
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					acc += math.Abs(float64(in.At(oy+ky, ox+kx) - block.At(ky, kx)))
				}
			}
			out.Set(float32(acc), oy, ox)
		}
	}
	return out
}

func TestSADWindowZeroAtPerfectMatch(t *testing.T) {
	in := tensor.New(4, 4)
	copy(in.Data(), []float32{
		0, 0, 0, 0,
		0, 1, 2, 0,
		0, 3, 4, 0,
		0, 0, 0, 0,
	})
	w := tensor.New(2, 2)
	copy(w.Data(), []float32{1, 2, 3, 4})
	out := NewGrid(4, 2).sadWindow2D(in, w)
	if out.At(1, 1) != 0 {
		t.Fatalf("SAD at match = %v, want 0", out.At(1, 1))
	}
	// Any other position should be strictly positive.
	for y := 0; y < out.Dim(0); y++ {
		for x := 0; x < out.Dim(1); x++ {
			if (y != 1 || x != 1) && out.At(y, x) <= 0 {
				t.Fatalf("SAD(%d,%d) = %v, want > 0", y, x, out.At(y, x))
			}
		}
	}
}

// Property: the SAD-mode array never reports a negative cost.
func TestQuickSADNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		out := NewGrid(4, 2).sadWindow2D(testkit.SeededTensor(seed, 6, 6), testkit.SeededTensor(seed+1, 3, 3))
		for _, v := range out.Data() {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
