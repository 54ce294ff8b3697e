package grid

import (
	"testing"

	"asv/internal/tensor"
	"asv/internal/testkit"
)

// Randomized differential oracle (ISSUE 2): the weight-stationary grid vs
// the reference convolution across random shapes, strides, pads and array
// geometries, with testkit's reproducible seeding and first-mismatch
// reporting. Complements the fixed-shape and testing/quick cases in
// functional_test.go.
func TestDifferentialGridConv2DRandomShapes(t *testing.T) {
	r := testkit.NewRand(t)
	for i := 0; i < 30; i++ {
		c := testkit.RandDim(r, 1, 4)
		f := testkit.RandDim(r, 1, 5)
		kh := testkit.RandDim(r, 1, 4)
		kw := testkit.RandDim(r, 1, 4)
		stride := testkit.RandDim(r, 1, 2)
		pad := testkit.RandDim(r, 0, 2)
		h := testkit.RandDim(r, kh, kh+7)
		wd := testkit.RandDim(r, kw, kw+7)
		if tensor.ConvOut(h, kh, stride, pad) < 1 || tensor.ConvOut(wd, kw, stride, pad) < 1 {
			continue
		}
		in := testkit.RandTensor(r, c, h, wd)
		w := testkit.RandTensor(r, f, c, kh, kw)
		g := NewGrid(testkit.RandDim(r, 1, 8), testkit.RandDim(r, 1, 6))
		got := g.Conv2D(in, w, stride, pad)
		want := tensor.Conv2D(in, w, stride, pad)
		if m := testkit.DiffTensors(got, want, 1e-4); m != nil {
			t.Fatalf("case %d: in %v w %v stride %d pad %d grid %dx%d: %s",
				i, in.Shape(), w.Shape(), stride, pad, g.Rows, g.Cols, m)
		}
	}
}

// The grid must also agree with the row-stationary comparison architecture
// indirectly: both are pinned to tensor.Conv2D, so any drift in either
// functional model surfaces here or in eyeriss's differential test without
// the two packages needing to import each other.
func TestDifferentialGridSADRandomShapes(t *testing.T) {
	r := testkit.NewRand(t)
	for i := 0; i < 20; i++ {
		k := testkit.RandDim(r, 2, 4)
		h := testkit.RandDim(r, k, k+8)
		wd := testkit.RandDim(r, k, k+8)
		in := testkit.RandTensor(r, h, wd)
		block := testkit.RandTensor(r, k, k)
		g := NewGrid(testkit.RandDim(r, 1, 6), testkit.RandDim(r, 1, 4))
		got := g.sadWindow2D(in, block)
		want := sadWindowRef(in, block)
		if m := testkit.DiffTensors(got, want, 1e-4); m != nil {
			t.Fatalf("case %d: in %v block %v grid %dx%d: %s",
				i, in.Shape(), block.Shape(), g.Rows, g.Cols, m)
		}
	}
}
