package deconv

// Differential oracle for the deconvolution-to-convolution transformation
// (ISSUE 2): the transformed execution must agree with the reference
// tensor.Deconv on randomized shapes, not just the handful of fixed shapes
// in transform_test.go. Any future optimization of either path has to keep
// this equivalence.

import (
	"math/rand"
	"testing"

	"asv/internal/nn"
	"asv/internal/tensor"
	"asv/internal/testkit"
)

// nnLayer2D wraps a random 2-D deconvolution case as the IR layer the MAC
// accounting operates on.
func nnLayer2D(c, h, w, f, kh, kw, pad int) nn.Layer {
	return nn.Layer{
		Name: "rand", Kind: nn.KindDeconv,
		InC: c, InD: 1, InH: h, InW: w,
		OutC: f, KD: 1, KH: kh, KW: kw,
		Stride: Stride, Pad: pad,
	}
}

// tolExact is the acceptance bound of the oracle. Both paths accumulate in
// float64 over the same products in the same order, so the agreement is in
// practice bit-exact; 1e-9 leaves room for a reordered-but-correct rewrite.
const tolExact = 1e-9

// randDeconv2DCase draws a random stride-2 2-D deconvolution whose output
// is non-empty.
func randDeconv2DCase(r *rand.Rand) (in, w *tensor.Tensor, pad int) {
	for {
		c := testkit.RandDim(r, 1, 4)
		f := testkit.RandDim(r, 1, 4)
		h := testkit.RandDim(r, 2, 7)
		wd := testkit.RandDim(r, 2, 7)
		kh := testkit.RandDim(r, 1, 5)
		kw := testkit.RandDim(r, 1, 5)
		pad = testkit.RandDim(r, 0, 3)
		if tensor.DeconvOut(h, kh, Stride, pad) < 1 || tensor.DeconvOut(wd, kw, Stride, pad) < 1 {
			continue
		}
		return testkit.RandTensor(r, c, h, wd), testkit.RandTensor(r, f, c, kh, kw), pad
	}
}

func TestDifferentialTransformed2DRandomShapes(t *testing.T) {
	r := testkit.NewRand(t)
	const cases = 60 // acceptance floor is 50 randomized shapes
	for i := 0; i < cases; i++ {
		in, w, pad := randDeconv2DCase(r)
		ref := tensor.Deconv2D(in, w, Stride, pad)
		got := Transformed2D(in, w, pad)
		if m := testkit.DiffTensors(got, ref, tolExact); m != nil {
			t.Fatalf("case %d: ifmap %v kernel %v pad %d: %s",
				i, in.Shape(), w.Shape(), pad, m)
		}
	}
}

func TestDifferentialTransformed3DRandomShapes(t *testing.T) {
	r := testkit.NewRand(t)
	const cases = 50
	for i := 0; i < cases; i++ {
		var in, w *tensor.Tensor
		var pad int
		for {
			c := testkit.RandDim(r, 1, 3)
			f := testkit.RandDim(r, 1, 3)
			d := testkit.RandDim(r, 2, 5)
			h := testkit.RandDim(r, 2, 5)
			wd := testkit.RandDim(r, 2, 5)
			kd := testkit.RandDim(r, 1, 4)
			kh := testkit.RandDim(r, 1, 4)
			kw := testkit.RandDim(r, 1, 4)
			pad = testkit.RandDim(r, 0, 2)
			if tensor.DeconvOut(d, kd, Stride, pad) < 1 ||
				tensor.DeconvOut(h, kh, Stride, pad) < 1 ||
				tensor.DeconvOut(wd, kw, Stride, pad) < 1 {
				continue
			}
			in = testkit.RandTensor(r, c, d, h, wd)
			w = testkit.RandTensor(r, f, c, kd, kh, kw)
			break
		}
		ref := deconv3DRef(in, w, pad)
		got := transformed3D(in, w, pad)
		if m := testkit.DiffTensors(got, ref, tolExact); m != nil {
			t.Fatalf("case %d: ifmap %v kernel %v pad %d: %s",
				i, in.Shape(), w.Shape(), pad, m)
		}
	}
}

// TestDifferentialEffectiveMACsMatchExecution cross-checks the analytic MAC
// accounting against the actual transformed execution: the sub-layer
// decomposition the scheduler consumes must describe exactly the work
// Transformed2D performs (taps × positions, summed over sub-kernels).
func TestDifferentialEffectiveMACsMatchExecution(t *testing.T) {
	r := testkit.NewRand(t)
	for i := 0; i < 25; i++ {
		in, w, pad := randDeconv2DCase(r)
		c, h, wd := in.Dim(0), in.Dim(1), in.Dim(2)
		f, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
		l := nnLayer2D(c, h, wd, f, kh, kw, pad)
		var want int64
		oh := tensor.DeconvOut(h, kh, Stride, pad)
		ow := tensor.DeconvOut(wd, kw, Stride, pad)
		subs := Decompose2D(w)
		for u := 0; u < oh; u++ {
			dy := parity(pad - u)
			for v := 0; v < ow; v++ {
				dx := parity(pad - v)
				s := subs[dy|dx<<1]
				if s == nil {
					continue
				}
				want += int64(f) * int64(c) * int64(s.Dim(2)) * int64(s.Dim(3))
			}
		}
		if got := EffectiveMACs(l); got != want {
			t.Fatalf("case %d (%v kernel %v pad %d): EffectiveMACs %d, execution counts %d",
				i, in.Shape(), w.Shape(), pad, got, want)
		}
	}
}
