package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvOutFormulas(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{5, 3, 1, 0, 3},
		{5, 3, 1, 1, 5},
		{7, 3, 2, 1, 4},
		{224, 7, 2, 3, 112},
	}
	for _, c := range cases {
		if got := ConvOut(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestDeconvOutPaperExample(t *testing.T) {
	// Fig. 6: 3x3 ifmap, 3x3 kernel, stride-2 upsampling, pad 1 -> 5x5 ofmap
	// (the upsampled+padded ifmap is 7x7).
	if got := DeconvOut(3, 3, 2, 1); got != 5 {
		t.Fatalf("DeconvOut = %d, want 5", got)
	}
}

func TestTransposedPadEquivalence(t *testing.T) {
	// PyTorch-style ConvTranspose2d(k=4, s=2, p=1): out = 2*in.
	k, p := 4, 1
	in := 5
	out := DeconvOut(in, k, 2, transposedPad(k, p))
	if out != 2*in {
		t.Fatalf("transposed k=4 s=2 p=1: out = %d, want %d", out, 2*in)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := seededTensor(1, 1, 4, 4)
	w := New(1, 1, 1, 1)
	w.Set(1, 0, 0, 0, 0)
	out := Conv2D(in, w, 1, 0)
	if maxAbsDiff(in, fromSlice(out.Data(), 1, 4, 4)) != 0 {
		t.Fatal("1x1 identity convolution changed the input")
	}
}

func TestConv2DHandComputed(t *testing.T) {
	// 1x3x3 input, 1x1x2x2 kernel, stride 1, no padding.
	in := fromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w := fromSlice([]float32{1, 0, 0, 2}, 1, 1, 2, 2)
	out := Conv2D(in, w, 1, 0)
	want := [][]float32{{1 + 2*5, 2 + 2*6}, {4 + 2*8, 5 + 2*9}}
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if out.At3(0, y, x) != want[y][x] {
				t.Fatalf("out(%d,%d) = %v, want %v", y, x, out.At3(0, y, x), want[y][x])
			}
		}
	}
}

func TestConv2DPaddingZeroBorder(t *testing.T) {
	// With pad=1 and a 3x3 sum kernel, the corner output sees only 4 input
	// elements.
	in := filled(1, 1, 3, 3)
	w := filled(1, 1, 1, 3, 3)
	out := Conv2D(in, w, 1, 1)
	if out.Dim(1) != 3 || out.Dim(2) != 3 {
		t.Fatalf("shape %v, want [1 3 3]", out.Shape())
	}
	if out.At3(0, 0, 0) != 4 {
		t.Fatalf("corner = %v, want 4", out.At3(0, 0, 0))
	}
	if out.At3(0, 1, 1) != 9 {
		t.Fatalf("center = %v, want 9", out.At3(0, 1, 1))
	}
}

func TestConv2DMultiChannelAccumulates(t *testing.T) {
	in := filled(1, 2, 2, 2)
	w := filled(1, 1, 2, 2, 2)
	out := Conv2D(in, w, 1, 0)
	if out.At3(0, 0, 0) != 8 {
		t.Fatalf("got %v, want 8 (2 channels x 4 taps)", out.At3(0, 0, 0))
	}
}

func TestConv2DStride(t *testing.T) {
	in := seededTensor(7, 1, 6, 6)
	w := seededTensor(8, 1, 1, 2, 2)
	out := Conv2D(in, w, 2, 0)
	if out.Dim(1) != 3 || out.Dim(2) != 3 {
		t.Fatalf("shape %v, want [.. 3 3]", out.Shape())
	}
	// Spot-check (1,1): window starts at (2,2).
	var want float64
	for ky := 0; ky < 2; ky++ {
		for kx := 0; kx < 2; kx++ {
			want += float64(in.At3(0, 2+ky, 2+kx)) * float64(w.At4(0, 0, ky, kx))
		}
	}
	if d := abs64(want - float64(out.At3(0, 1, 1))); d > 1e-5 {
		t.Fatalf("stride-2 output mismatch: %v", d)
	}
}

func TestUpsample2DPlacesValues(t *testing.T) {
	in := fromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	up := Upsample2D(in, 2, 1)
	if up.Dim(1) != 5 || up.Dim(2) != 5 {
		t.Fatalf("shape %v, want [1 5 5]", up.Shape())
	}
	if up.At3(0, 1, 1) != 1 || up.At3(0, 1, 3) != 2 || up.At3(0, 3, 1) != 3 || up.At3(0, 3, 3) != 4 {
		t.Fatal("upsampled values misplaced")
	}
	var nonzero int
	for _, v := range up.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Fatalf("nonzero count %d, want 4", nonzero)
	}
}

func TestDeconv2DFig6CornerValues(t *testing.T) {
	// Reproduces the worked example of Fig. 6 with A..I = 1..9 and kernel
	// a..i = 10..90 (so every product is distinct).
	A, B, D, E, I := float32(1), float32(2), float32(4), float32(5), float32(9)
	ifmap := fromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	a, b, c, d, e, f, g, h, i := float32(10), float32(20), float32(30), float32(40),
		float32(50), float32(60), float32(70), float32(80), float32(90)
	kernel := fromSlice([]float32{a, b, c, d, e, f, g, h, i}, 1, 1, 3, 3)

	out := Deconv2D(ifmap, kernel, 2, 1)
	if out.Dim(1) != 5 || out.Dim(2) != 5 {
		t.Fatalf("ofmap shape %v, want [1 5 5]", out.Shape())
	}
	checks := []struct {
		y, x int
		want float32
	}{
		{0, 0, A * e},
		{0, 1, A*d + B*f},
		{1, 0, A*b + D*h},
		{1, 1, A*a + B*c + D*g + E*i},
		{4, 4, I * e},
	}
	for _, cse := range checks {
		if got := out.At3(0, cse.y, cse.x); got != cse.want {
			t.Errorf("ofmap(%d,%d) = %v, want %v", cse.y, cse.x, got, cse.want)
		}
	}
}

// deconvScatter is an independent implementation of the same deconvolution
// semantics via output scattering, used as a cross-check.
func deconvScatter(in, w *Tensor, stride, pad int) *Tensor {
	cIn, h, wd := in.Dim(0), in.Dim(1), in.Dim(2)
	f, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh := DeconvOut(h, kh, stride, pad)
	ow := DeconvOut(wd, kw, stride, pad)
	out := New(f, oh, ow)
	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < cIn; ci++ {
			for y := 0; y < h; y++ {
				for x := 0; x < wd; x++ {
					v := float64(in.At3(ci, y, x))
					for ky := 0; ky < kh; ky++ {
						oy := y*stride + pad - ky
						if oy < 0 || oy >= oh {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ox := x*stride + pad - kx
							if ox < 0 || ox >= ow {
								continue
							}
							out.Set3(out.At3(fi, oy, ox)+float32(v*float64(w.At4(fi, ci, ky, kx))), fi, oy, ox)
						}
					}
				}
			}
		}
	}
	return out
}

// Property: the gather (upsample+convolve) and scatter formulations of
// deconvolution agree for random shapes and values.
func TestQuickDeconvGatherEqualsScatter(t *testing.T) {
	f := func(seed int64, hRaw, kRaw, sRaw, pRaw uint8) bool {
		h := int(hRaw)%5 + 2 // 2..6
		k := int(kRaw)%4 + 2 // 2..5
		s := int(sRaw)%3 + 1 // 1..3
		p := int(pRaw) % k   // 0..k-1
		if DeconvOut(h, k, s, p) <= 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		in := randTensor(rng, 2, h, h)
		w := randTensor(rng, 3, 2, k, k)
		a := Deconv2D(in, w, s, p)
		b := deconvScatter(in, w, s, p)
		return maxAbsDiff(a, b) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: convolution is linear in its input.
func TestQuickConvLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randTensor(rng, 2, 6, 6)
		y := randTensor(rng, 2, 6, 6)
		w := randTensor(rng, 3, 2, 3, 3)
		lhs := Conv2D(add(x, y), w, 1, 1)
		rhs := add(Conv2D(x, w, 1, 1), Conv2D(y, w, 1, 1))
		return maxAbsDiff(lhs, rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// transposedPad converts the conventional transposed-convolution padding p
// (as deep-learning frameworks use it) for a kernel of extent k into the
// border padding applied after upsampling.
func transposedPad(k, p int) int { return k - 1 - p }
