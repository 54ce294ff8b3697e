package flow

import (
	"math"
	"testing"
	"testing/quick"

	"asv/internal/imgproc"
)

// texture builds a smooth, richly textured image (sum of sinusoids) whose
// translations the estimators should recover.
func texture(w, h int, phase float64) *imgproc.Image {
	im := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x), float64(y)
			v := 0.5 +
				0.20*math.Sin(0.35*fx+phase) +
				0.20*math.Sin(0.30*fy-phase) +
				0.10*math.Sin(0.18*(fx+fy)) +
				0.08*math.Sin(0.52*fx-0.23*fy)
			im.Set(x, y, float32(v))
		}
	}
	return im
}

// shifted returns the texture translated by (dx, dy): content at (x, y) in
// the output came from (x-dx, y-dy), i.e. the motion field is (dx, dy).
func shifted(src *imgproc.Image, dx, dy float32) *imgproc.Image {
	out := imgproc.NewImage(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			out.Set(x, y, src.Bilinear(float32(x)-dx, float32(y)-dy))
		}
	}
	return out
}

// interiorMeanFlow averages the estimated flow over the central region,
// ignoring a border where the shift is unobservable.
func interiorMeanFlow(f Field, border int) (float64, float64) {
	var su, sv float64
	var n int
	for y := border; y < f.U.H-border; y++ {
		for x := border; x < f.U.W-border; x++ {
			su += float64(f.U.At(x, y))
			sv += float64(f.V.At(x, y))
			n++
		}
	}
	return su / float64(n), sv / float64(n)
}

func TestFarnebackZeroMotion(t *testing.T) {
	im := texture(48, 48, 0)
	f := Farneback(im, im, DefaultOptions())
	mu, mv := interiorMeanFlow(f, 6)
	if math.Abs(mu) > 0.05 || math.Abs(mv) > 0.05 {
		t.Fatalf("zero-motion flow = (%v, %v), want ~0", mu, mv)
	}
}

func TestFarnebackRecoversSubpixelShift(t *testing.T) {
	prev := texture(64, 64, 0.3)
	next := shifted(prev, 1.5, -0.8)
	f := Farneback(prev, next, DefaultOptions())
	mu, mv := interiorMeanFlow(f, 10)
	if math.Abs(mu-1.5) > 0.25 {
		t.Errorf("mean U = %v, want ~1.5", mu)
	}
	if math.Abs(mv+0.8) > 0.25 {
		t.Errorf("mean V = %v, want ~-0.8", mv)
	}
}

func TestFarnebackLargerShiftNeedsPyramid(t *testing.T) {
	prev := texture(96, 96, 1.0)
	next := shifted(prev, 5, 3)
	opt := DefaultOptions()
	opt.Levels = 4
	f := Farneback(prev, next, opt)
	mu, mv := interiorMeanFlow(f, 16)
	if math.Abs(mu-5) > 0.8 || math.Abs(mv-3) > 0.8 {
		t.Fatalf("mean flow = (%v, %v), want ~(5, 3)", mu, mv)
	}
}

func TestFarnebackSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Farneback(imgproc.NewImage(8, 8), imgproc.NewImage(9, 8), DefaultOptions())
}

func TestBlockMatchIntegerShift(t *testing.T) {
	prev := texture(40, 40, 0.7)
	next := shifted(prev, 3, -2)
	f := BlockMatch(prev, next, 8, 4)
	mu, mv := interiorMeanFlow(f, 8)
	if math.Abs(mu-3) > 0.5 || math.Abs(mv+2) > 0.5 {
		t.Fatalf("block-match flow = (%v, %v), want (3, -2)", mu, mv)
	}
}

func TestBlockMatchIsBlockwiseConstant(t *testing.T) {
	prev := texture(32, 32, 0.2)
	next := shifted(prev, 1, 1)
	f := BlockMatch(prev, next, 8, 2)
	// All pixels within one block carry the same vector — the reason the
	// paper rejects BM for per-pixel motion (Sec. 3.3).
	for by := 0; by < 32; by += 8 {
		for bx := 0; bx < 32; bx += 8 {
			u0, v0 := f.U.At(bx, by), f.V.At(bx, by)
			for y := by; y < by+8; y++ {
				for x := bx; x < bx+8; x++ {
					if f.U.At(x, y) != u0 || f.V.At(x, y) != v0 {
						t.Fatalf("block (%d,%d) not constant", bx, by)
					}
				}
			}
		}
	}
}

func TestLucasKanadeAtTexturedPoints(t *testing.T) {
	prev := texture(48, 48, 0.5)
	next := shifted(prev, 1.2, 0.6)
	pts := [][2]int{{16, 16}, {24, 30}, {32, 20}}
	vecs, ok := LucasKanade(prev, next, pts, 4, 10)
	for i := range pts {
		if !ok[i] {
			t.Fatalf("point %d rejected on textured image", i)
		}
		if math.Abs(float64(vecs[i][0])-1.2) > 0.4 || math.Abs(float64(vecs[i][1])-0.6) > 0.4 {
			t.Errorf("point %d flow = %v, want ~(1.2, 0.6)", i, vecs[i])
		}
	}
}

func TestLucasKanadeRejectsFlatRegion(t *testing.T) {
	flat := imgproc.NewImage(32, 32) // all zeros: no texture anywhere
	_, ok := LucasKanade(flat, flat, [][2]int{{16, 16}}, 4, 5)
	if ok[0] {
		t.Fatal("LK accepted a textureless point; sparse coverage argument (Sec 3.3) relies on rejection")
	}
}

func TestEndpointErrorZeroForIdenticalFields(t *testing.T) {
	f := NewField(8, 8)
	if EndpointError(f, f) != 0 {
		t.Fatal("EPE of identical fields should be 0")
	}
}

func TestFarnebackMACsScaleWithResolution(t *testing.T) {
	opt := DefaultOptions()
	small := FarnebackMACs(100, 100, opt)
	big := FarnebackMACs(200, 200, opt)
	if big <= 3*small || big >= 5*small {
		t.Fatalf("4x pixels should cost ~4x MACs: %d vs %d", small, big)
	}
}

func TestFarnebackMACsPositiveAndMonotonic(t *testing.T) {
	opt := DefaultOptions()
	base := FarnebackMACs(240, 135, opt)
	if base <= 0 {
		t.Fatal("non-positive MAC count")
	}
	opt.Iters = 6
	more := FarnebackMACs(240, 135, opt)
	if more <= base {
		t.Fatal("more iterations should cost more")
	}
}

func TestBlockMatchMACsFormula(t *testing.T) {
	// 16x16 frame, block 8 -> 4 blocks; ±1 search -> 9 candidates; 64 MACs per
	// candidate.
	if got := BlockMatchMACs(16, 16, 8, 1); got != 4*9*64 {
		t.Fatalf("BlockMatchMACs = %d, want %d", got, 4*9*64)
	}
}

// Property: the flow field returned by Farneback is always finite.
func TestQuickFarnebackFinite(t *testing.T) {
	f := func(seed int64) bool {
		prev := texture(32, 32, float64(seed%7))
		next := shifted(prev, float32(seed%3), float32(seed%2))
		opt := DefaultOptions()
		opt.Levels = 2
		opt.Iters = 2
		fld := Farneback(prev, next, opt)
		for i := range fld.U.Pix {
			if math.IsNaN(float64(fld.U.Pix[i])) || math.IsInf(float64(fld.U.Pix[i]), 0) ||
				math.IsNaN(float64(fld.V.Pix[i])) || math.IsInf(float64(fld.V.Pix[i]), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestHornSchunckRecoversSmallShift(t *testing.T) {
	prev := texture(48, 48, 0.4)
	next := shifted(prev, 0.6, -0.4)
	f := HornSchunck(prev, next, DefaultHSOptions())
	mu, mv := interiorMeanFlow(f, 8)
	if math.Abs(mu-0.6) > 0.3 || math.Abs(mv+0.4) > 0.3 {
		t.Fatalf("HS flow = (%v, %v), want ~(0.6, -0.4)", mu, mv)
	}
}

func TestHornSchunckFailsOnLargeShift(t *testing.T) {
	// The no-pyramid limitation that rules HS out for ISM: a 5 px shift is
	// far outside the linearization range.
	prev := texture(64, 64, 0.9)
	next := shifted(prev, 5, 0)
	f := HornSchunck(prev, next, DefaultHSOptions())
	mu, _ := interiorMeanFlow(f, 10)
	if math.Abs(mu-5) < 1.5 {
		t.Fatalf("HS unexpectedly recovered a 5px shift (got %v); the ablation premise fails", mu)
	}
	// Farneback's pyramid handles the same pair.
	opt := DefaultOptions()
	opt.Levels = 4
	ff := Farneback(prev, next, opt)
	fu, _ := interiorMeanFlow(ff, 10)
	if math.Abs(fu-5) > 0.8 {
		t.Fatalf("Farneback should recover the 5px shift (got %v)", fu)
	}
}

func TestHornSchunckZeroMotion(t *testing.T) {
	im := texture(32, 32, 0.1)
	f := HornSchunck(im, im, DefaultHSOptions())
	mu, mv := interiorMeanFlow(f, 4)
	if math.Abs(mu) > 1e-6 || math.Abs(mv) > 1e-6 {
		t.Fatalf("zero-motion HS flow = (%v, %v)", mu, mv)
	}
}

func TestHornSchunckMACsGrowWithIters(t *testing.T) {
	a := HornSchunckMACs(100, 100, HSOptions{Alpha: 1, Iters: 10})
	b := HornSchunckMACs(100, 100, HSOptions{Alpha: 1, Iters: 100})
	if b <= a || a <= 0 {
		t.Fatal("HS MAC model not monotone in iterations")
	}
}

func TestHornSchunckSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HornSchunck(imgproc.NewImage(8, 8), imgproc.NewImage(9, 8), DefaultHSOptions())
}

func TestFarnebackOpsSplitSumsToTotal(t *testing.T) {
	opt := DefaultOptions()
	conv, point := FarnebackOpsSplit(240, 135, opt)
	if conv <= 0 || point <= 0 {
		t.Fatal("both cost components must be positive")
	}
	if conv+point != FarnebackMACs(240, 135, opt) {
		t.Fatal("split does not sum to the total")
	}
	// Convolution work dominates (separable filters vs pointwise updates).
	if conv < point {
		t.Fatalf("expected conv-dominated cost: conv=%d point=%d", conv, point)
	}
}

// TestPolyMomentsMatchIndependentFilters checks the shared row passes of
// polyExpand against six independent separable filters, bit for bit, on
// asymmetric kernels that tell a swapped x/y kernel or a reordered moment
// apart. Frames smaller than the kernel are all border.
func TestPolyMomentsMatchIndependentFilters(t *testing.T) {
	k0 := []float32{0.2, 0.7, 1, 0.6, 0.1}
	k1 := []float32{-0.5, -0.8, 0, 0.7, 0.3}
	k2 := []float32{0.9, 0.75, 0, 0.65, 0.4}
	for _, workers := range []string{"1", "3"} {
		t.Setenv("ASV_WORKERS", workers)
		for _, sz := range [][2]int{{1, 1}, {3, 2}, {12, 7}, {48, 30}} {
			im := texture(sz[0], sz[1], 0.4)
			got := polyMoments(im, k0, k1, k2)
			for i, k := range [6][2][]float32{{k0, k0}, {k1, k0}, {k0, k1}, {k2, k0}, {k0, k2}, {k1, k1}} {
				want := imgproc.SeparableFilter(im, k[0], k[1])
				for p := range want.Pix {
					if math.Float32bits(got[i].Pix[p]) != math.Float32bits(want.Pix[p]) {
						t.Fatalf("ASV_WORKERS=%s %dx%d: moment %d pixel %d = %v, want %v",
							workers, sz[0], sz[1], i, p, got[i].Pix[p], want.Pix[p])
					}
				}
			}
		}
	}
}
