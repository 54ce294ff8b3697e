package flow

import (
	"math"
	"math/rand"
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
				want := imgproc.FilterCols(imgproc.FilterRows(im, k[0]), k[1])
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

// polySolve multiplies nine entries of G⁻¹ where the definition multiplies
// all thirty-six: the other entries must be exact zeros for every window
// the options can ask for, and the coefficients must equal the full
// product's bit for bit.
func TestPolySolveMatchesFullProduct(t *testing.T) {
	nonZero := map[[2]int]bool{{1, 1}: true, {2, 2}: true, {5, 5}: true,
		{3, 0}: true, {3, 3}: true, {3, 4}: true, {4, 0}: true, {4, 3}: true, {4, 4}: true}
	im := texture(37, 23, 0.7)
	for _, r := range []int{1, 2, 3, 4} {
		for _, sigma := range []float64{0.5, 1.1, 1.5, 3} {
			k0, k1, k2, ginv, ok := polyBasis(r, sigma)
			if !ok {
				t.Fatalf("r=%d σ=%v: singular normal matrix", r, sigma)
			}
			for row := 1; row < 6; row++ {
				for col := 0; col < 6; col++ {
					if !nonZero[[2]int{row, col}] && ginv[row][col] != 0 {
						t.Fatalf("r=%d σ=%v: G⁻¹[%d][%d] = %g, want an exact zero", r, sigma, row, col, ginv[row][col])
					}
				}
			}
			got := polyExpand(im, r, sigma)
			mom := polyMoments(im, k0, k1, k2)
			for i := range im.Pix {
				for row, plane := range []*imgproc.Image{nil, got.bx, got.by, got.axx, got.ayy, got.axy} {
					if plane == nil {
						continue
					}
					var acc float64
					for col := 0; col < 6; col++ {
						acc += ginv[row][col] * float64(mom[col].Pix[i])
					}
					if math.Float32bits(plane.Pix[i]) != math.Float32bits(float32(acc)) {
						t.Fatalf("r=%d σ=%v pixel %d coefficient %d: %v, want %v", r, sigma, i, row, plane.Pix[i], float32(acc))
					}
				}
			}
			got.put()
		}
	}
}

// An expansion is read, never consumed: the middle frame's, built once and
// used as next and then as prev, gives both estimates Farneback's bits.
func TestExpansionReuseMatchesFarneback(t *testing.T) {
	a := texture(48, 40, 0.2)
	b := shifted(a, 0.8, -0.5)
	c := shifted(b, 1.1, 0.3)
	opt := DefaultOptions()
	ea, eb, ec := Expand(a, opt), Expand(b, opt), Expand(c, opt)
	for i, pair := range [][2]Field{
		{FarnebackExpanded(ea, eb, opt), Farneback(a, b, opt)},
		{FarnebackExpanded(eb, ec, opt), Farneback(b, c, opt)},
	} {
		got, want := pair[0], pair[1]
		for p := range want.U.Pix {
			if math.Float32bits(got.U.Pix[p]) != math.Float32bits(want.U.Pix[p]) ||
				math.Float32bits(got.V.Pix[p]) != math.Float32bits(want.V.Pix[p]) {
				t.Fatalf("estimate %d pixel %d: (%v, %v), want (%v, %v)", i, p, got.U.Pix[p], got.V.Pix[p], want.U.Pix[p], want.V.Pix[p])
			}
		}
	}
	for _, e := range []*Expansion{ea, eb, ec} {
		e.Put()
	}
}

// naiveFlowIteration is the definition flowIteration computes, one full
// plane per step: the per-pixel system (matrix update) into five planes,
// each plane through imgproc.FilterRows and FilterCols, then the 2×2 solve. cur is
// read as it is, so a scaled read is compared against a scaled copy.
func naiveFlowIteration(c1, c2 polyCoeffs, cur Field, win []float32) Field {
	w, h := cur.U.W, cur.U.H
	var sys [5]*imgproc.Image
	for c := range sys {
		sys[c] = imgproc.NewImage(w, h)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			du, dv := float64(cur.U.Pix[i]), float64(cur.V.Pix[i])
			x2 := int(math.Round(float64(x) + du))
			y2 := int(math.Round(float64(y) + dv))
			a11 := float64((float64(c1.axx.Pix[i]) + float64(c2.axx.At(x2, y2))) / 2)
			a22 := float64((float64(c1.ayy.Pix[i]) + float64(c2.ayy.At(x2, y2))) / 2)
			a12 := float64((float64(c1.axy.Pix[i]) + float64(c2.axy.At(x2, y2))) / 4)
			db1 := float64(-0.5*(float64(c2.bx.At(x2, y2))-float64(c1.bx.Pix[i]))) + float64(a11*du) + float64(a12*dv)
			db2 := float64(-0.5*(float64(c2.by.At(x2, y2))-float64(c1.by.Pix[i]))) + float64(a12*du) + float64(a22*dv)
			sys[0].Pix[i] = float32(float64(a11*a11) + float64(a12*a12))
			sys[1].Pix[i] = float32(a12 * (a11 + a22))
			sys[2].Pix[i] = float32(float64(a22*a22) + float64(a12*a12))
			sys[3].Pix[i] = float32(float64(a11*db1) + float64(a12*db2))
			sys[4].Pix[i] = float32(float64(a12*db1) + float64(a22*db2))
		}
	}
	for c := range sys {
		sys[c] = imgproc.FilterCols(imgproc.FilterRows(sys[c], win), win)
	}
	out := Field{U: imgproc.NewImage(w, h), V: imgproc.NewImage(w, h)}
	for i := range out.U.Pix {
		a, b, c := float64(sys[0].Pix[i]), float64(sys[1].Pix[i]), float64(sys[2].Pix[i])
		det := float64(a*c) - float64(b*b)
		if math.Abs(det) < 1e-9 {
			out.U.Pix[i], out.V.Pix[i] = cur.U.Pix[i], cur.V.Pix[i]
			continue
		}
		h1, h2 := float64(sys[3].Pix[i]), float64(sys[4].Pix[i])
		out.U.Pix[i] = float32((float64(c*h1) - float64(b*h2)) / det)
		out.V.Pix[i] = float32((float64(a*h2) - float64(b*h1)) / det)
	}
	return out
}

// checkFlowIteration runs flowIteration on one w×h pair of frames and a
// displacement field drawn from seed, with the given read scale and
// amplitude, and compares it bit for bit against naiveFlowIteration.
// Amplitudes of a few pixels and more send displaced lookups outside the
// frame; a flat frame makes every system singular.
func checkFlowIteration(t *testing.T, w, h int, seed int64, scale, amp float32, flat bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b := texture(w, h, float64(seed%5)), texture(w, h, float64(seed%5)+0.4)
	if flat {
		a, b = imgproc.NewImage(w, h), imgproc.NewImage(w, h)
		for i := range a.Pix {
			a.Pix[i], b.Pix[i] = 0.5, 0.5
		}
	}
	opt := DefaultOptions()
	c1, c2 := polyExpand(a, opt.PolyR, opt.PolySigma), polyExpand(b, opt.PolyR, opt.PolySigma)
	cur, scaled := NewField(w, h), NewField(w, h)
	for i := range cur.U.Pix {
		cur.U.Pix[i] = amp * float32(rng.NormFloat64())
		cur.V.Pix[i] = amp * float32(rng.NormFloat64())
		scaled.U.Pix[i], scaled.V.Pix[i] = scale*cur.U.Pix[i], scale*cur.V.Pix[i]
	}
	win := imgproc.GaussianKernel1D(opt.WinSigma)
	got := flowIteration(c1, c2, cur, scale, win)
	want := naiveFlowIteration(c1, c2, scaled, win)
	for p := range want.U.Pix {
		if math.Float32bits(got.U.Pix[p]) != math.Float32bits(want.U.Pix[p]) ||
			math.Float32bits(got.V.Pix[p]) != math.Float32bits(want.V.Pix[p]) {
			t.Fatalf("%dx%d seed %d scale %v amp %v flat %v: pixel (%d, %d) = (%v, %v), want (%v, %v)",
				w, h, seed, scale, amp, flat, p%w, p/w, got.U.Pix[p], got.V.Pix[p], want.U.Pix[p], want.V.Pix[p])
		}
	}
	c1.put()
	c2.put()
	PutField(cur)
	PutField(scaled)
	PutField(got)
}

// TestFlowIterationMatchesReference checks the banded iteration against
// the seven-pass definition bit for bit: frames a pixel wide or tall,
// frames narrower or shorter than the 13-tap window (every sample is
// border), odd sizes and the offline flow size, across worker counts that
// split the rows unevenly, with displacements that leave the frame and
// frames that leave every system singular.
func TestFlowIterationMatchesReference(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {17, 1}, {1, 17}, {5, 12}, {12, 5}, {13, 13}, {14, 14}, {23, 37}, {96, 60}}
	for _, workers := range []string{"1", "2", "3", "7"} {
		t.Setenv("ASV_WORKERS", workers)
		for i, sz := range sizes {
			seed := int64(i)
			checkFlowIteration(t, sz[0], sz[1], seed, 1, 0.7, false)
			checkFlowIteration(t, sz[0], sz[1], seed, 2, 0.7, false)
			checkFlowIteration(t, sz[0], sz[1], seed, 1, 9, false)
			checkFlowIteration(t, sz[0], sz[1], seed, 1, 0.7, true)
			checkFlowIteration(t, sz[0], sz[1], seed, 2, 0.7, true)
		}
	}
}

func FuzzFlowIterationMatchesReference(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(0), false, float32(0.5), false)
	f.Add(uint8(13), uint8(7), int64(3), true, float32(6), false)
	f.Add(uint8(40), uint8(31), int64(9), false, float32(2), true)
	f.Fuzz(func(t *testing.T, w, h uint8, seed int64, double bool, amp float32, flat bool) {
		if w == 0 || h == 0 || w > 64 || h > 64 || !(amp >= 0 && amp <= 64) {
			t.Skip()
		}
		scale := float32(1)
		if double {
			scale = 2
		}
		checkFlowIteration(t, int(w), int(h), seed, scale, amp, flat)
	})
}

// The row pass is imgproc.FilterRows per channel, bit for bit, on a row
// with runs of −0 longer than the window: a sample that started at its
// first product instead of at +0 would keep the −0, which no 2×2 solve of
// a whole iteration is sure to show.
func TestBlurRowMatchesFilterRows(t *testing.T) {
	win := imgproc.GaussianKernel1D(DefaultOptions().WinSigma)
	r := len(win) / 2
	negZero := float32(math.Copysign(0, -1))
	for _, w := range []int{1, 5, 40} {
		var planes [5]*imgproc.Image
		for c := range planes {
			planes[c] = imgproc.NewImage(w, 1)
			for x := range planes[c].Pix {
				planes[c].Pix[x] = negZero
				if (x/16+c)%2 == 1 {
					planes[c].Pix[x] = float32(math.Sin(float64(3*x + c)))
				}
			}
		}
		row := make([]system, w+2*r)
		for x := 0; x < w; x++ {
			row[r+x] = system{planes[0].Pix[x], planes[1].Pix[x], planes[2].Pix[x], planes[3].Pix[x], planes[4].Pix[x]}
		}
		padRow(row, r)
		got := make([]system, w)
		blurRow(got, row, win)
		for c, plane := range planes {
			want := imgproc.FilterRows(plane, win)
			for x, s := range got {
				g := [5]float32{s.g11, s.g12, s.g22, s.h1, s.h2}[c]
				if math.Float32bits(g) != math.Float32bits(want.Pix[x]) {
					t.Fatalf("w=%d channel %d x=%d: %v, want %v", w, c, x, g, want.Pix[x])
				}
			}
		}
	}
}
