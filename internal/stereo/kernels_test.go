package stereo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"asv/internal/imgproc"
)

// The matchers are validated against one naive reference (this file):
// per-candidate O(block²) costs summed in float64, one full path-cost volume
// per SGM direction, and one readout. Integer costs are exact in float64, so
// the kernels must match it bit for bit on their uint8 cost. The
// quantized-oracle suite holds them to the drift bound against the same
// reference over the float samples' cost, on the golden-corpus scenes.

// randImage draws dyadic samples k/256 when dyadic is set, arbitrary
// float32 ones otherwise.
func randImage(rng *rand.Rand, w, h int, dyadic bool) *imgproc.Image {
	im := imgproc.NewImage(w, h)
	for i := range im.Pix {
		if dyadic {
			im.Pix[i] = float32(rng.Intn(256)) / 256
		} else {
			im.Pix[i] = rng.Float32()
		}
	}
	// A flat patch forces cost ties, exercising the tie-breaking rule.
	for y := h / 4; y < h/2; y++ {
		for x := w / 4; x < w/2; x++ {
			im.Set(x, y, 0.5)
		}
	}
	return im
}

// randPair returns a random left image and a right view shifted by a
// per-row disparity of 2..6 px.
func randPair(rng *rand.Rand, w, h int, dyadic bool) (*imgproc.Image, *imgproc.Image) {
	left := randImage(rng, w, h, dyadic)
	right := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		d := 2 + y%5
		for x := 0; x < w; x++ {
			right.Pix[y*w+x] = left.At(x+d, y)
		}
	}
	return left, right
}

func sameImage(t *testing.T, name string, got, want *imgproc.Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d != %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for i := range got.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d,%d): got %v want %v", name, i%got.W, i/got.W, got.Pix[i], want.Pix[i])
		}
	}
}

// refCost is the reference's per-pixel matching cost between left column x
// and right column xr of row y, both already inside the image.
type refCost func(x, xr, y int) float64

// refPixelCost builds the per-pixel cost: the absolute difference of the
// uint8-quantized samples when quantized is set (the kernels' SAD cost) or
// of the float samples (the quantized-oracle suite's), capped at limit in
// those units.
func refPixelCost(left, right *imgproc.Image, quantized bool, limit float64) refCost {
	w := left.W
	if quantized {
		l8, r8 := *quantize8(left), *quantize8(right)
		return func(x, xr, y int) float64 {
			return min(math.Abs(float64(l8[y*w+x])-float64(r8[y*w+xr])), limit)
		}
	}
	return func(x, xr, y int) float64 {
		return min(math.Abs(float64(left.Pix[y*w+x]-right.Pix[y*w+xr])), limit)
	}
}

// naiveCensus is the reference for census: every tap of every pixel through
// the clamping At, taps in raster order with the centre skipped.
func naiveCensus(im *imgproc.Image, r int) []uint64 {
	out := make([]uint64, im.W*im.H)
	for p := range out {
		x, y := p%im.W, p/im.W
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				out[p] <<= 1
				if im.At(x+dx, y+dy) < im.At(x, y) {
					out[p] |= 1
				}
			}
		}
	}
	return out
}

// refBlock sums c over the (2r+1)² block around (x, y) at disparity d with
// the family's border rule: clamp the left column, shift, clamp again.
func refBlock(c refCost, w, h, x, y, d, r int) float64 {
	var s float64
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			xx := clampInt(x+dx, 0, w-1)
			s += c(xx, clampInt(xx-d, 0, w-1), clampInt(y+dy, 0, h-1))
		}
	}
	return s
}

// refReadout picks the disparity from costs, where costs[i] belongs to
// disparity lo+i: first minimum, parabola fit.
func refReadout(costs []float64, lo int, subpixel bool) float32 {
	best := 0
	for i, c := range costs {
		if c < costs[best] {
			best = i
		}
	}
	disp := float64(lo + best)
	if subpixel && best > 0 && best < len(costs)-1 {
		disp += subpixelFit(costs[best-1], costs[best], costs[best+1])
	}
	return float32(disp)
}

// naiveMatch is the reference for Match and CostVolumeFilter.
func naiveMatch(c refCost, w, h int, opt BMOptions) *imgproc.Image {
	out := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			costs := make([]float64, min(opt.MaxDisp, x)+1)
			for d := range costs {
				costs[d] = refBlock(c, w, h, x, y, d, opt.BlockR)
			}
			out.Set(x, y, refReadout(costs, 0, opt.Subpixel))
		}
	}
	return out
}

// naiveCVF is the reference for CostVolumeFilter: naiveMatch over the
// absolute difference capped at Truncate, in uint8 units when quantized.
func naiveCVF(left, right *imgproc.Image, opt CVFOptions, quantized bool) *imgproc.Image {
	limit := float64(opt.Truncate)
	if quantized {
		limit = float64(quant8(opt.Truncate))
	}
	return naiveMatch(refPixelCost(left, right, quantized, limit), left.W, left.H,
		BMOptions{BlockR: opt.AggR, MaxDisp: opt.MaxDisp, Subpixel: opt.Subpixel})
}

// naiveRefine is the reference for Refine: per pixel, every candidate's
// block cost from scratch. A NaN guide has no window and leaves the pixel 0;
// an infinite or huge one is a window far outside the row, empty too.
func naiveRefine(c refCost, init *imgproc.Image, searchR int, opt BMOptions) *imgproc.Image {
	w, h := init.W, init.H
	out := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g := float64(init.At(x, y))
			if math.IsNaN(g) {
				continue
			}
			center := int(math.Round(min(max(g, -1e9), 1e9)))
			lo, hi := max(center-searchR, 0), min(center+searchR, x)
			if lo > hi {
				continue
			}
			costs := make([]float64, hi-lo+1)
			for i := range costs {
				costs[i] = refBlock(c, w, h, x, y, lo+i, opt.BlockR)
			}
			out.Set(x, y, refReadout(costs, lo, opt.Subpixel))
		}
	}
	return out
}

// naiveAggregate computes the SGM recurrence with one full path-cost volume
// per direction, in C arithmetic without saturation: uint16 is what
// aggregate computes, float32 what a float SGM would.
func naiveAggregate[C uint16 | float32](cost []uint8, w, h, nd, paths int, p1, p2 C) []C {
	sum := make([]C, w*h*nd)
	for _, dir := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, 1}, {1, -1}, {-1, -1}}[:paths] {
		dx, dy := dir[0], dir[1]
		lr := make([]C, w*h*nd)
		// Visit pixels so that the predecessor along (dx,dy) is already done.
		for i := 0; i < h; i++ {
			y := i
			if dy < 0 {
				y = h - 1 - i
			}
			for j := 0; j < w; j++ {
				x := j
				if dx < 0 {
					x = w - 1 - j
				}
				base := (y*w + x) * nd
				px, py := x-dx, y-dy
				if px < 0 || px >= w || py < 0 || py >= h {
					for d := 0; d < nd; d++ {
						lr[base+d] = C(cost[base+d])
					}
					continue
				}
				prev := lr[(py*w+px)*nd:][:nd]
				minPrev := prev[0]
				for _, v := range prev {
					minPrev = min(minPrev, v)
				}
				for d := 0; d < nd; d++ {
					best := min(prev[d], minPrev+p2)
					if d > 0 {
						best = min(best, prev[d-1]+p1)
					}
					if d+1 < nd {
						best = min(best, prev[d+1]+p1)
					}
					lr[base+d] = C(cost[base+d]) + best - minPrev
				}
			}
		}
		for i := range sum {
			sum[i] += lr[i]
		}
	}
	return sum
}

// naiveSGM is the reference for SGM.
func naiveSGM(left, right *imgproc.Image, opt SGMOptions) *imgproc.Image {
	w, h, nd := left.W, left.H, opt.MaxDisp+1
	cl, cr := naiveCensus(left, opt.CensusR), naiveCensus(right, opt.CensusR)
	cost := make([]uint8, w*h*nd)
	for i := range cost {
		cost[i] = uint8((2*opt.CensusR+1)*(2*opt.CensusR+1) - 1) // out of view
		if p, d := i/nd, i%nd; p%w >= d {
			cost[i] = uint8(bits.OnesCount64(cl[p] ^ cr[p-d]))
		}
	}
	sum := naiveAggregate(cost, w, h, nd, opt.Paths, roundPenalty(opt.P1), roundPenalty(opt.P2))
	out := imgproc.NewImage(w, h)
	for p := range out.Pix {
		costs := make([]float64, min(nd-1, p%w)+1)
		for d := range costs {
			costs[d] = float64(sum[p*nd+d])
		}
		out.Pix[p] = refReadout(costs, 0, opt.Subpixel)
	}
	return out
}

// driftFracs returns the fraction of pixels whose disparities differ by more
// than one level, and the fraction whose integer winner differs.
func driftFracs(a, b *imgproc.Image) (off1, winner float64) {
	for i := range a.Pix {
		if math.Abs(float64(a.Pix[i]-b.Pix[i])) > 1 {
			off1++
		}
		if a.Pix[i] != b.Pix[i] {
			winner++
		}
	}
	n := float64(len(a.Pix))
	return off1 / n, winner / n
}

func TestMatchFixedAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i, tc := range []struct{ w, h, r, maxD int }{
		{37, 70, 2, 21}, // spans three strips
		{64, 33, 1, 40}, // disparity range near the width
		{29, 31, 0, 8},  // single-pixel blocks
	} {
		left, right := randPair(rng, tc.w, tc.h, true)
		opt := BMOptions{BlockR: tc.r, MaxDisp: tc.maxD, Subpixel: true}
		want := naiveMatch(refPixelCost(left, right, true, math.Inf(1)), tc.w, tc.h, opt)
		sameImage(t, fmt.Sprintf("case %d", i), Match(left, right, opt), want)
	}
}

func TestRefineAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, g := range []struct {
		name             string
		w, h, br         int
		dyadic           bool
		initLo, initSpan int // init = initLo + [0, initSpan) - 0.5
	}{
		// Negative and oversized guesses, interior and border sums.
		{"mixed", 41, 35, 2, true, -1, 12},
		// w <= 2·br + R with every guess >= 0: each candidate window of each
		// pixel leaves the row on one side or the other.
		{"all border", 7, 9, 2, false, 1, 6},
		{"shorter than the block", 40, 4, 2, false, 0, 6},
		// Small guesses on a wide frame: only the frame's rim is border.
		{"mostly interior", 64, 40, 1, false, 0, 4},
		// Taller than a matcher strip; with two or more workers the refine
		// splits it into row ranges, and this covers the rows at a seam.
		{"two strips", 48, stripRows + 9, 2, false, 2, 9},
	} {
		left, right := randPair(rng, g.w, g.h, g.dyadic)
		init := imgproc.NewImage(g.w, g.h)
		for i := range init.Pix {
			init.Pix[i] = float32(g.initLo+rng.Intn(g.initSpan)) - 0.5
		}
		opt := BMOptions{BlockR: g.br, Subpixel: true}
		c := refPixelCost(left, right, true, math.Inf(1))
		sameImage(t, g.name+": refine", Refine(left, right, init, 3, opt), naiveRefine(c, init, 3, opt))
	}
}

// The row-sum kernel against the per-candidate reference it replaces, on
// every (x, y, d ≤ x) of a frame — sums that read inside the row and sums
// that clamp — the candidate's row sums added in dy order as refineStrip
// adds them.
func TestInteriorBlockCostsMatchClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w, h := 23, 17
	left, right := randImage(rng, w, h, false), randImage(rng, w, h, false)
	c := refPixelCost(left, right, true, math.Inf(1))
	for _, br := range []int{0, 1, 2, 3} {
		sad := blockCosts(*quantize8(left), *quantize8(right), w, h, br)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for d := 0; d <= x; d++ {
					got, want := sad(x, y, d), refBlock(c, w, h, x, y, d, br)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("br=%d (%d,%d) d=%d: %x, want %x", br, x, y, d, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// blockCosts runs adRowSums over every row of the w×h planes l8 and r8 with
// each column's band the whole [0, x], and returns the block cost of
// (x, y, d) summed from those row sums as refineStrip sums them.
func blockCosts(l8, r8 []uint8, w, h, br int) func(x, y, d int) float64 {
	lo, hi := make([]int32, w), make([]int32, w)
	for x := range hi {
		hi[x] = int32(x)
	}
	n := w * (w + 1) / 2
	sums := make([]uint32, h*n)
	for yy := 0; yy < h; yy++ {
		adRowSums(l8, r8, w, br, yy, lo, hi, sums[yy*n:][:n])
	}
	return func(x, y, d int) float64 {
		c := make([]uint32, 1)
		for dy := -br; dy <= br; dy++ {
			addRowSums(c, sums[clampInt(y+dy, 0, h-1)*n+x*(x+1)/2+d:])
		}
		return float64(c[0])
	}
}

// A guide that Go cannot convert to int portably — NaN, ±Inf, or a
// magnitude past the int range — leaves its pixel 0 before it can reach a
// window or a band, and the strip's other pixels match the reference.
func TestRefineNonFiniteGuides(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	w, h := 33, 21
	left, right := randPair(rng, w, h, false)
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30, -1e30}
	init := imgproc.NewImage(w, h)
	for i := range init.Pix {
		init.Pix[i] = float32(2 + rng.Intn(5))
		if i%7 == 3 {
			init.Pix[i] = bad[i%len(bad)]
		}
	}
	opt := BMOptions{BlockR: 2, Subpixel: true}
	got := Refine(left, right, init, 3, opt)
	sameImage(t, "refine", got, naiveRefine(refPixelCost(left, right, true, math.Inf(1)), init, 3, opt))
	for i := 3; i < len(got.Pix); i += 7 {
		if got.Pix[i] != 0 {
			t.Fatalf("pixel %d with guide %v refined to %v, want 0", i, init.Pix[i], got.Pix[i])
		}
	}
}

// Refine reads right through left's geometry: a right view of another size
// must be refused like Match refuses it, not read out of step.
func TestRefineRejectsMismatchedRight(t *testing.T) {
	left, init := imgproc.NewImage(8, 6), imgproc.NewImage(8, 6)
	for _, right := range []*imgproc.Image{imgproc.NewImage(6, 8), imgproc.NewImage(8, 5), imgproc.NewImage(9, 6)} {
		func() {
			defer func() {
				want := fmt.Sprintf("stereo: image sizes differ 8x6 vs %dx%d", right.W, right.H)
				if got := recover(); got != want {
					t.Errorf("right %dx%d: panic %v, want %q", right.W, right.H, got, want)
				}
			}()
			Refine(left, right, init, 2, BMOptions{BlockR: 1})
		}()
	}
}

// The rolling-row aggregation must equal the per-direction full-volume
// recurrence — in uint16, and in the float32 arithmetic of a float SGM,
// where every intermediate at integral penalties is a small exact integer.
func TestAggregateFixedAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w, h, nd := 23, 17, 12
	cost := make([]uint8, w*h*nd)
	for i := range cost {
		cost[i] = uint8(rng.Intn(25))
	}
	for _, paths := range []int{4, 8} {
		got := aggregate(cost, w, h, nd, paths, 1, 7)
		wantU := naiveAggregate[uint16](cost, w, h, nd, paths, 1, 7)
		wantF := naiveAggregate[float32](cost, w, h, nd, paths, 1, 7)
		for i := range got {
			if got[i] != wantU[i] || float32(got[i]) != wantF[i] {
				t.Fatalf("paths=%d: cell %d: got %d want %d (uint16) %v (float32)", paths, i, got[i], wantU[i], wantF[i])
			}
		}
	}
}

// SGM has one implementation: Fixed on and off must give the same bits, and
// both the reference's.
func TestSGMFixedMatchesFloatBitExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	left, right := randPair(rng, 41, 29, false)
	for _, paths := range []int{4, 8} {
		opt := DefaultSGMOptions()
		opt.MaxDisp = 16
		opt.Paths = paths
		want := naiveSGM(left, right, opt)
		sameImage(t, "sgm", SGM(left, right, opt), want)
		opt.Fixed = true
		sameImage(t, "sgm fixed", SGM(left, right, opt), want)
	}
}

// Penalties are integer cost units: fractional P1/P2 round to nearest.
func TestSGMFractionalPenaltiesRound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	left, right := randPair(rng, 41, 29, false)
	opt := DefaultSGMOptions()
	opt.MaxDisp = 16
	opt.P1, opt.P2 = 2, 7
	want := SGM(left, right, opt)
	opt.P1, opt.P2 = 1.6, 7.4
	sameImage(t, "rounded penalties", SGM(left, right, opt), want)
	opt.P1, opt.P2 = 1, 8
	if _, winner := driftFracs(SGM(left, right, opt), want); winner == 0 {
		t.Fatal("penalties had no effect; the rounding check proves nothing")
	}
}

// Cost-volume filtering is the family's block cost over the truncated-AD
// row: the plane kernels and the matcher must equal the reference.
func TestCVFPlaneKernelsAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	w, h := 31, 22
	left, right := randPair(rng, w, h, true)
	const d, nd, trunc = 5, 6, 0.125
	cu := refPixelCost(left, right, true, float64(quant8(trunc)))
	for _, r := range []int{0, 2, 3} {
		u16 := make([]uint16, h*nd*w)
		blockCostStrip(*quantize8(left), *quantize8(right), uint16(quant8(trunc)),
			w, h, 0, h, r, nd, make([]uint16, w), make([]uint16, (h+2*r)*w), make([]uint32, w), u16)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := (y*nd+d)*w + x
				if got, want := float64(u16[i]), refBlock(cu, w, h, x, y, d, r); got != want {
					t.Fatalf("plane r=%d (%d,%d): got %v want %v", r, x, y, got, want)
				}
			}
		}
	}
	opt := CVFOptions{MaxDisp: 12, AggR: 2, Truncate: trunc, Subpixel: true}
	sameImage(t, "cvf", CostVolumeFilter(left, right, opt), naiveCVF(left, right, opt, true))
}

func TestQuantize8(t *testing.T) {
	im := imgproc.NewImage(7, 1)
	copy(im.Pix, []float32{-0.5, 0, 0.5, 1, 1.5, 1 / 255.0, 0.0009})
	got := *quantize8(im)
	want := []uint8{0, 0, 128, 255, 255, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quantize8[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSatMath(t *testing.T) {
	// Window sums past the cell range saturate on store instead of wrapping
	// (a wrapped cost would win winner-take-all).
	src := []uint16{40000, 30000, 5, 20000, 50000}
	dst := make([]uint16, len(src))
	slideRow(src, len(src), 1, dst)
	for x, want := range []uint16{65535, 65535, 50005, 65535, 65535} {
		if dst[x] != want {
			t.Fatalf("slideRow[%d] = %d, want %d", x, dst[x], want)
		}
	}
}

func TestMatchFixedDisparityQualityOnShiftedPair(t *testing.T) {
	// A pure horizontal shift must be recovered almost everywhere.
	rng := rand.New(rand.NewSource(71))
	w, h := 64, 40
	left := randImage(rng, w, h, false)
	right := imgproc.NewImage(w, h)
	const shift = 6
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			right.Pix[y*w+x] = left.At(x+shift, y)
		}
	}
	opt := BMOptions{BlockR: 3, MaxDisp: 16}
	disp := Match(left, right, opt)
	bad := 0
	for y := 4; y < h-4; y++ {
		for x := shift + opt.BlockR + 1; x < w-4; x++ {
			if math.Abs(float64(disp.At(x, y))-shift) > 1 {
				bad++
			}
		}
	}
	if frac := float64(bad) / float64(w*h); frac > 0.05 {
		t.Fatalf("match missed the shift on %.1f%% of pixels", 100*frac)
	}
}

// Degenerate geometry reaches the clamped fallback paths of every kernel;
// each entry point must keep the output geometry and the reference's bits.
func TestDegenerateGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, g := range []struct {
		name                   string
		w, h, r, maxD, searchR int
		invalidInit            bool
	}{
		{"1x1", 1, 1, 2, 4, 2, false},
		{"one column", 1, 9, 2, 4, 2, false},
		{"one row", 9, 1, 2, 4, 2, false},
		{"w <= 2r", 6, 7, 3, 4, 2, false},
		{"maxdisp >= w", 7, 5, 1, 9, 2, false},
		{"maxdisp = 0", 8, 6, 1, 0, 2, false},
		{"r = 0", 8, 6, 0, 5, 2, false},
		{"searchR = 0", 8, 6, 1, 5, 0, false},
		{"all-invalid init", 8, 6, 1, 5, 2, true},
	} {
		left, right := randPair(rng, g.w, g.h, true)
		init := imgproc.NewImage(g.w, g.h)
		for i := range init.Pix {
			init.Pix[i] = -1
			if !g.invalidInit {
				init.Pix[i] = float32(rng.Intn(g.maxD + 1))
			}
		}
		opt := BMOptions{BlockR: g.r, MaxDisp: g.maxD, Subpixel: true}
		c := refPixelCost(left, right, true, math.Inf(1))
		sameImage(t, g.name+" match", Match(left, right, opt), naiveMatch(c, g.w, g.h, opt))
		sameImage(t, g.name+" refine", Refine(left, right, init, g.searchR, opt), naiveRefine(c, init, g.searchR, opt))
		cvf := CVFOptions{MaxDisp: g.maxD, AggR: g.r, Truncate: 0.125, Subpixel: true}
		sameImage(t, g.name+" cvf", CostVolumeFilter(left, right, cvf), naiveCVF(left, right, cvf, true))
		sgm := SGMOptions{MaxDisp: g.maxD, CensusR: 2, P1: 1, P2: 8, Paths: 8, Subpixel: true}
		sameImage(t, g.name+" sgm", SGM(left, right, sgm), naiveSGM(left, right, sgm))
	}
}

// Strips, rows and planes are split across par workers; the split must not
// show in the output.
func TestWorkerCountDoesNotChangeBits(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	left, right := randPair(rng, 45, 70, false)
	run := func() []*imgproc.Image {
		return []*imgproc.Image{
			Match(left, right, BMOptions{BlockR: 2, MaxDisp: 20, Subpixel: true}),
			CostVolumeFilter(left, right, CVFOptions{MaxDisp: 20, AggR: 2, Truncate: 0.12, Subpixel: true}),
			SGM(left, right, SGMOptions{MaxDisp: 20, CensusR: 2, P1: 1, P2: 8, Paths: 8, Subpixel: true}),
		}
	}
	t.Setenv("ASV_WORKERS", "1")
	want := run()
	for _, workers := range []string{"2", "3"} {
		t.Setenv("ASV_WORKERS", workers)
		for i, got := range run() {
			sameImage(t, fmt.Sprintf("workers=%s output %d", workers, i), got, want[i])
		}
	}
}
