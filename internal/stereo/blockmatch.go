package stereo

import (
	"fmt"
	"math"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// BMOptions configures SAD block matching.
type BMOptions struct {
	BlockR   int  // block radius: the block is (2r+1)×(2r+1)
	MaxDisp  int  // maximum disparity searched in full-search mode
	Subpixel bool // parabola-fit subpixel refinement around the winner
	// UniqRatio, when positive, invalidates (-1) pixels whose best cost is
	// not at least UniqRatio fractionally better than the runner-up at a
	// non-adjacent disparity — the standard uniqueness test for repetitive
	// texture.
	UniqRatio float64
	// Census switches the matching cost from SAD to census-Hamming with
	// the given window radius (0 disables). Census costs are invariant to
	// per-camera gain/offset, at a small cost in clean-image accuracy.
	Census int
	// Fixed selects nothing: the SAD kernels have one numeric type, uint8
	// samples and uint16 cost cells (DESIGN.md §9). The field stays only
	// because the repository benchmark's workload table assigns it.
	Fixed bool
}

// DefaultBMOptions returns the block-matching configuration used in the ASV
// experiments: 4-pixel radius (9×9 blocks), 64-pixel search, subpixel on.
func DefaultBMOptions() BMOptions {
	return BMOptions{BlockR: 4, MaxDisp: 64, Subpixel: true}
}

// subpixelFit refines a winning integer disparity by fitting a parabola to
// the cost at d-1, d, d+1 (the classic equiangular fit).
func subpixelFit(cm1, c0, cp1 float64) float64 {
	den := cm1 - 2*c0 + cp1
	if den <= 1e-12 {
		return 0
	}
	off := 0.5 * (cm1 - cp1) / den
	if off > 0.5 {
		off = 0.5
	} else if off < -0.5 {
		off = -0.5
	}
	return off
}

// mustSameSize panics unless the two views of a pair share one geometry.
func mustSameSize(left, right *imgproc.Image) {
	if left.W != right.W || left.H != right.H {
		panic(fmt.Sprintf("stereo: image sizes differ %dx%d vs %dx%d", left.W, left.H, right.W, right.H))
	}
}

// Match performs full-search block matching: for every left pixel it scans
// disparities 0..MaxDisp and keeps the winner-take-all disparity. The cost
// is SAD over uint8-quantized samples, or census-Hamming when opt.Census is
// positive.
func Match(left, right *imgproc.Image, opt BMOptions) *imgproc.Image {
	mustSameSize(left, right)
	if opt.Census > 0 {
		cl, cr := census(left, opt.Census), census(right, opt.Census)
		return matchStrips(left.W, left.H, opt, censusRowCost(cl, cr, left.W))
	}
	return matchAD(left, right, opt, float32(math.Inf(1)))
}

// matchAD is the full search over the uint8 absolute-difference cost capped
// at quant8(truncate): plain SAD block matching with the cap at +Inf,
// cost-volume filtering with a finite one.
func matchAD(left, right *imgproc.Image, opt BMOptions, truncate float32) *imgproc.Image {
	l8, r8 := quantize8(left), quantize8(right)
	defer planeFree.Put(l8, r8)
	return matchStrips(left.W, left.H, opt, adRowCost(*l8, *r8, left.W, uint16(quant8(truncate))))
}

// Refine performs ISM's guided correspondence search (paper step 4): for
// every pixel, it searches a 1-D window of ±searchR pixels centred on the
// initial disparity estimate init, and returns the refined disparity map.
// This is dramatically cheaper than Match because searchR << MaxDisp. The
// cost is chosen as in Match.
func Refine(left, right, init *imgproc.Image, searchR int, opt BMOptions) *imgproc.Image {
	mustSameSize(left, right)
	if init.W != left.W || init.H != left.H {
		panic("stereo: initial disparity size mismatch")
	}
	w, br := left.W, opt.BlockR
	if opt.Census > 0 {
		cl, cr := census(left, opt.Census), census(right, opt.Census)
		return refine(init, searchR, br, opt.Subpixel, censusRowSums(cl, cr, w, br))
	}
	l8, r8 := quantize8(left), quantize8(right)
	defer planeFree.Put(l8, r8)
	return refine(init, searchR, br, opt.Subpixel, adRowSums(*l8, *r8, w, br))
}

// refine is the guided-search loop behind Refine: one row range per worker,
// each refineStrip over the cost whose row sums rowSums computes, on
// scratch recycled through refineFree. Every output row depends only on
// init and the images, so the partition does not change the bits.
func refine(init *imgproc.Image, searchR, br int, subpixel bool, rowSums rowSummer) *imgproc.Image {
	out := imgproc.NewImage(init.W, init.H)
	par.ForChunked(init.H, func(y0, y1 int) {
		sc := refineFree.Get()
		refineStrip(init, out, y0, y1, searchR, br, subpixel, rowSums, sc)
		refineFree.Put(sc)
	})
	return out
}

// MatchMACs returns the MAC cost of a full block-matching search on a w×h
// frame (each SAD tap is one accumulate-absolute-difference, the operation
// ASV adds to the PE).
func MatchMACs(w, h int, opt BMOptions) int64 {
	block := int64(2*opt.BlockR + 1)
	return int64(w) * int64(h) * int64(opt.MaxDisp+1) * block * block
}

// RefineMACs returns the MAC cost of the guided search with ±searchR.
func RefineMACs(w, h, searchR int, opt BMOptions) int64 {
	block := int64(2*opt.BlockR + 1)
	return int64(w) * int64(h) * int64(2*searchR+1) * block * block
}

// LeftRightCheck invalidates (sets to -1) disparities that fail the
// left-right consistency test with tolerance tol pixels. dispL is on the
// left grid, dispR on the right grid.
func LeftRightCheck(dispL, dispR *imgproc.Image, tol float64) *imgproc.Image {
	out := dispL.Clone()
	for y := 0; y < dispL.H; y++ {
		for x := 0; x < dispL.W; x++ {
			d := float64(dispL.At(x, y))
			xr := int(math.Round(float64(x) - d))
			if xr < 0 || xr >= dispR.W {
				out.Set(x, y, -1)
				continue
			}
			dr := float64(dispR.At(xr, y))
			if math.Abs(d-dr) > tol {
				out.Set(x, y, -1)
			}
		}
	}
	return out
}
