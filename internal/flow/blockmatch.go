package flow

import (
	"math"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// BlockMatch estimates motion at the granularity of block×block pixel tiles
// by exhaustive SAD search within ±searchR pixels. The returned field
// assigns every pixel of a tile the same motion vector — exactly the
// limitation (no per-pixel motion) that leads the paper to reject block
// matching for ISM's motion-estimation step (Sec. 3.3).
func BlockMatch(prev, next *imgproc.Image, block, searchR int) Field {
	if block < 1 || searchR < 0 {
		panic("flow: invalid BlockMatch parameters")
	}
	out := NewField(prev.W, prev.H)
	// One task per block row: each block writes only its own tile, so the
	// result is bit-identical to the serial scan.
	blockRows := (prev.H + block - 1) / block
	par.ForChunked(blockRows, func(lo, hi int) {
		for br := lo; br < hi; br++ {
			blockMatchRow(prev, next, out, br*block, block, searchR)
		}
	})
	return out
}

// blockMatchRow runs the exhaustive SAD search for every block in the block
// row starting at image row by.
func blockMatchRow(prev, next *imgproc.Image, out Field, by, block, searchR int) {
	for bx := 0; bx < prev.W; bx += block {
		bestSAD := math.Inf(1)
		bestDx, bestDy := 0, 0
		for dy := -searchR; dy <= searchR; dy++ {
			for dx := -searchR; dx <= searchR; dx++ {
				var sad float64
				for y := 0; y < block; y++ {
					for x := 0; x < block; x++ {
						p := prev.At(bx+x, by+y)
						n := next.At(bx+x+dx, by+y+dy)
						sad += math.Abs(float64(p - n))
					}
				}
				if sad < bestSAD {
					bestSAD = sad
					bestDx, bestDy = dx, dy
				}
			}
		}
		for y := by; y < by+block && y < prev.H; y++ {
			for x := bx; x < bx+block && x < prev.W; x++ {
				out.U.Set(x, y, float32(bestDx))
				out.V.Set(x, y, float32(bestDy))
			}
		}
	}
}

// EndpointError returns the mean Euclidean distance between the estimated
// field and a ground-truth field, the standard dense-flow accuracy metric.
func EndpointError(est, gt Field) float64 {
	var s float64
	n := len(est.U.Pix)
	for i := 0; i < n; i++ {
		du := float64(est.U.Pix[i] - gt.U.Pix[i])
		dv := float64(est.V.Pix[i] - gt.V.Pix[i])
		s += math.Sqrt(du*du + dv*dv)
	}
	return s / float64(n)
}
