package flow

import (
	"asv/internal/imgproc"
	"asv/internal/par"
)

// HornSchunck estimates dense optical flow with the classic variational
// method (Horn & Schunck 1981, the paper's reference [34]): brightness
// constancy plus a global smoothness prior, solved by Jacobi iteration.
//
// The method is dense but has no pyramid, so it only converges for small
// displacements — one of the limitations that leads the paper to
// Farneback for ISM's motion-estimation step. It is included as a real
// implementation for the Sec. 3.3 ablation.
type HSOptions struct {
	Alpha float64 // smoothness weight (larger = smoother field)
	Iters int     // Jacobi iterations
}

// DefaultHSOptions returns a configuration converged for sub-pixel motion
// on unit-range images (α is relative to gradient magnitudes, which are
// ~0.1 for [0,1] pixels).
func DefaultHSOptions() HSOptions { return HSOptions{Alpha: 0.1, Iters: 200} }

// HornSchunck computes the dense flow from prev to next. The Jacobi sweeps
// are row-parallel (each sweep reads only the previous iterate, so rows are
// independent) and ping-pong between two field buffers instead of
// allocating per iteration.
func HornSchunck(prev, next *imgproc.Image, opt HSOptions) Field {
	if prev.W != next.W || prev.H != next.H {
		panic("flow: frame sizes differ")
	}
	if opt.Iters < 1 {
		opt.Iters = 1
	}
	w, h := prev.W, prev.H

	// Spatiotemporal derivatives (averaged over the two frames, as in the
	// original formulation).
	ix := imgproc.GetImage(w, h)
	iy := imgproc.GetImage(w, h)
	it := imgproc.GetImage(w, h)
	gx1, gy1 := imgproc.GradX(prev), imgproc.GradY(prev)
	gx2, gy2 := imgproc.GradX(next), imgproc.GradY(next)
	for i := range ix.Pix {
		ix.Pix[i] = (gx1.Pix[i] + gx2.Pix[i]) / 2
		iy.Pix[i] = (gy1.Pix[i] + gy2.Pix[i]) / 2
		it.Pix[i] = next.Pix[i] - prev.Pix[i]
	}
	imgproc.PutImage(gx1)
	imgproc.PutImage(gy1)
	imgproc.PutImage(gx2)
	imgproc.PutImage(gy2)

	cur := NewField(w, h)
	nxt := NewField(w, h)
	alpha2 := float32(opt.Alpha * opt.Alpha)
	avg := func(im *imgproc.Image, x, y int) float32 {
		// Horn-Schunck's weighted neighbourhood average.
		return (im.At(x-1, y)+im.At(x+1, y)+im.At(x, y-1)+im.At(x, y+1))/6 +
			(im.At(x-1, y-1)+im.At(x+1, y-1)+im.At(x-1, y+1)+im.At(x+1, y+1))/12
	}
	for iter := 0; iter < opt.Iters; iter++ {
		par.ForChunked(h, func(ylo, yhi int) {
			for y := ylo; y < yhi; y++ {
				for x := 0; x < w; x++ {
					ub := avg(cur.U, x, y)
					vb := avg(cur.V, x, y)
					i := y*w + x
					gxv, gyv, gtv := ix.Pix[i], iy.Pix[i], it.Pix[i]
					num := float32(gxv*ub) + float32(gyv*vb) + gtv
					den := alpha2 + float32(gxv*gxv) + float32(gyv*gyv)
					nxt.U.Pix[i] = ub - gxv*num/den
					nxt.V.Pix[i] = vb - gyv*num/den
				}
			}
		})
		cur, nxt = nxt, cur
	}
	imgproc.PutImage(ix)
	imgproc.PutImage(iy)
	imgproc.PutImage(it)
	PutField(nxt)
	return cur
}

// HornSchunckMACs estimates the arithmetic cost: derivative construction
// plus ~20 MACs per pixel per Jacobi iteration.
func HornSchunckMACs(w, h int, opt HSOptions) int64 {
	pix := int64(w) * int64(h)
	return pix*12 + int64(opt.Iters)*pix*20
}
