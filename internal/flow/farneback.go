// Package flow implements dense motion estimation for ASV's non-key
// frames: the Farneback polynomial-expansion optical flow algorithm chosen
// by the paper (Sec. 3.3), plus the block-matching and Horn-Schunck
// estimators the motion-estimator ablation compares it against.
//
// Farneback's algorithm approximates each pixel neighbourhood with a
// quadratic polynomial f(x) ≈ xᵀAx + bᵀx + c fitted under a Gaussian
// weighting, and recovers the displacement between two frames from the way
// the polynomial coefficients shift. As the paper observes, 99% of the
// compute is three kernels — Gaussian blur (a convolution), "Compute Flow"
// and "Matrix Update" (pointwise) — which is what lets ASV map it onto a DNN
// accelerator.
package flow

import (
	"fmt"
	"math"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// Field is a dense motion field: U and V hold the horizontal and vertical
// displacement of every pixel.
type Field struct {
	U, V *imgproc.Image
}

// NewField returns a zero (no-motion) field of the given size. The buffers
// come from the image pool, so fields released with PutField recycle.
func NewField(w, h int) Field {
	return Field{U: imgproc.GetImage(w, h), V: imgproc.GetImage(w, h)}
}

// Clone returns a deep copy of the field.
func (f Field) Clone() Field {
	return Field{U: f.U.Clone(), V: f.V.Clone()}
}

// PutField returns a field's buffers to the image pool. The caller must not
// use f afterwards.
func PutField(f Field) {
	imgproc.PutImage(f.U)
	imgproc.PutImage(f.V)
}

// Options configures the Farneback estimator.
type Options struct {
	Levels    int     // pyramid levels (>=1)
	PyrSigma  float64 // Gaussian sigma used when building the pyramid
	PolySigma float64 // sigma of the polynomial-expansion applicability
	PolyR     int     // radius of the polynomial-expansion window
	WinSigma  float64 // sigma of the displacement-aggregation window
	Iters     int     // refinement iterations per level
}

// DefaultOptions returns the configuration used throughout the ASV
// experiments: 3 pyramid levels, a 5×5 polynomial window and 3 iterations.
func DefaultOptions() Options {
	return Options{
		Levels:    3,
		PyrSigma:  0.9,
		PolySigma: 1.1,
		PolyR:     2,
		WinSigma:  1.8,
		Iters:     3,
	}
}

// polyCoeffs holds the per-pixel quadratic coefficients
// f ≈ c + bx·x + by·y + axx·x² + ayy·y² + axy·xy.
type polyCoeffs struct {
	bx, by        *imgproc.Image
	axx, ayy, axy *imgproc.Image
}

// polyExpand fits the quadratic model at every pixel by weighted least
// squares with a Gaussian applicability of radius r and the given sigma.
// Because the weighting is identical at every pixel, the normal-equation
// matrix G is constant and is inverted once; the per-pixel moment images are
// separable correlations, exactly the structure ASV maps onto convolution
// hardware.
func polyExpand(im *imgproc.Image, r int, sigma float64) polyCoeffs {
	k0, k1, k2, ginv := polyBasis(r, sigma)
	mom := polyMoments(im, k0, k1, k2)
	p := polyCoeffs{
		bx:  imgproc.GetImage(im.W, im.H),
		by:  imgproc.GetImage(im.W, im.H),
		axx: imgproc.GetImage(im.W, im.H),
		ayy: imgproc.GetImage(im.W, im.H),
		axy: imgproc.GetImage(im.W, im.H),
	}
	par.ForChunked(len(im.Pix), func(lo, hi int) { polySolve(mom, &ginv, p, lo, hi) })
	for _, m := range mom {
		imgproc.PutImage(m)
	}
	return p
}

// polyBasis returns the 1-D moment kernels k0 = a, k1 = x·a, k2 = x²·a of
// the Gaussian applicability a of radius r, and the inverse of the normal
// matrix G over the basis (1, x, y, x², y², xy).
func polyBasis(r int, sigma float64) (k0, k1, k2 []float32, ginv [6][6]float64) {
	if r < 1 {
		panic(fmt.Sprintf("flow: polynomial radius %d < 1", r))
	}
	n := 2*r + 1
	a := make([]float64, n)
	for i := -r; i <= r; i++ {
		a[i+r] = math.Exp(-float64(i*i) / (2 * sigma * sigma))
	}
	k0, k1, k2 = make([]float32, n), make([]float32, n), make([]float32, n)
	for i := -r; i <= r; i++ {
		k0[i+r] = float32(a[i+r])
		k1[i+r] = float32(float64(i) * a[i+r])
		k2[i+r] = float32(float64(i*i) * a[i+r])
	}
	var s0, s2, s4, s22 float64
	for i := -r; i <= r; i++ {
		for j := -r; j <= r; j++ {
			w := float64(a[i+r] * a[j+r])
			s0 += w
			s2 += float64(w * float64(j*j))
			s4 += float64(w * float64(j*j*j*j))
			s22 += float64(w * float64(i*i*j*j))
		}
	}
	g := [6][6]float64{
		{s0, 0, 0, s2, s2, 0},
		{0, s2, 0, 0, 0, 0},
		{0, 0, s2, 0, 0, 0},
		{s2, 0, 0, s4, s22, 0},
		{s2, 0, 0, s22, s4, 0},
		{0, 0, 0, 0, 0, s22},
	}
	return k0, k1, k2, invert6(g)
}

// polySolve writes the coefficients r = G⁻¹m of pixels [lo, hi) from their
// moments. Only rows 1–5 of G⁻¹ are needed (the constant term goes unused),
// and G couples only 1, x² and y², a structure Gauss-Jordan keeps exact:
// every other entry of those rows is an exact zero, and so is its product
// with a finite moment. Added to an accumulator that starts at +0, such a
// product changes nothing, so the solve multiplies the nine entries that
// can be non-zero, in column order, onto +0.
func polySolve(mom [6]*imgproc.Image, ginv *[6][6]float64, p polyCoeffs, lo, hi int) {
	g11, g22, g55 := ginv[1][1], ginv[2][2], ginv[5][5]
	g30, g33, g34 := ginv[3][0], ginv[3][3], ginv[3][4]
	g40, g43, g44 := ginv[4][0], ginv[4][3], ginv[4][4]
	n := hi - lo
	m0, m1, m2 := mom[0].Pix[lo:][:n], mom[1].Pix[lo:][:n], mom[2].Pix[lo:][:n]
	m3, m4, m5 := mom[3].Pix[lo:][:n], mom[4].Pix[lo:][:n], mom[5].Pix[lo:][:n]
	bx, by := p.bx.Pix[lo:][:n], p.by.Pix[lo:][:n]
	axx, ayy, axy := p.axx.Pix[lo:][:n], p.ayy.Pix[lo:][:n], p.axy.Pix[lo:][:n]
	for i, v0 := range m0 {
		c0, c3, c4 := float64(v0), float64(m3[i]), float64(m4[i])
		var r1, r2, r3, r4, r5 float64
		r1 += float64(g11 * float64(m1[i]))
		r2 += float64(g22 * float64(m2[i]))
		r3 += float64(g30 * c0)
		r3 += float64(g33 * c3)
		r3 += float64(g34 * c4)
		r4 += float64(g40 * c0)
		r4 += float64(g43 * c3)
		r4 += float64(g44 * c4)
		r5 += float64(g55 * float64(m5[i]))
		bx[i] = float32(r1)
		by[i] = float32(r2)
		axx[i] = float32(r3)
		ayy[i] = float32(r4)
		axy[i] = float32(r5)
	}
}

// polyMoments returns the moment images m_pq = Σ a(x)a(y) x^p y^q f in the
// order m00, m10, m01, m20, m02, m11 (p along x), given the 1-D moment
// kernels k0 = a, k1 = x·a, k2 = x²·a. The six separable filters use only
// three distinct horizontal kernels, so each row pass is computed once and
// shared by the column passes that follow it.
func polyMoments(im *imgproc.Image, k0, k1, k2 []float32) [6]*imgproc.Image {
	var m [6]*imgproc.Image
	rows := imgproc.FilterRows(im, k0)
	m[0] = imgproc.FilterCols(rows, k0)
	m[2] = imgproc.FilterCols(rows, k1)
	m[4] = imgproc.FilterCols(rows, k2)
	imgproc.PutImage(rows)
	rows = imgproc.FilterRows(im, k1)
	m[1] = imgproc.FilterCols(rows, k0)
	m[5] = imgproc.FilterCols(rows, k1)
	imgproc.PutImage(rows)
	rows = imgproc.FilterRows(im, k2)
	m[3] = imgproc.FilterCols(rows, k0)
	imgproc.PutImage(rows)
	return m
}

// put returns the coefficient buffers to the image pool.
func (p polyCoeffs) put() {
	imgproc.PutImage(p.bx)
	imgproc.PutImage(p.by)
	imgproc.PutImage(p.axx)
	imgproc.PutImage(p.ayy)
	imgproc.PutImage(p.axy)
}

// invert6 inverts a 6×6 matrix by Gauss-Jordan elimination with partial
// pivoting. It panics if the matrix is singular, which cannot happen for a
// positive applicability.
func invert6(m [6][6]float64) [6][6]float64 {
	var aug [6][12]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			aug[i][j] = m[i][j]
		}
		aug[i][6+i] = 1
	}
	for col := 0; col < 6; col++ {
		piv := col
		for row := col + 1; row < 6; row++ {
			if math.Abs(aug[row][col]) > math.Abs(aug[piv][col]) {
				piv = row
			}
		}
		if math.Abs(aug[piv][col]) < 1e-12 {
			panic("flow: singular normal matrix in polynomial expansion")
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := 1 / aug[col][col]
		for j := 0; j < 12; j++ {
			aug[col][j] *= inv
		}
		for row := 0; row < 6; row++ {
			if row == col {
				continue
			}
			f := aug[row][col]
			for j := 0; j < 12; j++ {
				aug[row][j] -= float64(f * aug[col][j])
			}
		}
	}
	var out [6][6]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			out[i][j] = aug[i][6+j]
		}
	}
	return out
}

// Farneback estimates the dense motion field that maps prev onto next using
// a coarse-to-fine pyramid. The returned field is defined on prev's pixel
// grid: next(x + U, y + V) ≈ prev(x, y).
func Farneback(prev, next *imgproc.Image, opt Options) Field {
	if prev.W != next.W || prev.H != next.H {
		panic(fmt.Sprintf("flow: frame sizes differ %dx%d vs %dx%d", prev.W, prev.H, next.W, next.H))
	}
	ep := Expand(prev, opt)
	en := Expand(next, opt)
	f := FarnebackExpanded(ep, en, opt)
	ep.Put()
	en.Put()
	return f
}

// Expansion is one frame's side of a Farneback estimate: the polynomial
// expansion of every level of its pyramid. Farneback builds one for each of
// its two frames; a stream that estimates t−1 → t and then t → t+1 can build
// frame t's once and use it on both sides, with the same bits.
type Expansion struct {
	w, h   int
	levels []polyCoeffs // finest first
}

// levels returns how many pyramid levels opt asks for on a w×h frame,
// clamped so that the coarsest level is still big enough for the polynomial
// window.
func (opt Options) levels(w, h int) int {
	n := max(opt.Levels, 1)
	for n > 1 && min(w, h)>>(n-1) < 4*opt.PolyR+2 {
		n--
	}
	return n
}

// Expand builds im's Expansion under opt: its pyramid, level by level
// polynomially expanded. The pyramid itself is released as soon as it is
// expanded; the Expansion owns pooled buffers until Put.
func Expand(im *imgproc.Image, opt Options) *Expansion {
	pyr := imgproc.Pyramid(im, opt.levels(im.W, im.H), opt.PyrSigma)
	e := &Expansion{w: im.W, h: im.H, levels: make([]polyCoeffs, len(pyr))}
	for l, lv := range pyr {
		e.levels[l] = polyExpand(lv, opt.PolyR, opt.PolySigma)
		if l > 0 {
			// Pyramid levels above the base are scratch built by this call.
			imgproc.PutImage(lv)
		}
	}
	return e
}

// Put returns the expansion's buffers to the image pool. The caller must
// not use e afterwards.
func (e *Expansion) Put() {
	for _, c := range e.levels {
		c.put()
	}
	e.levels = nil
}

// FarnebackExpanded is Farneback from the two frames' expansions, which
// must have been built under opt from frames of one size. It leaves both
// expansions intact.
func FarnebackExpanded(prev, next *Expansion, opt Options) Field {
	if prev.w != next.w || prev.h != next.h || len(prev.levels) != len(next.levels) {
		panic(fmt.Sprintf("flow: expansions differ %dx%d/%d vs %dx%d/%d",
			prev.w, prev.h, len(prev.levels), next.w, next.h, len(next.levels)))
	}
	iters := max(opt.Iters, 1)
	win := imgproc.GaussianKernel1D(opt.WinSigma)
	var fld Field
	for l := len(prev.levels) - 1; l >= 0; l-- {
		c1, c2 := prev.levels[l], next.levels[l]
		w, h := c1.bx.W, c1.bx.H
		scale := float32(1)
		if fld.U == nil {
			fld = NewField(w, h)
		} else {
			// The coarser level's field, upsampled, is in that level's
			// pixels: the level's first iteration doubles it as it reads it.
			u := imgproc.Upsample2(fld.U, w, h)
			v := imgproc.Upsample2(fld.V, w, h)
			PutField(fld)
			fld = Field{U: u, V: v}
			scale = 2
		}
		for it := 0; it < iters; it++ {
			next := flowIteration(c1, c2, fld, scale, win)
			PutField(fld)
			fld = next
			scale = 1
		}
	}
	return fld
}

// system is one pixel's 2×2 system of a Farneback update: the symmetric
// matrix AᵀA (g11, g12, g22) and the vector AᵀΔb (h1, h2).
type system struct {
	g11, g12, g22, h1, h2 float32
}

// bandScratch is one worker's memory for a row band of an iteration: the
// systems of the row being filtered, padded at both ends, and the tap rows
// of the row being solved.
type bandScratch struct {
	row  []system
	taps [][]system
}

// sysFree holds the row-filtered systems of finished iterations, and
// bandFree the workers' scratch, for the next iterations. Neither is ever
// cleared: every system is written before it is read.
var (
	sysFree  imgproc.FreeList[[]system]
	bandFree imgproc.FreeList[bandScratch]
)

// flowIteration performs one Farneback update: form the per-pixel linear
// system from the two polynomial expansions and the current displacement
// ("Matrix Update"), aggregate it over a Gaussian window (a blur), and solve
// the 2×2 system per pixel ("Compute Flow"). win is the aggregation window's
// 1-D kernel. cur is read multiplied by scale, a power of two, so the
// product is exact.
//
// It makes one pass over row bands per direction of the blur. The first
// forms each row's systems and filters them along the row, all five
// channels at once, into the row-filtered systems; the second sums each
// output row's column of taps and solves each pixel as soon as its sums
// are final. The bits are those of the five channels each put through
// imgproc.SeparableFilter and then solved: every sample starts at +0 and
// adds its products in tap order, each product rounded to float32.
func flowIteration(c1, c2 polyCoeffs, cur Field, scale float32, win []float32) Field {
	w, h := cur.U.W, cur.U.H
	r := len(win) / 2
	rows := sysFree.Get()
	*rows = imgproc.Grow(*rows, w*h)
	par.ForChunked(h, func(lo, hi int) {
		sc := bandFree.Get()
		sc.row = imgproc.Grow(sc.row, w+2*r)
		for y := lo; y < hi; y++ {
			matrixUpdate(c1, c2, cur, scale, y, sc.row[r:][:w])
			padRow(sc.row, r)
			blurRow((*rows)[w*y:][:w], sc.row, win)
		}
		bandFree.Put(sc)
	})
	out := NewField(w, h)
	par.ForChunked(h, func(lo, hi int) {
		sc := bandFree.Get()
		sc.taps = imgproc.Grow(sc.taps, len(win))
		for y := lo; y < hi; y++ {
			blurSolveRow(*rows, sc.taps, cur, scale, out, y, win)
		}
		bandFree.Put(sc)
	})
	sysFree.Put(rows)
	return out
}

// matrixUpdate writes row y's systems into sys, from the two expansions and
// the current displacement. Frame 2's coefficients are looked up at the
// displaced position, rounded to the nearest pixel: directly where it is
// inside the frame, clamped to the border where it is not. (Inside the
// frame i < n already; testing it lets the prove pass drop the five index
// checks.)
func matrixUpdate(c1, c2 polyCoeffs, cur Field, scale float32, y int, sys []system) {
	w, h := cur.U.W, cur.U.H
	row := y * w
	u, v := cur.U.Pix[row:][:w], cur.V.Pix[row:][:w]
	axx1, ayy1, axy1 := c1.axx.Pix[row:][:w], c1.ayy.Pix[row:][:w], c1.axy.Pix[row:][:w]
	bx1, by1 := c1.bx.Pix[row:][:w], c1.by.Pix[row:][:w]
	n := w * h
	axx2, ayy2, axy2 := c2.axx.Pix[:n], c2.ayy.Pix[:n], c2.axy.Pix[:n]
	bx2, by2 := c2.bx.Pix[:n], c2.by.Pix[:n]
	sys = sys[:w]
	for x, uu := range u {
		du, dv := float64(scale*uu), float64(scale*v[x])
		x2 := int(math.Round(float64(x) + du))
		y2 := int(math.Round(float64(y) + dv))
		var cxx, cyy, cxy, cx, cy float32
		if i := y2*w + x2; uint(x2) < uint(w) && uint(y2) < uint(h) && uint(i) < uint(n) {
			cxx, cyy, cxy, cx, cy = axx2[i], ayy2[i], axy2[i], bx2[i], by2[i]
		} else {
			cxx, cyy, cxy = c2.axx.At(x2, y2), c2.ayy.At(x2, y2), c2.axy.At(x2, y2)
			cx, cy = c2.bx.At(x2, y2), c2.by.At(x2, y2)
		}

		// Each product is rounded before it is added, so that no target
		// fuses a multiply-add; the halving and quartering below compile
		// to products too.
		a11 := float64((float64(axx1[x]) + float64(cxx)) / 2)
		a22 := float64((float64(ayy1[x]) + float64(cyy)) / 2)
		a12 := float64((float64(axy1[x]) + float64(cxy)) / 4) // A off-diag = axy/2, averaged

		db1 := float64(-0.5*(float64(cx)-float64(bx1[x]))) + float64(a11*du) + float64(a12*dv)
		db2 := float64(-0.5*(float64(cy)-float64(by1[x]))) + float64(a12*du) + float64(a22*dv)

		sys[x] = system{
			g11: float32(float64(a11*a11) + float64(a12*a12)),
			g12: float32(a12 * (a11 + a22)),
			g22: float32(float64(a22*a22) + float64(a12*a12)),
			h1:  float32(float64(a11*db1) + float64(a12*db2)),
			h2:  float32(float64(a12*db1) + float64(a22*db2)),
		}
	}
}

// padRow copies the first and last system of the row held in row into the
// r systems of padding at each end, so that the row pass reads every tap
// in range and reads what a clamped tap would.
func padRow(row []system, r int) {
	n := len(row) - 2*r
	first, last := row[r], row[r+n-1]
	for i := 0; i < r; i++ {
		row[i], row[r+n+i] = first, last
	}
}

// blurRow writes to dst the row pass of the padded row src,
// imgproc.FilterRows' sum for each channel: dst(x) = Σ_j k[j]·src(x+j).
func blurRow(dst, src []system, k []float32) {
	for x := range dst {
		s := src[x:][:len(k)]
		var g11, g12, g22, h1, h2 float32
		for j, kv := range k {
			p := &s[j]
			g11 += float32(kv * p.g11)
			g12 += float32(kv * p.g12)
			g22 += float32(kv * p.g22)
			h1 += float32(kv * p.h1)
			h2 += float32(kv * p.h2)
		}
		dst[x] = system{g11, g12, g22, h1, h2}
	}
}

// blurSolveRow sums the column of taps of output row y over the
// row-filtered systems, imgproc.FilterCols' sum with tap rows clamped to
// the frame, and solves each pixel's 2×2 system into out as soon as its
// sums are final, keeping the current displacement (times scale) where the
// system is singular. taps holds a row per tap.
func blurSolveRow(rows []system, taps [][]system, cur Field, scale float32, out Field, y int, k []float32) {
	w, h := cur.U.W, cur.U.H
	r := len(k) / 2
	taps = taps[:len(k)]
	for j := range taps {
		taps[j] = rows[w*min(max(y+j-r, 0), h-1):][:w]
	}
	row := y * w
	cu, cv := cur.U.Pix[row:][:w], cur.V.Pix[row:][:w]
	ou, ov := out.U.Pix[row:][:w], out.V.Pix[row:][:w]
	for x := range ou {
		var g11, g12, g22, h1, h2 float32
		for j, kv := range k {
			p := &taps[j][x]
			g11 += float32(kv * p.g11)
			g12 += float32(kv * p.g12)
			g22 += float32(kv * p.g22)
			h1 += float32(kv * p.h1)
			h2 += float32(kv * p.h2)
		}
		a, b, c := float64(g11), float64(g12), float64(g22)
		det := float64(a*c) - float64(b*b)
		if math.Abs(det) < 1e-9 {
			ou[x], ov[x] = scale*cu[x], scale*cv[x]
			continue
		}
		hh1, hh2 := float64(h1), float64(h2)
		ou[x] = float32((float64(c*hh1) - float64(b*hh2)) / det)
		ov[x] = float32((float64(a*hh2) - float64(b*hh1)) / det)
	}
}
