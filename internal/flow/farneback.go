// Package flow implements dense motion estimation for ASV's non-key
// frames: the Farneback polynomial-expansion optical flow algorithm chosen
// by the paper (Sec. 3.3), plus block-matching and Lucas-Kanade estimators
// used to justify that choice.
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
	if r < 1 {
		panic(fmt.Sprintf("flow: polynomial radius %d < 1", r))
	}
	n := 2*r + 1
	// 1-D applicability and its moment kernels.
	a := make([]float64, n)
	for i := -r; i <= r; i++ {
		a[i+r] = math.Exp(-float64(i*i) / (2 * sigma * sigma))
	}
	k0 := make([]float32, n) // a(x)
	k1 := make([]float32, n) // x·a(x)
	k2 := make([]float32, n) // x²·a(x)
	for i := -r; i <= r; i++ {
		k0[i+r] = float32(a[i+r])
		k1[i+r] = float32(float64(i) * a[i+r])
		k2[i+r] = float32(float64(i*i) * a[i+r])
	}

	// Normal matrix G over basis (1, x, y, x², y², xy).
	var s0, s2, s4, s22 float64
	for i := -r; i <= r; i++ {
		for j := -r; j <= r; j++ {
			w := a[i+r] * a[j+r]
			s0 += w
			s2 += w * float64(j*j)
			s4 += w * float64(j*j*j*j)
			s22 += w * float64(i*i*j*j)
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
	ginv := invert6(g)

	mom := polyMoments(im, k0, k1, k2)

	p := polyCoeffs{
		bx:  imgproc.GetImage(im.W, im.H),
		by:  imgproc.GetImage(im.W, im.H),
		axx: imgproc.GetImage(im.W, im.H),
		ayy: imgproc.GetImage(im.W, im.H),
		axy: imgproc.GetImage(im.W, im.H),
	}
	par.ForChunked(len(im.Pix), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var m [6]float64
			for c, mi := range mom {
				m[c] = float64(mi.Pix[i])
			}
			var rcoef [6]float64
			for row := 0; row < 6; row++ {
				var acc float64
				for col := 0; col < 6; col++ {
					acc += ginv[row][col] * m[col]
				}
				rcoef[row] = acc
			}
			p.bx.Pix[i] = float32(rcoef[1])
			p.by.Pix[i] = float32(rcoef[2])
			p.axx.Pix[i] = float32(rcoef[3])
			p.ayy.Pix[i] = float32(rcoef[4])
			p.axy.Pix[i] = float32(rcoef[5])
		}
	})
	for _, m := range mom {
		imgproc.PutImage(m)
	}
	return p
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
				aug[row][j] -= f * aug[col][j]
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
	if opt.Levels < 1 {
		opt.Levels = 1
	}
	if opt.Iters < 1 {
		opt.Iters = 1
	}
	// Clamp the pyramid so the coarsest level is still big enough for the
	// polynomial window.
	minDim := prev.W
	if prev.H < minDim {
		minDim = prev.H
	}
	for opt.Levels > 1 && minDim>>(opt.Levels-1) < 4*opt.PolyR+2 {
		opt.Levels--
	}

	win := imgproc.GaussianKernel1D(opt.WinSigma)
	p1 := imgproc.Pyramid(prev, opt.Levels, opt.PyrSigma)
	p2 := imgproc.Pyramid(next, opt.Levels, opt.PyrSigma)

	var fld Field
	for l := opt.Levels - 1; l >= 0; l-- {
		im1, im2 := p1[l], p2[l]
		if fld.U == nil {
			fld = NewField(im1.W, im1.H)
		} else {
			u := imgproc.Upsample2(fld.U, im1.W, im1.H)
			v := imgproc.Upsample2(fld.V, im1.W, im1.H)
			for i := range u.Pix {
				u.Pix[i] *= 2
				v.Pix[i] *= 2
			}
			PutField(fld)
			fld = Field{U: u, V: v}
		}
		c1 := polyExpand(im1, opt.PolyR, opt.PolySigma)
		c2 := polyExpand(im2, opt.PolyR, opt.PolySigma)
		for it := 0; it < opt.Iters; it++ {
			next := flowIteration(c1, c2, fld, win)
			PutField(fld)
			fld = next
		}
		c1.put()
		c2.put()
		if l > 0 {
			// Pyramid levels above the base are scratch built by this call.
			imgproc.PutImage(p1[l])
			imgproc.PutImage(p2[l])
		}
	}
	return fld
}

// flowIteration performs one Farneback update: form the per-pixel linear
// system from the two polynomial expansions and the current displacement
// ("Matrix Update"), aggregate it over a Gaussian window (a blur), and solve
// the 2×2 system per pixel ("Compute Flow"). win is the aggregation window's
// 1-D kernel.
func flowIteration(c1, c2 polyCoeffs, cur Field, win []float32) Field {
	w, h := cur.U.W, cur.U.H
	// Accumulator images for G = AᵀA (symmetric 2×2: g11,g12,g22) and
	// hvec = AᵀΔb (h1,h2).
	g11 := imgproc.GetImage(w, h)
	g12 := imgproc.GetImage(w, h)
	g22 := imgproc.GetImage(w, h)
	h1 := imgproc.GetImage(w, h)
	h2 := imgproc.GetImage(w, h)

	par.ForChunked(h, func(ylo, yhi int) {
		for y := ylo; y < yhi; y++ {
			for x := 0; x < w; x++ {
				du := float64(cur.U.At(x, y))
				dv := float64(cur.V.At(x, y))
				// Look up frame-2 coefficients at the displaced position
				// (rounded to the nearest pixel, clamped to the border).
				x2 := int(math.Round(float64(x) + du))
				y2 := int(math.Round(float64(y) + dv))

				a11 := (float64(c1.axx.At(x, y)) + float64(c2.axx.At(x2, y2))) / 2
				a22 := (float64(c1.ayy.At(x, y)) + float64(c2.ayy.At(x2, y2))) / 2
				a12 := (float64(c1.axy.At(x, y)) + float64(c2.axy.At(x2, y2))) / 4 // A off-diag = axy/2, averaged

				db1 := -0.5*(float64(c2.bx.At(x2, y2))-float64(c1.bx.At(x, y))) + a11*du + a12*dv
				db2 := -0.5*(float64(c2.by.At(x2, y2))-float64(c1.by.At(x, y))) + a12*du + a22*dv

				i := y*w + x
				g11.Pix[i] = float32(a11*a11 + a12*a12)
				g12.Pix[i] = float32(a12 * (a11 + a22))
				g22.Pix[i] = float32(a22*a22 + a12*a12)
				h1.Pix[i] = float32(a11*db1 + a12*db2)
				h2.Pix[i] = float32(a12*db1 + a22*db2)
			}
		}
	})

	// Aggregate the normal equations over the neighbourhood, releasing the
	// pre-blur accumulators as they are consumed.
	blur := func(im *imgproc.Image) *imgproc.Image {
		b := imgproc.SeparableFilter(im, win, win)
		imgproc.PutImage(im)
		return b
	}
	g11 = blur(g11)
	g12 = blur(g12)
	g22 = blur(g22)
	h1 = blur(h1)
	h2 = blur(h2)

	out := NewField(w, h)
	par.ForChunked(len(g11.Pix), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := float64(g11.Pix[i])
			b := float64(g12.Pix[i])
			c := float64(g22.Pix[i])
			det := a*c - b*b
			if math.Abs(det) < 1e-9 {
				out.U.Pix[i] = cur.U.Pix[i]
				out.V.Pix[i] = cur.V.Pix[i]
				continue
			}
			hh1 := float64(h1.Pix[i])
			hh2 := float64(h2.Pix[i])
			out.U.Pix[i] = float32((c*hh1 - b*hh2) / det)
			out.V.Pix[i] = float32((a*hh2 - b*hh1) / det)
		}
	})
	imgproc.PutImage(g11)
	imgproc.PutImage(g12)
	imgproc.PutImage(g22)
	imgproc.PutImage(h1)
	imgproc.PutImage(h2)
	return out
}
