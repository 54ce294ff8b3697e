package imgproc

import (
	"asv/internal/par"
	"fmt"
	"math"
)

// GaussianKernel1D returns a normalized 1-D Gaussian kernel with the given
// standard deviation. The radius is ceil(3*sigma), so the kernel length is
// 2*radius+1.
func GaussianKernel1D(sigma float64) []float32 {
	if sigma <= 0 {
		panic(fmt.Sprintf("imgproc: non-positive sigma %v", sigma))
	}
	r := int(math.Ceil(3 * sigma))
	k := make([]float32, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = float32(v)
		sum += v
	}
	inv := float32(1 / sum)
	for i := range k {
		k[i] *= inv
	}
	return k
}

// SeparableFilter convolves the image with kx horizontally then ky
// vertically, using replicate border handling. Kernel lengths must be odd.
func SeparableFilter(im *Image, kx, ky []float32) *Image {
	tmp := FilterRows(im, kx)
	out := FilterCols(tmp, ky)
	PutImage(tmp)
	return out
}

// FilterRows is SeparableFilter's horizontal pass alone: every row
// correlated with k under replicate padding. Callers that filter one image
// with several vertical kernels share its result between FilterCols calls.
func FilterRows(im *Image, k []float32) *Image {
	out := GetImage(im.W, im.H)
	filterRows(out, im, k, 1)
	return out
}

// FilterCols is SeparableFilter's vertical pass alone.
func FilterCols(im *Image, k []float32) *Image {
	out := GetImage(im.W, im.H)
	filterCols(out, im, k, 1)
	return out
}

// blurDownsample2 is a separable Gaussian blur followed by decimation by 2
// in each dimension, computing only the samples the decimation keeps: the
// row pass on even columns, the column pass on even rows. Each kept sample goes
// through the arithmetic the full-size blur gives it. The result is
// ceil(W/2) × ceil(H/2).
func blurDownsample2(im *Image, sigma float64) *Image {
	k := GaussianKernel1D(sigma)
	tmp := GetImage((im.W+1)/2, im.H)
	filterRows(tmp, im, k, 2)
	out := GetImage(tmp.W, (im.H+1)/2)
	filterCols(out, tmp, k, 2)
	PutImage(tmp)
	return out
}

// The two passes share one shape (DESIGN.md §9, "interior / border"): an
// output sample whose taps all fall inside the image is computed tap-outer,
// one pass per tap over equal-length windows of source and destination, so
// the loop carries no clamp and no index check; only the samples within a
// kernel radius of the border go through the clamped per-sample form, which
// is the definition. Both forms start a sample at +0 and add its products
// in tap order, each rounded to float32 before the add (the conversion also
// keeps an FMA-fusing target from skipping that rounding), so which form a
// sample takes cannot be seen in its bits.

// kernelRadius returns the radius of an odd-length kernel.
func kernelRadius(k []float32) int {
	if len(k)%2 == 0 {
		panic("imgproc: separable kernels must have odd length")
	}
	return len(k) / 2
}

// filterRows fills the zeroed dst with every step-th column of src's rows
// correlated with k: dst(x, y) = Σ_j k[j]·src(clamp(x·step+j−r), y).
// dst is ceil(src.W/step) × src.H.
func filterRows(dst, src *Image, k []float32, step int) {
	r := kernelRadius(k)
	w, ow := src.W, dst.W
	// Output columns [x0, x1) read no sample outside their row.
	x0, x1 := 0, 0
	if w > 2*r {
		x0, x1 = (r+step-1)/step, (w-1-r)/step+1
	}
	par.ForChunked(src.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			srow := src.Pix[y*w:][:w]
			drow := dst.Pix[y*ow:][:ow]
			for x := 0; x < x0; x++ {
				drow[x] = rowClamped(srow, k, x*step)
			}
			if x0 < x1 {
				interior, first := drow[x0:x1], srow[x0*step-r:]
				if step == 1 {
					rowInterior(interior, first, k)
				} else {
					rowInteriorStrided(interior, first, k, step)
				}
			}
			for x := x1; x < ow; x++ {
				drow[x] = rowClamped(srow, k, x*step)
			}
		}
	})
}

// rowClamped is one sample of the row pass centred on column x, replicate
// padded: the border form and the definition.
func rowClamped(row, k []float32, x int) float32 {
	r := len(k) / 2
	var acc float32
	for j, kv := range k {
		acc += float32(kv * row[clampInt(x+j-r, 0, len(row)-1)])
	}
	return acc
}

// rowInterior adds to the zeroed dst the row pass of len(dst) consecutive
// interior columns; src starts at the first column's leftmost tap.
func rowInterior(dst, src, k []float32) {
	for j, kv := range k {
		tap := src[j:][:len(dst)]
		for i, v := range tap {
			dst[i] += float32(kv * v)
		}
	}
}

// rowInteriorStrided is rowInterior for output columns step apart.
func rowInteriorStrided(dst, src, k []float32, step int) {
	for j, kv := range k {
		tap := src[j:]
		for i := range dst {
			dst[i] += float32(kv * tap[i*step])
		}
	}
}

// filterCols fills the zeroed dst with every step-th row of src's columns
// correlated with k: dst(x, y) = Σ_j k[j]·src(x, clamp(y·step+j−r)).
// dst is src.W × ceil(src.H/step). A whole tap row is clamped at once, so
// every output row is interior along the direction the loop runs.
func filterCols(dst, src *Image, k []float32, step int) {
	r := kernelRadius(k)
	w, h := src.W, src.H
	par.ForChunked(dst.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			drow := dst.Pix[y*w:][:w]
			for j, kv := range k {
				tap := src.Pix[clampInt(y*step+j-r, 0, h-1)*w:][:len(drow)]
				for i, v := range tap {
					drow[i] += float32(kv * v)
				}
			}
		}
	})
}

// GradX returns the horizontal central-difference derivative (f(x+1)-f(x-1))/2.
func GradX(im *Image) *Image {
	out := NewImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				out.Pix[y*im.W+x] = (im.At(x+1, y) - im.At(x-1, y)) / 2
			}
		}
	})
	return out
}

// GradY returns the vertical central-difference derivative (f(y+1)-f(y-1))/2.
func GradY(im *Image) *Image {
	out := NewImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				out.Pix[y*im.W+x] = (im.At(x, y+1) - im.At(x, y-1)) / 2
			}
		}
	})
	return out
}
