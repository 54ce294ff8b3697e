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
	if len(kx)%2 == 0 || len(ky)%2 == 0 {
		panic("imgproc: separable kernels must have odd length")
	}
	rx, ry := len(kx)/2, len(ky)/2
	tmp := GetImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				var acc float32
				for i := -rx; i <= rx; i++ {
					acc += kx[i+rx] * im.At(x+i, y)
				}
				tmp.Pix[y*im.W+x] = acc
			}
		}
	})
	out := GetImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				var acc float32
				for i := -ry; i <= ry; i++ {
					acc += ky[i+ry] * tmp.At(x, y+i)
				}
				out.Pix[y*im.W+x] = acc
			}
		}
	})
	PutImage(tmp)
	return out
}

// GaussianBlur low-pass filters the image with a separable Gaussian of the
// given standard deviation.
func GaussianBlur(im *Image, sigma float64) *Image {
	k := GaussianKernel1D(sigma)
	return SeparableFilter(im, k, k)
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

// Warp resamples the image according to a dense flow field: the output at
// (x, y) is the input sampled at (x+u(x,y), y+v(x,y)). u and v must be the
// same size as the image.
func Warp(im, u, v *Image) *Image {
	mustSameSize(im, u, "Warp(u)")
	mustSameSize(im, v, "Warp(v)")
	out := NewImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				out.Pix[y*im.W+x] = im.Bilinear(float32(x)+u.At(x, y), float32(y)+v.At(x, y))
			}
		}
	})
	return out
}
