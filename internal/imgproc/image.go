// Package imgproc provides the grayscale image substrate used by the
// classic-vision half of ASV: Gaussian filtering, gradients, bilinear
// warping and image pyramids. Images are dense float32 rasters with values
// nominally in [0, 1].
package imgproc

import (
	"fmt"
	"math"

	"asv/internal/par"
)

// Image is a single-channel float32 raster stored row-major.
type Image struct {
	W, H int
	Pix  []float32
}

// NewImage returns a zero-filled w×h image. It panics if w or h is not
// positive.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// FromPix wraps pix (copied) as a w×h image.
func FromPix(pix []float32, w, h int) *Image {
	if len(pix) != w*h {
		panic(fmt.Sprintf("imgproc: pix length %d != %dx%d", len(pix), w, h))
	}
	img := NewImage(w, h)
	copy(img.Pix, pix)
	return img
}

// At returns the pixel at (x, y). Coordinates outside the image are clamped
// to the border (replicate padding), the convention used by all filters in
// this package.
func (im *Image) At(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set assigns the pixel at (x, y). It panics if out of bounds.
func (im *Image) Set(x, y int, v float32) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		panic(fmt.Sprintf("imgproc: Set(%d,%d) out of %dx%d", x, y, im.W, im.H))
	}
	im.Pix[y*im.W+x] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image { return FromPix(im.Pix, im.W, im.H) }

// Bilinear samples the image at the real-valued position (x, y) with
// bilinear interpolation and replicate border handling.
func (im *Image) Bilinear(x, y float32) float32 {
	x0, fx := splitCoord(x)
	y0, fy := splitCoord(y)
	v00 := im.At(x0, y0)
	v10 := im.At(x0+1, y0)
	v01 := im.At(x0, y0+1)
	v11 := im.At(x0+1, y0+1)
	top := v00 + fx*(v10-v00)
	bot := v01 + fx*(v11-v01)
	return top + fy*(bot-top)
}

// splitCoord splits a sampling coordinate into the pixel at or below it and
// the interpolation weight of the next one.
func splitCoord(v float32) (int, float32) {
	i := int(math.Floor(float64(v)))
	return i, v - float32(i)
}

func clampInt(v, lo, hi int) int { return min(max(v, lo), hi) }

// Sub returns the element-wise difference a-b. It panics on size mismatch.
func Sub(a, b *Image) *Image {
	mustSameSize(a, b, "Sub")
	out := NewImage(a.W, a.H)
	for i := range out.Pix {
		out.Pix[i] = a.Pix[i] - b.Pix[i]
	}
	return out
}

// MeanAbs returns the mean absolute pixel value.
func MeanAbs(im *Image) float64 {
	var s float64
	for _, v := range im.Pix {
		s += math.Abs(float64(v))
	}
	return s / float64(len(im.Pix))
}

// MaxAbsDiff returns the largest absolute pixel difference between a and b.
func MaxAbsDiff(a, b *Image) float64 {
	mustSameSize(a, b, "MaxAbsDiff")
	var m float64
	for i := range a.Pix {
		if d := math.Abs(float64(a.Pix[i] - b.Pix[i])); d > m {
			m = d
		}
	}
	return m
}

func mustSameSize(a, b *Image, op string) {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("imgproc: %s size mismatch %dx%d vs %dx%d", op, a.W, a.H, b.W, b.H))
	}
}

// Upsample2 returns the image bilinearly enlarged to exactly w×h
// (typically 2× the input), sampling with replicate border handling as
// Bilinear does.
func Upsample2(im *Image, w, h int) *Image {
	out := NewImage(w, h)
	sx := float32(im.W) / float32(w)
	sy := float32(im.H) / float32(h)
	// A column's two source columns and its weight are the same on every
	// row, so each worker works them out once per tile of columns (a table
	// on its stack) instead of once per pixel.
	const tile = 64
	par.ForChunked(h, func(lo, hi int) {
		var x0, x1 [tile]int32
		var fx [tile]float32
		for tx := 0; tx < w; tx += tile {
			n := min(tile, w-tx)
			for i := 0; i < n; i++ {
				var c int
				c, fx[i] = splitCoord((float32(tx+i)+0.5)*sx - 0.5)
				x0[i], x1[i] = int32(clampInt(c, 0, im.W-1)), int32(clampInt(c+1, 0, im.W-1))
			}
			for y := lo; y < hi; y++ {
				y0, fy := splitCoord((float32(y)+0.5)*sy - 0.5)
				top := im.Pix[clampInt(y0, 0, im.H-1)*im.W:][:im.W]
				bot := im.Pix[clampInt(y0+1, 0, im.H-1)*im.W:][:im.W]
				for i, dst := 0, out.Pix[y*w+tx:][:n]; i < n; i++ {
					t := top[x0[i]] + fx[i]*(top[x1[i]]-top[x0[i]])
					b := bot[x0[i]] + fx[i]*(bot[x1[i]]-bot[x0[i]])
					dst[i] = t + fy*(b-t)
				}
			}
		}
	})
	return out
}

// Pyramid returns a Gaussian pyramid with the given number of levels;
// level 0 is the original image and each subsequent level is blurred and
// decimated by 2. levels must be >= 1.
func Pyramid(im *Image, levels int, sigma float64) []*Image {
	if levels < 1 {
		panic("imgproc: Pyramid needs at least one level")
	}
	pyr := make([]*Image, levels)
	pyr[0] = im
	for l := 1; l < levels; l++ {
		pyr[l] = blurDownsample2(pyr[l-1], sigma)
	}
	return pyr
}
