package imgproc

import (
	"fmt"
	"math"
	"testing"
)

// Reference implementations for the interior/border filter core: the loops
// the production code replaced, kept here verbatim (one clamping At per tap)
// so the differential tests compare against the definition and not against
// another arrangement of the same trick. Products carry the same explicit
// float32 rounding as the kernels, so the comparison also holds where the
// compiler may fuse a multiply into the add.

// separableFilter convolves im with kx horizontally then ky vertically,
// using replicate border handling: FilterRows, then FilterCols.
func separableFilter(im *Image, kx, ky []float32) *Image {
	tmp := FilterRows(im, kx)
	out := FilterCols(tmp, ky)
	PutImage(tmp)
	return out
}

// naiveSeparable is separableFilter as it stood before the split.
func naiveSeparable(im *Image, kx, ky []float32) *Image {
	rx, ry := len(kx)/2, len(ky)/2
	tmp := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var acc float32
			for i := -rx; i <= rx; i++ {
				acc += float32(kx[i+rx] * im.At(x+i, y))
			}
			tmp.Pix[y*im.W+x] = acc
		}
	}
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var acc float32
			for i := -ry; i <= ry; i++ {
				acc += float32(ky[i+ry] * tmp.At(x, y+i))
			}
			out.Pix[y*im.W+x] = acc
		}
	}
	return out
}

// Downsample2 returns the image decimated by 2 in each dimension: with
// naiveSeparable, the reference for the pyramid's decimating blur. Output is
// ceil(W/2) × ceil(H/2).
func Downsample2(im *Image) *Image {
	ow := (im.W + 1) / 2
	oh := (im.H + 1) / 2
	out := NewImage(ow, oh)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			out.Set(x, y, im.At(2*x, 2*y))
		}
	}
	return out
}

// naiveUpsample2 is Upsample2 with every pixel sampled through Bilinear.
func naiveUpsample2(im *Image, w, h int) *Image {
	out := NewImage(w, h)
	sx := float32(im.W) / float32(w)
	sy := float32(im.H) / float32(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = im.Bilinear((float32(x)+0.5)*sx-0.5, (float32(y)+0.5)*sy-0.5)
		}
	}
	return out
}

// sameBits fails the test at the first pixel whose bit pattern differs.
func sameBits(t *testing.T, what string, got, want *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d,%d) = %x (%v), want %x (%v)", what, i%want.W, i/want.W,
				math.Float32bits(got.Pix[i]), got.Pix[i], math.Float32bits(want.Pix[i]), want.Pix[i])
		}
	}
}

// momentKernels are polyExpand's three kernels for radius r: a Gaussian
// applicability a(x), x·a(x) (odd, signed) and x²·a(x) — the asymmetric
// pairs the flow path feeds the filter.
func momentKernels(r int) [3][]float32 {
	var k [3][]float32
	for p := range k {
		k[p] = make([]float32, 2*r+1)
		for i := -r; i <= r; i++ {
			a := math.Exp(-float64(i*i) / (2 * 1.1 * 1.1))
			k[p][i+r] = float32(math.Pow(float64(i), float64(p)) * a)
		}
	}
	return k
}

var (
	filterWidths  = []int{1, 2, 3, 5, 11, 12, 48, 97}
	filterHeights = []int{1, 2, 7, 30, 60}
)

// forEachGeometry runs fn over the width × height grid at ASV_WORKERS 1, 2
// and 3, so every chunking of the rows and every interior/border split —
// including frames narrower or shorter than the kernel — is visited.
func forEachGeometry(t *testing.T, fn func(t *testing.T, im *Image)) {
	for _, workers := range []string{"1", "2", "3"} {
		t.Setenv("ASV_WORKERS", workers)
		for _, w := range filterWidths {
			for _, h := range filterHeights {
				t.Run(fmt.Sprintf("workers%s/%dx%d", workers, w, h), func(t *testing.T) {
					fn(t, randImage(int64(w*1000+h), w, h))
				})
			}
		}
	}
}

func TestSeparableFilterMatchesNaiveReference(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, im *Image) {
		for _, r := range []int{2, 3, 6} {
			k := momentKernels(r)
			g := GaussianKernel1D(float64(r) / 3)
			for _, pair := range [][2][]float32{
				{g, g}, {k[0], k[0]}, {k[1], k[0]}, {k[0], k[1]}, {k[2], k[0]}, {k[0], k[2]}, {k[1], k[1]},
				{k[2], {1}}, {{1}, k[1]}, // mixed radii, and a radius-0 pass: all interior
			} {
				got := separableFilter(im, pair[0], pair[1])
				sameBits(t, fmt.Sprintf("r=%d kernels %v|%v", r, pair[0], pair[1]), got, naiveSeparable(im, pair[0], pair[1]))
				PutImage(got)
			}
		}
	})
}

// TestSharedRowPassMatchesSeparableFilter pins what polyExpand relies on:
// one FilterRows result fed to several FilterCols calls gives each the bits
// of its own separableFilter call, and leaves the shared pass untouched.
func TestSharedRowPassMatchesSeparableFilter(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, im *Image) {
		k := momentKernels(2)
		for _, kx := range k {
			rows := FilterRows(im, kx)
			for _, ky := range k {
				sameBits(t, "shared row pass", FilterCols(rows, ky), naiveSeparable(im, kx, ky))
			}
			PutImage(rows)
		}
	})
}

func TestPyramidMatchesBlurThenDecimate(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, im *Image) {
		for _, sigma := range []float64{0.6, 0.9, 1.0, 2.0} {
			k := GaussianKernel1D(sigma)
			pyr := Pyramid(im, 3, sigma)
			for l := 1; l < len(pyr); l++ {
				sameBits(t, fmt.Sprintf("sigma %v level %d", sigma, l), pyr[l], Downsample2(naiveSeparable(pyr[l-1], k, k)))
			}
		}
	})
}

func TestUpsample2MatchesPerPixelBilinear(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, im *Image) {
		for _, size := range [][2]int{{2 * im.W, 2 * im.H}, {2*im.W + 1, 2*im.H - 1}, {(im.W + 1) / 2, (im.H + 1) / 2}, {7, 5}} {
			w, h := max(size[0], 1), max(size[1], 1)
			sameBits(t, fmt.Sprintf("to %dx%d", w, h), Upsample2(im, w, h), naiveUpsample2(im, w, h))
		}
	})
}

func TestFilterRejectsEvenKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on an even-length kernel")
		}
	}()
	separableFilter(NewImage(4, 4), []float32{1, 1}, []float32{1})
}
