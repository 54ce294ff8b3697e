package imgproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randImage(seed int64, w, h int) *Image {
	rng := rand.New(rand.NewSource(seed))
	im := NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

func TestNewImagePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewImage(0, 5)
}

func TestAtClampsBorders(t *testing.T) {
	im := FromPix([]float32{1, 2, 3, 4}, 2, 2)
	if im.At(-1, -1) != 1 {
		t.Fatalf("At(-1,-1) = %v, want 1", im.At(-1, -1))
	}
	if im.At(5, 5) != 4 {
		t.Fatalf("At(5,5) = %v, want 4", im.At(5, 5))
	}
	if im.At(-3, 1) != 3 {
		t.Fatalf("At(-3,1) = %v, want 3", im.At(-3, 1))
	}
}

func TestBilinearAtGridPoints(t *testing.T) {
	im := FromPix([]float32{1, 2, 3, 4}, 2, 2)
	if im.Bilinear(0, 0) != 1 || im.Bilinear(1, 1) != 4 {
		t.Fatal("bilinear at integer coordinates should equal pixel values")
	}
	if got := im.Bilinear(0.5, 0); got != 1.5 {
		t.Fatalf("Bilinear(0.5,0) = %v, want 1.5", got)
	}
	if got := im.Bilinear(0.5, 0.5); got != 2.5 {
		t.Fatalf("Bilinear(0.5,0.5) = %v, want 2.5", got)
	}
}

func TestGaussianKernelNormalizedSymmetric(t *testing.T) {
	k := GaussianKernel1D(1.5)
	if len(k)%2 == 0 {
		t.Fatal("kernel length must be odd")
	}
	var sum float64
	for _, v := range k {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("kernel sum = %v, want 1", sum)
	}
	for i := range k {
		if k[i] != k[len(k)-1-i] {
			t.Fatal("kernel not symmetric")
		}
	}
	mid := len(k) / 2
	for i := 1; i <= mid; i++ {
		if k[mid-i] > k[mid] {
			t.Fatal("kernel not peaked at center")
		}
	}
}

func TestGaussianBlurPreservesConstant(t *testing.T) {
	im := NewImage(16, 16)
	for i := range im.Pix {
		im.Pix[i] = 0.7
	}
	out := GaussianBlur(im, 2.0)
	if d := MaxAbsDiff(im, out); d > 1e-5 {
		t.Fatalf("blur of constant image changed values by %v", d)
	}
}

func TestGaussianBlurReducesVariance(t *testing.T) {
	im := randImage(1, 32, 32)
	out := GaussianBlur(im, 1.5)
	varOf := func(p []float32) float64 {
		var mean float64
		for _, v := range p {
			mean += float64(v)
		}
		mean /= float64(len(p))
		var s float64
		for _, v := range p {
			d := float64(v) - mean
			s += d * d
		}
		return s / float64(len(p))
	}
	if varOf(out.Pix) >= varOf(im.Pix) {
		t.Fatal("blur did not reduce variance of noise image")
	}
}

func TestGradientsOfRamp(t *testing.T) {
	// f(x,y) = 2x + 3y has GradX=2, GradY=3 away from borders.
	im := NewImage(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			im.Set(x, y, float32(2*x+3*y))
		}
	}
	gx, gy := GradX(im), GradY(im)
	for y := 1; y < 7; y++ {
		for x := 1; x < 7; x++ {
			if gx.At(x, y) != 2 {
				t.Fatalf("GradX(%d,%d) = %v, want 2", x, y, gx.At(x, y))
			}
			if gy.At(x, y) != 3 {
				t.Fatalf("GradY(%d,%d) = %v, want 3", x, y, gy.At(x, y))
			}
		}
	}
}

func TestWarpZeroFlowIsIdentity(t *testing.T) {
	im := randImage(3, 12, 9)
	zero := NewImage(12, 9)
	out := Warp(im, zero, zero)
	if d := MaxAbsDiff(im, out); d != 0 {
		t.Fatalf("zero-flow warp changed image by %v", d)
	}
}

func TestWarpIntegerShift(t *testing.T) {
	im := randImage(4, 16, 16)
	u := NewImage(16, 16)
	v := NewImage(16, 16)
	for i := range u.Pix {
		u.Pix[i] = 2 // sample from x+2
	}
	out := Warp(im, u, v)
	for y := 0; y < 16; y++ {
		for x := 0; x < 13; x++ {
			if out.At(x, y) != im.At(x+2, y) {
				t.Fatalf("warp shift wrong at (%d,%d)", x, y)
			}
		}
	}
}

func TestDownsampleUpsampleShapes(t *testing.T) {
	im := randImage(5, 17, 11)
	down := Downsample2(im)
	if down.W != 9 || down.H != 6 {
		t.Fatalf("Downsample2 size %dx%d, want 9x6", down.W, down.H)
	}
	up := Upsample2(down, 17, 11)
	if up.W != 17 || up.H != 11 {
		t.Fatalf("Upsample2 size %dx%d", up.W, up.H)
	}
}

func TestPyramidLevels(t *testing.T) {
	im := randImage(6, 64, 48)
	pyr := Pyramid(im, 3, 1.0)
	if len(pyr) != 3 {
		t.Fatalf("levels = %d", len(pyr))
	}
	if pyr[0] != im {
		t.Fatal("level 0 should be the original image")
	}
	if pyr[1].W != 32 || pyr[2].W != 16 {
		t.Fatalf("pyramid widths %d,%d; want 32,16", pyr[1].W, pyr[2].W)
	}
}

func TestSubAndMeanAbs(t *testing.T) {
	a := FromPix([]float32{1, 2, 3, 4}, 2, 2)
	b := FromPix([]float32{0, 2, 5, 4}, 2, 2)
	d := Sub(a, b)
	if d.At(0, 0) != 1 || d.At(0, 1) != -2 {
		t.Fatalf("Sub wrong: %v", d.Pix)
	}
	if MeanAbs(d) != 0.75 {
		t.Fatalf("MeanAbs = %v, want 0.75", MeanAbs(d))
	}
}

// Property: blurring is invariant to adding a constant offset (linearity +
// normalization).
func TestQuickBlurShiftInvariance(t *testing.T) {
	f := func(seed int64, off8 int8) bool {
		off := float32(off8) / 32
		im := randImage(seed, 12, 12)
		shifted := im.Clone()
		for i := range shifted.Pix {
			shifted.Pix[i] += off
		}
		a := GaussianBlur(im, 1.0)
		b := GaussianBlur(shifted, 1.0)
		for i := range a.Pix {
			if math.Abs(float64(b.Pix[i]-a.Pix[i]-off)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: bilinear sampling is bounded by the min/max of the image.
func TestQuickBilinearBounded(t *testing.T) {
	f := func(seed int64, xr, yr uint8) bool {
		im := randImage(seed, 8, 8)
		var mn, mx float32 = 2, -2
		for _, v := range im.Pix {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		x := float32(xr) / 255 * 7
		y := float32(yr) / 255 * 7
		v := im.Bilinear(x, y)
		return v >= mn-1e-5 && v <= mx+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
