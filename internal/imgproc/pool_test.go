package imgproc

import (
	"testing"
)

func TestGetImageIsZeroedLikeNewImage(t *testing.T) {
	// Dirty a buffer, return it, and make sure the recycled image comes back
	// clean — pooled allocation must be observationally identical to
	// NewImage.
	im := GetImage(13, 7)
	for i := range im.Pix {
		im.Pix[i] = 42
	}
	PutImage(im)
	for try := 0; try < 8; try++ {
		got := GetImage(13, 7)
		if got.W != 13 || got.H != 7 || len(got.Pix) != 13*7 {
			t.Fatalf("GetImage shape: %dx%d len %d", got.W, got.H, len(got.Pix))
		}
		for i, v := range got.Pix {
			if v != 0 {
				t.Fatalf("recycled pixel %d = %v, want 0", i, v)
			}
		}
		PutImage(got)
	}
}

func TestPutImagePoisonsHandle(t *testing.T) {
	im := GetImage(4, 4)
	PutImage(im)
	if im.Pix != nil {
		t.Fatal("PutImage left Pix attached; use-after-Put would be silent")
	}
	// Double-Put of a poisoned handle must be a no-op.
	PutImage(im)
	PutImage(nil)
}

func TestPoolStatsMonotonic(t *testing.T) {
	g0, _, p0 := PoolStats()
	im := GetImage(9, 9)
	PutImage(im)
	_ = GetImage(9, 9)
	g1, _, p1 := PoolStats()
	if g1 < g0+2 {
		t.Fatalf("gets did not advance: %d -> %d", g0, g1)
	}
	if p1 < p0+1 {
		t.Fatalf("puts did not advance: %d -> %d", p0, p1)
	}
}

func TestSeparableFilterMatchesDirectConvolution(t *testing.T) {
	// The pooled scratch path must not change filter results: compare against
	// a naive 2-D convolution with replicate borders.
	im := NewImage(9, 6)
	for i := range im.Pix {
		im.Pix[i] = float32(i%7) * 0.25
	}
	kx := []float32{0.25, 0.5, 0.25}
	ky := []float32{0.1, 0.8, 0.1}
	got := separableFilter(im, kx, ky)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var want float32
			for j := -1; j <= 1; j++ {
				var row float32
				for i := -1; i <= 1; i++ {
					row += kx[i+1] * im.At(x+i, y+j)
				}
				want += ky[j+1] * row
			}
			if diff := got.At(x, y) - want; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("(%d,%d): got %v want %v", x, y, got.At(x, y), want)
			}
		}
	}
}
