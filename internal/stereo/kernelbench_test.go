package stereo

import "testing"

func TestMeasureKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness, skipped in -short")
	}
	points := MeasureKernels([][2]int{{32, 24}}, 8, 1)
	if len(points) != 6 { // sad, cvf, refine, census-transform, sgm-aggregate, wta
		t.Fatalf("got %d points, want 6", len(points))
	}
	for _, p := range points {
		if p.NsPerPixel <= 0 {
			t.Errorf("%s/%s: non-positive ns/pixel %v", p.Kernel, p.Variant, p.NsPerPixel)
		}
		if p.Variant != "fixed" {
			t.Errorf("%s: variant %q, want fixed", p.Kernel, p.Variant)
		}
		if p.W != 32 || p.H != 24 || p.MaxDisp != 8 {
			t.Errorf("%s/%s: wrong size metadata %+v", p.Kernel, p.Variant, p)
		}
	}
}
