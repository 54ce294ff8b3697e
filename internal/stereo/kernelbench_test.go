package stereo

import "testing"

func TestMeasureKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness, skipped in -short")
	}
	points := MeasureKernels([][2]int{{32, 24}}, 8, 1)
	if len(points) != 10 { // sad, cvf, refine in both numeric types; census, census-transform, sgm-aggregate, wta in one
		t.Fatalf("got %d points, want 10", len(points))
	}
	paired := map[string]bool{"sad": true, "cvf": true, "refine": true}
	for _, p := range points {
		if p.NsPerPixel <= 0 {
			t.Errorf("%s/%s: non-positive ns/pixel %v", p.Kernel, p.Variant, p.NsPerPixel)
		}
		switch p.Variant {
		case "float":
			if p.SpeedupX != 0 || !paired[p.Kernel] {
				t.Errorf("%s/float: unexpected row or speedup %v", p.Kernel, p.SpeedupX)
			}
		case "fixed":
			if (p.SpeedupX > 0) != paired[p.Kernel] {
				t.Errorf("%s/fixed: speedup %v, paired kernel: %v", p.Kernel, p.SpeedupX, paired[p.Kernel])
			}
		default:
			t.Errorf("unknown variant %q", p.Variant)
		}
		if p.W != 32 || p.H != 24 || p.MaxDisp != 8 {
			t.Errorf("%s/%s: wrong size metadata %+v", p.Kernel, p.Variant, p)
		}
	}
}
