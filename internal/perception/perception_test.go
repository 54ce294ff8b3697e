package perception

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/rectify"
)

func testCalib() *Calibration {
	c := DefaultCalibration(64, 48)
	c.LeftRPY = [3]float64{0.004, -0.003, 0.002}
	c.RightRPY = [3]float64{-0.002, 0.005, -0.003}
	return c
}

func TestCalibrationJSONRoundTrip(t *testing.T) {
	want := testCalib()
	got, err := ParseCalibration(want.EncodeJSON())
	if err != nil {
		t.Fatalf("ParseCalibration(EncodeJSON): %v", err)
	}
	if *got != *want {
		t.Fatalf("round trip changed the calibration: %+v != %+v", got, want)
	}
}

func TestParseCalibrationRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"not json":         `{`,
		"unknown field":    `{"fx":64,"fy":64,"cx":32,"cy":24,"baseline_m":0.1,"zoom":2}`,
		"zero focal":       `{"fx":0,"fy":64,"cx":32,"cy":24,"baseline_m":0.1}`,
		"negative base":    `{"fx":64,"fy":64,"cx":32,"cy":24,"baseline_m":-1}`,
		"huge baseline":    `{"fx":64,"fy":64,"cx":32,"cy":24,"baseline_m":101}`,
		"tilt too large":   `{"fx":64,"fy":64,"cx":32,"cy":24,"baseline_m":0.1,"left_rpy":[1.6,0,0]}`,
		"trailing garbage": `{"fx":64,"fy":64,"cx":32,"cy":24,"baseline_m":0.1} extra`,
		"wrong type":       `{"fx":"wide","fy":64,"cx":32,"cy":24,"baseline_m":0.1}`,
	}
	for name, in := range cases {
		if _, err := ParseCalibration([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		} else {
			var ce *CalibrationError
			if !errors.As(err, &ce) {
				t.Errorf("%s: error %v is not a *CalibrationError", name, err)
			}
		}
	}
}

// TestRectifyPairMatchesOffline pins the tentpole's bit-identity contract:
// rectifying through the calibration is exactly rectify.RectifyPair.
func TestRectifyPairMatchesOffline(t *testing.T) {
	c := testCalib()
	fr := dataset.Generate(dataset.KITTILike(64, 48, 1, 5)[0]).Frames[0]
	rawL := rectify.Misalign(fr.Left, c.Intrinsics(), c.RotLeft())
	rawR := rectify.Misalign(fr.Right, c.Intrinsics(), c.RotRight())

	gotL, gotR := c.RectifyPair(rawL, rawR)
	wantL, wantR := rectify.RectifyPair(rawL, rawR, c.Intrinsics(), c.RotLeft(), c.RotRight())
	for i := range gotL.Pix {
		if gotL.Pix[i] != wantL.Pix[i] || gotR.Pix[i] != wantR.Pix[i] {
			t.Fatalf("calibration rectification diverges from rectify.RectifyPair at pixel %d", i)
		}
	}
}

func TestDepthMapTriangulation(t *testing.T) {
	c := DefaultCalibration(8, 4)
	disp := imgproc.NewImage(8, 4)
	disp.Set(0, 0, 4)                          // valid
	disp.Set(1, 0, 0)                          // invalid: zero
	disp.Set(2, 0, -3)                         // invalid: negative
	disp.Set(3, 0, float32(math.NaN()))        // invalid: NaN
	disp.Set(4, 0, float32(math.Inf(1)))       // infinite disparity -> depth 0
	disp.Set(5, 0, float32(MinValidDisp/10.0)) // below the validity floor

	z := DepthMap(disp, c)
	want := float32(c.Fx * c.BaselineM / 4)
	if z.At(0, 0) != want {
		t.Errorf("depth(4px) = %g, want %g", z.At(0, 0), want)
	}
	for x := 1; x <= 5; x++ {
		if z.At(x, 0) != 0 {
			t.Errorf("invalid disparity at x=%d produced depth %g, want 0", x, z.At(x, 0))
		}
	}
}

func TestReprojectValidityAndGeometry(t *testing.T) {
	c := DefaultCalibration(8, 4)
	disp := imgproc.NewImage(8, 4)
	inten := imgproc.NewImage(8, 4)
	disp.Set(2, 1, 8)
	inten.Set(2, 1, 0.5)
	disp.Set(5, 3, float32(math.NaN()))
	disp.Set(6, 3, -1)

	cl := Reproject(disp, inten, c)
	if len(cl.Points) != 1 {
		t.Fatalf("got %d points, want exactly the one valid pixel", len(cl.Points))
	}
	p := cl.Points[0]
	z := c.Fx * c.BaselineM / 8
	if math.Abs(float64(p.Z)-z) > 1e-6 {
		t.Errorf("Z = %g, want %g", p.Z, z)
	}
	wantX := (2 - c.Cx) * z / c.Fx
	wantY := (1 - c.Cy) * z / c.Fy
	if math.Abs(float64(p.X)-wantX) > 1e-6 || math.Abs(float64(p.Y)-wantY) > 1e-6 {
		t.Errorf("XY = (%g, %g), want (%g, %g)", p.X, p.Y, wantX, wantY)
	}
	if p.I != 0.5 {
		t.Errorf("intensity %g, want 0.5", p.I)
	}

	st := cl.Stats()
	if st.Points != 1 || st.Grid != 32 {
		t.Errorf("stats points/grid = %d/%d, want 1/32", st.Points, st.Grid)
	}
	if st.P50Z != st.MinZ || st.MaxZ != st.MinZ {
		t.Errorf("single-point percentiles disagree: %+v", st)
	}
}

func TestCloudStatsPercentiles(t *testing.T) {
	cl := &Cloud{W: 10, H: 1}
	for i := 1; i <= 10; i++ {
		cl.Points = append(cl.Points, Point{Z: float32(i)})
	}
	st := cl.Stats()
	if st.P10Z != 1 || st.P50Z != 5 || st.P90Z != 9 || st.MinZ != 1 || st.MaxZ != 10 {
		t.Fatalf("percentiles: %+v", st)
	}
	if math.Abs(st.MeanZ-5.5) > 1e-12 || st.ValidFrac != 1.0 {
		t.Fatalf("mean/valid: %+v", st)
	}
}

func testCloud(t *testing.T) *Cloud {
	t.Helper()
	c := testCalib()
	fr := dataset.Generate(dataset.KITTILike(48, 32, 1, 9)[0]).Frames[0]
	return Reproject(fr.GT, fr.Left, c)
}

func TestCloudCodecRoundTrip(t *testing.T) {
	cl := testCloud(t)
	buf := EncodeCloud(cl)
	got, err := decodeCloud(buf, 0)
	if err != nil {
		t.Fatalf("decodeCloud: %v", err)
	}
	if got.W != cl.W || got.H != cl.H || len(got.Points) != len(cl.Points) {
		t.Fatalf("shape changed: %dx%d/%d != %dx%d/%d",
			got.W, got.H, len(got.Points), cl.W, cl.H, len(cl.Points))
	}
	for i := range got.Points {
		if got.Points[i] != cl.Points[i] {
			t.Fatalf("point %d changed: %+v != %+v", i, got.Points[i], cl.Points[i])
		}
	}
	if !bytes.Equal(EncodeCloud(got), buf) {
		t.Fatal("re-encode is not bit-identical")
	}
}

func TestDecodeCloudRejectsDamage(t *testing.T) {
	valid := EncodeCloud(testCloud(t))
	mustFail := func(name string, data []byte) {
		t.Helper()
		_, err := decodeCloud(data, 0)
		var ce *cloudError
		if err == nil || !errors.As(err, &ce) {
			t.Errorf("%s: err=%v, want *cloudError", name, err)
		}
	}
	mustFail("empty", nil)
	mustFail("truncated", valid[:len(valid)-5])
	mustFail("bad magic", append([]byte("NOPCLD!"), valid[7:]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2]++
	mustFail("bit flip", flipped)
	bumped := append([]byte(nil), valid...)
	bumped[6] = 99
	mustFail("future version", bumped)
	if _, err := decodeCloud(valid, 1); err == nil {
		t.Error("point cap not enforced")
	}
}

func TestPLYWriters(t *testing.T) {
	cl := testCloud(t)

	var asc bytes.Buffer
	if err := WritePLYASCII(&asc, cl); err != nil {
		t.Fatalf("WritePLYASCII: %v", err)
	}
	text := asc.String()
	if !strings.HasPrefix(text, "ply\nformat ascii 1.0\n") {
		t.Fatalf("ascii header: %q", text[:40])
	}
	if !strings.Contains(text, "element vertex "+strconv.Itoa(len(cl.Points))+"\n") {
		t.Fatal("ascii header misses the vertex count")
	}
	// 9 header lines + one line per point.
	if got := strings.Count(text, "\n"); got != 9+len(cl.Points) {
		t.Fatalf("ascii has %d lines, want %d", got, 9+len(cl.Points))
	}

	var bin bytes.Buffer
	if err := WritePLYBinary(&bin, cl); err != nil {
		t.Fatalf("WritePLYBinary: %v", err)
	}
	raw := bin.Bytes()
	if !bytes.HasPrefix(raw, []byte("ply\nformat binary_little_endian 1.0\n")) {
		t.Fatal("binary header wrong")
	}
	idx := bytes.Index(raw, []byte("end_header\n"))
	if idx < 0 {
		t.Fatal("binary PLY misses end_header")
	}
	body := raw[idx+len("end_header\n"):]
	if len(body) != 16*len(cl.Points) {
		t.Fatalf("binary body is %d bytes, want %d", len(body), 16*len(cl.Points))
	}
}
