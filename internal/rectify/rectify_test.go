package rectify

import (
	"math"
	"testing"
	"testing/quick"

	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/stereo"
	"asv/internal/testkit"
)

var identity = Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}

func TestMat3Identity(t *testing.T) {
	m := Mat3{2, 3, 5, 7, 11, 13, 17, 19, 23}
	if m.Mul(identity) != m || identity.Mul(m) != m {
		t.Fatal("identity multiplication broken")
	}
}

func TestMat3InverseRoundTrip(t *testing.T) {
	m := Mat3{2, 0, 1, 0, 3, 0, 1, 0, 2}
	p := m.Mul(m.Inverse())
	for i, want := range identity {
		if math.Abs(p[i]-want) > 1e-12 {
			t.Fatalf("M·M⁻¹ = %v", p)
		}
	}
}

func TestMat3SingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mat3{1, 2, 3, 2, 4, 6, 0, 0, 1}.Inverse()
}

func TestRotationIsOrthonormal(t *testing.T) {
	r := Rotation(0.02, -0.03, 0.05)
	p := r.Mul(Mat3{r[0], r[3], r[6], r[1], r[4], r[7], r[2], r[5], r[8]})
	for i, want := range identity {
		if math.Abs(p[i]-want) > 1e-12 {
			t.Fatalf("R·Rᵀ != I: %v", p)
		}
	}
	if math.Abs(r.Det()-1) > 1e-12 {
		t.Fatalf("det(R) = %v, want 1", r.Det())
	}
}

func TestHomographyIdentityRotation(t *testing.T) {
	in := DefaultIntrinsics(128, 96)
	h := Homography(in, identity)
	for i, want := range identity {
		if math.Abs(h[i]-want) > 1e-12 {
			t.Fatalf("H(I) != I: %v", h)
		}
	}
}

func TestWarpIdentityIsNoOp(t *testing.T) {
	seq := dataset.Generate(dataset.SceneConfig{
		W: 64, H: 48, FrameCount: 1, Layers: 1, MinDisp: 2, MaxDisp: 10, Seed: 3})
	im := seq.Frames[0].Left
	out := WarpHomography(im, identity)
	if testkit.DiffImages(out, im, 1e-6) != nil {
		t.Fatal("identity warp changed the image")
	}
}

func TestMisalignThenRectifyRecovers(t *testing.T) {
	// A smooth image isolates the geometric inverse from bilinear
	// resampling loss (high-frequency textures lose amplitude to double
	// interpolation regardless of the warp's correctness).
	im := imgproc.NewImage(128, 96)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			im.Set(x, y, float32(0.5+0.3*math.Sin(0.08*float64(x))*math.Cos(0.07*float64(y))))
		}
	}
	in := DefaultIntrinsics(im.W, im.H)
	r := Rotation(0.01, 0.015, -0.02)
	recovered := Rectify(Misalign(im, in, r), in, r)
	// Compare away from the border, where the double resampling is defined.
	var maxd float64
	for y := 12; y < im.H-12; y++ {
		for x := 12; x < im.W-12; x++ {
			d := math.Abs(float64(recovered.At(x, y) - im.At(x, y)))
			if d > maxd {
				maxd = d
			}
		}
	}
	if maxd > 0.03 {
		t.Fatalf("rectification did not invert misalignment: max interior diff %v", maxd)
	}
}

// The motivating end-to-end property: stereo matching collapses on a
// vertically misaligned pair and recovers after rectification.
func TestRectificationRestoresMatching(t *testing.T) {
	seq := dataset.Generate(dataset.SceneConfig{
		W: 128, H: 96, FrameCount: 1, Layers: 2,
		MinDisp: 2, MaxDisp: 14, Seed: 8})
	fr := seq.Frames[0]
	in := DefaultIntrinsics(fr.Left.W, fr.Left.H)
	// A 1.5° roll on the right camera: rows no longer correspond.
	r := Rotation(0.026, 0, 0)
	captured := Misalign(fr.Right, in, r)

	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 20

	misErr := stereo.ThreePixelError(stereo.SGM(fr.Left, captured, opt), fr.GT)
	fixed := Rectify(captured, in, r)
	fixErr := stereo.ThreePixelError(stereo.SGM(fr.Left, fixed, opt), fr.GT)

	if fixErr >= misErr {
		t.Fatalf("rectification did not help: %.2f%% -> %.2f%%", misErr, fixErr)
	}
	if fixErr > misErr/2 {
		t.Fatalf("rectification recovered too little: %.2f%% -> %.2f%%", misErr, fixErr)
	}
}

func TestRectifyPairBothSides(t *testing.T) {
	seq := dataset.Generate(dataset.SceneConfig{
		W: 96, H: 64, FrameCount: 1, Layers: 1, MinDisp: 2, MaxDisp: 10, Seed: 9})
	fr := seq.Frames[0]
	in := DefaultIntrinsics(fr.Left.W, fr.Left.H)
	rl := Rotation(0.01, 0, 0)
	rr := Rotation(-0.01, 0.01, 0)
	capL := Misalign(fr.Left, in, rl)
	capR := Misalign(fr.Right, in, rr)
	recL, recR := RectifyPair(capL, capR, in, rl, rr)
	if recL.W != fr.Left.W || recR.W != fr.Right.W {
		t.Fatal("rectified pair has wrong size")
	}
}

// Property: homographies compose — H(r2)·H(r1) == H(r2·r1).
func TestQuickHomographyComposition(t *testing.T) {
	in := DefaultIntrinsics(100, 80)
	f := func(a, b, c, d int8) bool {
		r1 := Rotation(float64(a)/2000, float64(b)/2000, 0)
		r2 := Rotation(0, float64(c)/2000, float64(d)/2000)
		lhs := Homography(in, r2).Mul(Homography(in, r1))
		rhs := Homography(in, r2.Mul(r1))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
