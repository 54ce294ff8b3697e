package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"asv/internal/flow"
	"asv/internal/stereo"
	"asv/internal/testkit"
)

func smallCfg(seed int64) SceneConfig {
	return SceneConfig{
		W: 96, H: 64, FrameCount: 3,
		Layers: 2, MinDisp: 2, MaxDisp: 14,
		MaxVel: 1.0, MaxDispVel: 0.2, Seed: seed,
	}
}

func TestGenerateShapesAndDeterminism(t *testing.T) {
	a := Generate(smallCfg(7))
	b := Generate(smallCfg(7))
	if len(a.Frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(a.Frames))
	}
	for i := range a.Frames {
		fa, fb := a.Frames[i], b.Frames[i]
		if fa.Left.W != 96 || fa.Left.H != 64 {
			t.Fatalf("bad frame size %dx%d", fa.Left.W, fa.Left.H)
		}
		if testkit.DiffImages(fa.Left, fb.Left, 0) != nil ||
			testkit.DiffImages(fa.Right, fb.Right, 0) != nil ||
			testkit.DiffImages(fa.GT, fb.GT, 0) != nil {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := Generate(smallCfg(8))
	if testkit.DiffImages(a.Frames[0].Left, c.Frames[0].Left, 0) == nil {
		t.Fatal("different seeds produced identical frames")
	}
}

func TestGTWithinConfiguredRange(t *testing.T) {
	cfg := smallCfg(11)
	seq := Generate(cfg)
	for _, fr := range seq.Frames {
		for _, d := range fr.GT.Pix {
			if d < 0 {
				t.Fatal("generator should produce full GT coverage")
			}
			// dvel can push disparities slightly past MaxDisp over time.
			if float64(d) > cfg.MaxDisp+float64(cfg.FrameCount)*cfg.MaxDispVel+1e-3 {
				t.Fatalf("GT disparity %v exceeds range", d)
			}
		}
	}
}

// The defining property of the generator: stereo matching the rendered pair
// against the rendered ground truth must succeed. This closes the loop
// between the scene model and the disparity convention used by the stereo
// package.
func TestRenderedPairIsMatchable(t *testing.T) {
	cfg := smallCfg(21)
	cfg.Noise = 0
	seq := Generate(cfg)
	fr := seq.Frames[0]
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 20
	disp := stereo.SGM(fr.Left, fr.Right, opt)
	if e := stereo.ThreePixelError(disp, fr.GT); e > 12 {
		t.Fatalf("SGM on generated pair: three-pixel error %v%% (GT/render mismatch?)", e)
	}
}

func TestTemporalCoherence(t *testing.T) {
	// Consecutive frames must be similar (bounded motion) but not identical.
	seq := Generate(smallCfg(33))
	f0, f1 := seq.Frames[0], seq.Frames[1]
	var d float64
	for i, v := range f0.Left.Pix {
		d += math.Abs(float64(v-f1.Left.Pix[i])) / float64(len(f0.Left.Pix))
	}
	if d == 0 {
		t.Fatal("frames are identical; no motion generated")
	}
	if d > 0.2 {
		t.Fatalf("frames differ too much (mean |Δ| = %v); motion unreasonably large", d)
	}
}

func TestGroundPlaneRampsDownward(t *testing.T) {
	cfg := smallCfg(5)
	cfg.Ground = true
	cfg.Layers = 0
	seq := Generate(cfg)
	gt := seq.Frames[0].GT
	// Below the horizon the ground dominates and disparity grows with y.
	bottom := gt.At(48, cfg.H-2)
	upper := gt.At(48, cfg.H-18)
	if bottom <= upper {
		t.Fatalf("ground disparity should grow towards the bottom: %v vs %v", upper, bottom)
	}
}

func TestSceneFlowLikePresets(t *testing.T) {
	cfgs := SceneFlowLike(96, 64, 4, 1)
	if len(cfgs) != 26 {
		t.Fatalf("SceneFlow-like should have 26 sequences, got %d", len(cfgs))
	}
	seen := map[float64]bool{}
	for _, c := range cfgs {
		c.Validate()
		if c.FrameCount != 4 {
			t.Fatal("frame count not honoured")
		}
		seen[c.MaxDisp] = true
	}
	if len(seen) < 3 {
		t.Fatal("depth ranges should vary across sequences")
	}
}

func TestKITTILikePresets(t *testing.T) {
	cfgs := KITTILike(96, 64, 200, 2)
	if len(cfgs) != 200 {
		t.Fatalf("KITTI-like should have 200 pairs, got %d", len(cfgs))
	}
	for _, c := range cfgs {
		if c.FrameCount != 2 {
			t.Fatal("KITTI-like sequences must be exactly 2 frames")
		}
		if !c.Ground {
			t.Fatal("KITTI-like scenes should include a ground plane")
		}
	}
}

func TestValidatePanics(t *testing.T) {
	bad := []SceneConfig{
		{W: 4, H: 64, FrameCount: 1, MaxDisp: 5},
		{W: 64, H: 64, FrameCount: 0, MaxDisp: 5},
		{W: 64, H: 64, FrameCount: 1, MinDisp: 6, MaxDisp: 5},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should have panicked", i)
				}
			}()
			cfg.Validate()
		}()
	}
}

// Property: rendering is pure — regenerating any frame from the same config
// yields bit-identical images.
func TestQuickGeneratePure(t *testing.T) {
	f := func(seed int64) bool {
		cfg := smallCfg(seed % 1000)
		cfg.FrameCount = 2
		a := Generate(cfg)
		b := Generate(cfg)
		return testkit.DiffImages(a.Frames[1].Left, b.Frames[1].Left, 0) == nil &&
			testkit.DiffImages(a.Frames[1].GT, b.Frames[1].GT, 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: GT values are always finite and non-negative.
func TestQuickGTFinite(t *testing.T) {
	f := func(seed int64) bool {
		cfg := smallCfg(seed % 500)
		cfg.FrameCount = 1
		seq := Generate(cfg)
		for _, d := range seq.Frames[0].GT.Pix {
			if d < 0 || math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Photometric mismatch separates cost functions: census-based SGM is
// invariant to a per-camera gain, absolute-difference block matching is
// not. This is the classic robustness argument for census costs.
func TestRightGainSeparatesCostFunctions(t *testing.T) {
	cfg := smallCfg(41)
	cfg.Noise = 0
	cfg.RightGain = 1.25
	fr := Generate(cfg).Frames[0]

	sgmOpt := stereo.DefaultSGMOptions()
	sgmOpt.MaxDisp = 20
	sgmErr := stereo.ThreePixelError(stereo.SGM(fr.Left, fr.Right, sgmOpt), fr.GT)

	bmOpt := stereo.DefaultBMOptions()
	bmOpt.MaxDisp = 20
	bmErr := stereo.ThreePixelError(stereo.Match(fr.Left, fr.Right, bmOpt), fr.GT)

	if sgmErr > 15 {
		t.Fatalf("census SGM should tolerate a 25%% gain (error %.1f%%)", sgmErr)
	}
	if bmErr < sgmErr+10 {
		t.Fatalf("SAD matching should degrade under gain: BM %.1f%% vs SGM %.1f%%", bmErr, sgmErr)
	}
}

func TestRightGainDefaultIsNeutral(t *testing.T) {
	a := Generate(smallCfg(42))
	cfg := smallCfg(42)
	cfg.RightGain = 1.0
	b := Generate(cfg)
	if testkit.DiffImages(a.Frames[0].Right, b.Frames[0].Right, 0) != nil {
		t.Fatal("RightGain 0 and 1 should be identical")
	}
}

func TestGroundTruthFlowMatchesLayerMotion(t *testing.T) {
	cfg := smallCfg(91)
	cfg.Layers = 1
	cfg.MaxVel = 2
	cfg.Noise = 0
	seq := Generate(cfg)
	fr0, fr1 := seq.Frames[0], seq.Frames[1]
	if fr0.FlowU == nil || fr0.FlowV == nil {
		t.Fatal("ground-truth flow missing")
	}
	// Warping frame t+1's left view backwards by the GT flow must
	// reconstruct frame t (away from occlusion boundaries).
	var errSum float64
	var n int
	for y := 4; y < cfg.H-4; y++ {
		for x := 4; x < cfg.W-4; x++ {
			u := fr0.FlowU.At(x, y)
			v := fr0.FlowV.At(x, y)
			pred := fr1.Left.Bilinear(float32(x)+u, float32(y)+v)
			d := float64(pred - fr0.Left.At(x, y))
			errSum += d * d
			n++
		}
	}
	rms := math.Sqrt(errSum / float64(n))
	if rms > 0.05 {
		t.Fatalf("GT-flow warp residual RMS = %.4f; flow does not explain the video", rms)
	}
}

// The granularity claim grounded in dense ground truth: block matching
// quantizes motion to integers, so its endpoint error *equals* the
// sub-pixel residual of the true velocity, while Farneback estimates the
// fraction and keeps a bounded error regardless. On half-pixel motion the
// dense estimator wins decisively.
func TestFarnebackEstimatesSubpixelMotionBlockCannot(t *testing.T) {
	// Pure-pan scenes (background only). Per-seed the pan velocity's
	// fractional part varies; block EPE must track it exactly.
	for _, seed := range []int64{90, 93, 96, 97} {
		cfg := SceneConfig{W: 128, H: 96, FrameCount: 2, Layers: 0,
			MinDisp: 2, MaxDisp: 16, MaxVel: 3.0, Noise: 0, Seed: seed}
		seq := Generate(cfg)
		fr0, fr1 := seq.Frames[0], seq.Frames[1]
		gtField := flow.Field{U: fr0.FlowU, V: fr0.FlowV}

		vx := float64(fr0.FlowU.At(0, 0))
		frac := math.Abs(vx - math.Round(vx))

		block := flow.BlockMatch(fr0.Left, fr1.Left, 16, 4)
		blockEPE := endpointError(block, gtField)
		if math.Abs(blockEPE-frac) > 0.05 {
			t.Errorf("seed %d: block EPE %.3f should equal the quantization residual %.3f",
				seed, blockEPE, frac)
		}

		fopt := flow.DefaultOptions()
		fopt.Levels = 3
		farnEPE := endpointError(flow.Farneback(fr0.Left, fr1.Left, fopt), gtField)
		if farnEPE > 0.5 {
			t.Errorf("seed %d: Farneback EPE %.3f should stay bounded", seed, farnEPE)
		}
		// On strongly fractional motion, per-pixel estimation wins.
		if frac > 0.4 && farnEPE >= blockEPE {
			t.Errorf("seed %d: Farneback (%.3f) should beat block (%.3f) at frac %.2f",
				seed, farnEPE, blockEPE, frac)
		}
	}
}

// endpointError returns the mean Euclidean distance between the estimated
// field and a ground-truth field, the standard dense-flow accuracy metric.
func endpointError(est, gt flow.Field) float64 {
	var s float64
	n := len(est.U.Pix)
	for i := 0; i < n; i++ {
		du := float64(est.U.Pix[i] - gt.U.Pix[i])
		dv := float64(est.V.Pix[i] - gt.V.Pix[i])
		s += math.Sqrt(float64(du*du) + float64(dv*dv))
	}
	return s / float64(n)
}
