package asv

import (
	"math"
	"testing"
)

// TestQuickstartFlow exercises the minimal user journey: generate a scene,
// match it three ways, triangulate.
func TestQuickstartFlow(t *testing.T) {
	seq := GenerateSequence(SceneConfig{
		W: 96, H: 64, FrameCount: 1, Layers: 2,
		MinDisp: 2, MaxDisp: 14, Seed: 42,
	})
	fr := seq.Frames[0]

	bm := BlockMatch(fr.Left, fr.Right, func() BMOptions {
		o := DefaultBMOptions()
		o.MaxDisp = 20
		return o
	}())
	sgmOpt := DefaultSGMOptions()
	sgmOpt.MaxDisp = 20
	sg := SGM(fr.Left, fr.Right, sgmOpt)

	bmErr := ThreePixelError(bm, fr.GT)
	sgErr := ThreePixelError(sg, fr.GT)
	if bmErr > 40 || sgErr > 25 {
		t.Fatalf("classic matchers too inaccurate: BM %.1f%%, SGM %.1f%%", bmErr, sgErr)
	}

	cam := Bumblebee2()
	depth := cam.DepthMap(sg)
	if depth.W != 96 || depth.H != 64 {
		t.Fatal("depth map has wrong size")
	}
}

// TestISMPublicAPI drives the ISM pipeline end-to-end through the public
// surface with an SGM key matcher.
func TestISMPublicAPI(t *testing.T) {
	cfg := DefaultPipelineConfig()
	cfg.PW = 2
	sgmOpt := DefaultSGMOptions()
	sgmOpt.MaxDisp = 20
	pipe := NewPipeline(SGMKeyMatcher{Opt: sgmOpt}, cfg)

	seq := GenerateSequence(SceneConfig{
		W: 112, H: 72, FrameCount: 4, Layers: 2,
		MinDisp: 2, MaxDisp: 14, MaxVel: 1, Seed: 5,
	})
	var keyErr, nonKeyErr []float64
	for _, fr := range seq.Frames {
		res := pipe.Process(fr.Left, fr.Right)
		e := ThreePixelError(res.Disparity, fr.GT)
		if res.IsKey {
			keyErr = append(keyErr, e)
		} else {
			nonKeyErr = append(nonKeyErr, e)
		}
	}
	if len(keyErr) != 2 || len(nonKeyErr) != 2 {
		t.Fatalf("PW-2 over 4 frames should alternate key/non-key (got %d/%d)", len(keyErr), len(nonKeyErr))
	}
	for i, e := range nonKeyErr {
		if e > keyErr[i]+15 {
			t.Fatalf("non-key error %.1f%% too far above key error %.1f%%", e, keyErr[i])
		}
	}
}

func TestDeconvolutionPublicAPI(t *testing.T) {
	in := NewTensor(2, 5, 5)
	for i := range in.Data() {
		in.Data()[i] = float32(i%7) - 3
	}
	w := NewTensor(3, 2, 3, 3)
	for i := range w.Data() {
		w.Data()[i] = float32(i%5) - 2
	}
	ref := Deconv2D(in, w, 2, 1)
	got := TransformedDeconv2D(in, w, 1)
	var maxd float64
	for i := range ref.Data() {
		d := math.Abs(float64(ref.Data()[i] - got.Data()[i]))
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-4 {
		t.Fatalf("transformed deconvolution diverges by %v", maxd)
	}
	subs := DecomposeKernel2D(w)
	if subs[0] == nil {
		t.Fatal("decomposition returned no sub-kernels")
	}
}

func TestSimulationPublicAPI(t *testing.T) {
	acc := DefaultAccelerator()
	nets := StereoDNNs(135, 240)
	if len(nets) != 4 {
		t.Fatalf("expected 4 stereo DNNs, got %d", len(nets))
	}
	base := acc.RunNetwork(nets[0], RunOptions{Policy: PolicyBaseline})
	opt := acc.RunNetwork(nets[0], RunOptions{Policy: PolicyILAR})
	if opt.Cycles >= base.Cycles {
		t.Fatal("DCO should beat the baseline")
	}
	if len(GANs()) != 6 {
		t.Fatal("expected 6 GANs")
	}
	if DefaultEyeriss() == nil || JetsonTX2() == nil || DefaultGANNX() == nil {
		t.Fatal("comparison models unavailable")
	}
}

func TestEffectiveMACsExposed(t *testing.T) {
	nets := StereoDNNs(135, 240)
	var l Layer
	for _, cand := range nets[0].Layers {
		if cand.Kind == 1 { // deconv
			l = cand
			break
		}
	}
	if l.Name == "" {
		t.Fatal("no deconvolution found in FlowNetC")
	}
	if EffectiveMACs(l) >= l.MACs() {
		t.Fatal("transformation should reduce MACs")
	}
}

func TestFarnebackPublicAPI(t *testing.T) {
	a := NewImage(48, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			a.Set(x, y, float32(0.5+0.3*math.Sin(0.4*float64(x))*math.Cos(0.3*float64(y))))
		}
	}
	f := Farneback(a, a, DefaultFlowOptions())
	if f.U.W != 48 || f.V.H != 48 {
		t.Fatal("flow field has wrong size")
	}
}

func TestHWOverheadExposed(t *testing.T) {
	o := ComputeHWOverhead(DefaultHW().PEs())
	if o.TotalAreaPct <= 0 || o.TotalAreaPct >= 0.5 {
		t.Fatalf("area overhead %.2f%% outside (0, 0.5%%)", o.TotalAreaPct)
	}
}

// A guide that Go cannot convert to int portably — NaN, ±Inf, or a
// magnitude past the int range — refines to 0 on every GOARCH, exactly as
// a finite guide far outside the search does, and leaves every other pixel
// alone.
func TestGuidedRefineNonFiniteGuides(t *testing.T) {
	seq := GenerateSequence(SceneConfig{W: 64, H: 40, FrameCount: 1, Layers: 2, MinDisp: 2, MaxDisp: 12, Seed: 5})
	fr := seq.Frames[0]
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30, -1e30}
	init, far := fr.GT.Clone(), fr.GT.Clone()
	for i := 5; i < len(init.Pix); i += 17 {
		init.Pix[i] = bad[i%len(bad)]
		far.Pix[i] = -1000
	}
	for _, opt := range []BMOptions{{BlockR: 2, Subpixel: true}, {BlockR: 2, Census: 2}} {
		got, want := GuidedRefine(fr.Left, fr.Right, init, 3, opt), GuidedRefine(fr.Left, fr.Right, far, 3, opt)
		for i := range got.Pix {
			if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%+v pixel %d (guide %v): %v, want %v", opt, i, init.Pix[i], got.Pix[i], want.Pix[i])
			}
			if i%17 == 5 && got.Pix[i] != 0 {
				t.Fatalf("%+v pixel %d (guide %v): %v, want 0", opt, i, init.Pix[i], got.Pix[i])
			}
		}
	}
}
