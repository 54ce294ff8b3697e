package core

import (
	"math"
	"testing"

	"asv/internal/dataset"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

func seqCfg(seed int64) dataset.SceneConfig {
	return dataset.SceneConfig{
		W: 112, H: 72, FrameCount: 5,
		Layers: 2, MinDisp: 2, MaxDisp: 16,
		MaxVel: 1.2, MaxDispVel: 0.2, Noise: 0.005, Seed: seed,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PW: 0, FlowScale: 1, RefineR: 1},
		{PW: 1, FlowScale: 0, RefineR: 1},
		{PW: 1, FlowScale: 1, RefineR: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			New(nil, cfg)
		}()
	}
}

func TestKeyFrameSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PW = 3
	m := SGMMatcher{Opt: stereo.SGMOptions{MaxDisp: 8, CensusR: 1, P1: 1, P2: 8, Paths: 4}}
	p := New(m, cfg)
	seq := dataset.Generate(seqCfg(1))
	wantKey := []bool{true, false, false, true, false}
	for i, fr := range seq.Frames {
		if p.NextIsKey() != wantKey[i] {
			t.Fatalf("frame %d: NextIsKey = %v, want %v", i, p.NextIsKey(), wantKey[i])
		}
		res := p.Process(fr.Left, fr.Right)
		if res.IsKey != wantKey[i] {
			t.Fatalf("frame %d: IsKey = %v, want %v", i, res.IsKey, wantKey[i])
		}
		if res.Disparity == nil || res.MACs <= 0 {
			t.Fatalf("frame %d: incomplete result", i)
		}
	}
	p.Reset()
	if !p.NextIsKey() || p.FrameIndex() != 0 {
		t.Fatal("Reset did not restore key-frame state")
	}
}

func TestProcessNonKeyBeforeKeyPanics(t *testing.T) {
	p := New(nil, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.ProcessNonKey(imgproc.NewImage(8, 8), imgproc.NewImage(8, 8))
}

func TestProcessWithoutMatcherPanics(t *testing.T) {
	p := New(nil, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Process(imgproc.NewImage(8, 8), imgproc.NewImage(8, 8))
}

func TestPropagateConstantMotion(t *testing.T) {
	// Previous disparity is 6 everywhere; the left view moves by (+2, 0) and
	// the right view by (+1, 0). The correspondence invariant says the new
	// disparity is 6 + 2 - 1 = 7.
	w, h := 32, 16
	prev := imgproc.NewImage(w, h)
	for i := range prev.Pix {
		prev.Pix[i] = 6
	}
	fl := flow.NewField(w, h)
	fr := flow.NewField(w, h)
	for i := range fl.U.Pix {
		fl.U.Pix[i] = 2
		fr.U.Pix[i] = 1
	}
	out := propagate(prev, fl, fr)
	// Interior pixels (reachable by the +2 shift) must be exactly 7.
	for y := 0; y < h; y++ {
		for x := 3; x < w; x++ {
			if out.At(x, y) != 7 {
				t.Fatalf("propagated(%d,%d) = %v, want 7", x, y, out.At(x, y))
			}
		}
	}
}

func TestPropagateKeepsNearestOnCollision(t *testing.T) {
	// Two pixels collide at x=2: one with disparity 3 (moving +1) and one
	// with disparity 9 (static). The nearer surface (9) must win.
	w, h := 8, 1
	prev := imgproc.NewImage(w, h)
	for i := range prev.Pix {
		prev.Pix[i] = -1
	}
	prev.Set(1, 0, 3)
	prev.Set(2, 0, 9)
	fl := flow.NewField(w, h)
	fl.U.Set(1, 0, 1) // pixel 1 moves onto pixel 2
	fr := flow.NewField(w, h)
	out := propagate(prev, fl, fr)
	if out.At(2, 0) != 9 {
		t.Fatalf("collision winner = %v, want 9 (nearest surface)", out.At(2, 0))
	}
}

func TestFillHolesDensifies(t *testing.T) {
	d := imgproc.NewImage(8, 8)
	for i := range d.Pix {
		d.Pix[i] = -1
	}
	d.Set(3, 3, 10)
	fillHoles(d)
	for _, v := range d.Pix {
		if v < 0 {
			t.Fatal("holes remain after fillHoles")
		}
	}
	if d.At(3, 3) != 10 {
		t.Fatal("fillHoles overwrote valid data")
	}
	if d.At(4, 3) != 10 {
		t.Fatalf("neighbour fill = %v, want 10", d.At(4, 3))
	}
}

func TestOracleMatcherHitsTargetErrorRate(t *testing.T) {
	seq := dataset.Generate(seqCfg(9))
	gt := seq.Frames[0].GT
	m := &OracleMatcher{ModelName: "TestNet", ErrRatePct: 4.0, SubpixelSigma: 0.3, Seed: 3}
	m.SetGT(gt)
	disp := m.Match(seq.Frames[0].Left, seq.Frames[0].Right)
	e := stereo.ThreePixelError(disp, gt)
	if math.Abs(e-4.0) > 1.5 {
		t.Fatalf("oracle error rate = %v%%, want ~4%%", e)
	}
}

func TestOracleMatcherPanicsWithoutGT(t *testing.T) {
	m := &OracleMatcher{ErrRatePct: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Match(imgproc.NewImage(8, 8), imgproc.NewImage(8, 8))
}

func TestOracleMatcherNameAndMACs(t *testing.T) {
	m := &OracleMatcher{ModelName: "DispNet", MACsPerPixel: 100}
	if m.Name() != "DispNet-oracle" {
		t.Fatalf("Name = %q", m.Name())
	}
	if m.MACs(10, 10) != 10000 {
		t.Fatalf("MACs = %d, want 10000", m.MACs(10, 10))
	}
}

func TestNonKeyFrameIsOrdersCheaperThanDNN(t *testing.T) {
	p := New(nil, DefaultConfig())
	nonKey := p.NonKeyMACs(960, 540) // qHD, as in paper Sec. 3.3
	if nonKey <= 0 {
		t.Fatal("non-positive non-key cost")
	}
	// The paper quotes ~87 MOps for a qHD non-key frame; our configuration
	// should land within a small factor of that.
	if nonKey < 30e6 || nonKey > 400e6 {
		t.Fatalf("non-key MACs = %d, want O(100M)", nonKey)
	}
	// And 10^2–10^4 x cheaper than stereo DNN inference (paper: 10^2–10^4).
	dnn := &OracleMatcher{MACsPerPixel: 2e5} // FlowNetC-class cost per pixel
	ratio := float64(dnn.MACs(960, 540)) / float64(nonKey)
	if ratio < 100 {
		t.Fatalf("DNN/non-key cost ratio = %v, want >= 100", ratio)
	}
}

// End-to-end: ISM with a DNN-grade oracle on key frames must deliver
// near-oracle accuracy on the non-key frames it never runs the oracle on
// (the Fig. 9 claim).
func TestISMEndToEndAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PW = 2
	oracleErr := 2.0
	var nonKeyErr []float64
	for s := int64(0); s < 3; s++ {
		seq := dataset.Generate(seqCfg(100 + s))
		m := &OracleMatcher{ErrRatePct: oracleErr, SubpixelSigma: 0.3, Seed: s}
		p := New(nil, cfg)
		for _, fr := range seq.Frames {
			var res Result
			if p.NextIsKey() {
				m.SetGT(fr.GT)
				res = p.ProcessKey(fr.Left, fr.Right, m.Match(fr.Left, fr.Right), 0)
			} else {
				res = p.ProcessNonKey(fr.Left, fr.Right)
				nonKeyErr = append(nonKeyErr, stereo.ThreePixelError(res.Disparity, fr.GT))
			}
		}
	}
	var mean float64
	for _, e := range nonKeyErr {
		mean += e
	}
	mean /= float64(len(nonKeyErr))
	if mean > oracleErr+6 {
		t.Fatalf("ISM non-key mean error %v%% too far above oracle %v%%", mean, oracleErr)
	}
}

func TestSGMMatcherAdapters(t *testing.T) {
	m := SGMMatcher{Opt: stereo.DefaultSGMOptions()}
	if m.Name() != "SGM-8path" {
		t.Fatalf("Name = %q", m.Name())
	}
	if m.MACs(100, 100) != stereo.SGMMACs(100, 100, m.Opt) {
		t.Fatal("SGMMatcher.MACs disagrees with stereo.SGMMACs")
	}
	b := BMMatcher{Opt: stereo.DefaultBMOptions()}
	if b.Name() != "BM-full" || b.MACs(10, 10) <= 0 {
		t.Fatal("BMMatcher adapter broken")
	}
}

func TestPostprocessOptionHelpsOnFastMotion(t *testing.T) {
	scene := dataset.SceneConfig{
		W: 112, H: 72, FrameCount: 5, Layers: 3,
		MinDisp: 2, MaxDisp: 16, MaxVel: 3.0, MaxDispVel: 0.4,
		Noise: 0.01, Seed: 55,
	}
	run := func(post bool) float64 {
		cfg := DefaultConfig()
		cfg.Postprocess = post
		seq := dataset.Generate(scene)
		m := &OracleMatcher{ErrRatePct: 2, SubpixelSigma: 0.3, Seed: 9}
		p := New(nil, cfg)
		var errSum float64
		var n int
		for _, fr := range seq.Frames {
			var res Result
			if p.NextIsKey() {
				m.SetGT(fr.GT)
				res = p.ProcessKey(fr.Left, fr.Right, m.Match(fr.Left, fr.Right), 0)
			} else {
				res = p.ProcessNonKey(fr.Left, fr.Right)
				errSum += stereo.ThreePixelError(res.Disparity, fr.GT)
				n++
			}
		}
		return errSum / float64(n)
	}
	raw := run(false)
	post := run(true)
	if post > raw+0.3 {
		t.Fatalf("median postprocess hurt non-key accuracy: %.2f%% -> %.2f%%", raw, post)
	}
}

func TestPostprocessChargesScalarOps(t *testing.T) {
	plain := New(nil, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Postprocess = true
	post := New(nil, cfg)
	_, sPlain := plain.NonKeyBreakdown(100, 100)
	_, sPost := post.NonKeyBreakdown(100, 100)
	if sPost <= sPlain {
		t.Fatal("postprocessing must be charged in the cost model")
	}
}

// Pipelines are documented single-goroutine, but independent pipelines on
// independent streams must not interfere (the pixel kernels share the
// par worker machinery).
func TestIndependentPipelinesAreDeterministic(t *testing.T) {
	run := func() *imgproc.Image {
		seq := dataset.Generate(seqCfg(77))
		p := New(nil, DefaultConfig())
		p.ProcessKey(seq.Frames[0].Left, seq.Frames[0].Right, seq.Frames[0].GT, 0)
		return p.ProcessNonKey(seq.Frames[1].Left, seq.Frames[1].Right).Disparity
	}
	serial := run()
	const n = 4
	results := make([]*imgproc.Image, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i] = run()
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, r := range results {
		if imgproc.MaxAbsDiff(serial, r) != 0 {
			t.Fatalf("pipeline %d diverged from the serial run", i)
		}
	}
}

// A property ISM implies but the paper never measures: propagated
// estimates are temporally smoother than independent per-frame matching,
// because their errors stay correlated across frames.
func TestISMReducesTemporalFlicker(t *testing.T) {
	cfg := dataset.SceneConfig{W: 128, H: 80, FrameCount: 6, Layers: 2,
		MinDisp: 2, MaxDisp: 16, MaxVel: 1.0, MaxDispVel: 0.2, Noise: 0.01, Seed: 61}
	seq := dataset.Generate(cfg)
	sgmOpt := stereo.DefaultSGMOptions()
	sgmOpt.MaxDisp = 20

	mean := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v
		}
		return s / float64(len(x))
	}

	var indep []float64
	prevEst := stereo.SGM(seq.Frames[0].Left, seq.Frames[0].Right, sgmOpt)
	for t1 := 1; t1 < len(seq.Frames); t1++ {
		est := stereo.SGM(seq.Frames[t1].Left, seq.Frames[t1].Right, sgmOpt)
		indep = append(indep, stereo.TemporalFlicker(prevEst, est, seq.Frames[t1-1].GT, seq.Frames[t1].GT))
		prevEst = est
	}

	pcfg := DefaultConfig()
	pcfg.PW = 4
	pipe := New(SGMMatcher{Opt: sgmOpt}, pcfg)
	var ism []float64
	last := pipe.Process(seq.Frames[0].Left, seq.Frames[0].Right).Disparity
	for t1 := 1; t1 < len(seq.Frames); t1++ {
		est := pipe.Process(seq.Frames[t1].Left, seq.Frames[t1].Right).Disparity
		ism = append(ism, stereo.TemporalFlicker(last, est, seq.Frames[t1-1].GT, seq.Frames[t1].GT))
		last = est
	}

	if mean(ism) >= mean(indep) {
		t.Fatalf("ISM flicker %.4f should be below independent matching's %.4f",
			mean(ism), mean(indep))
	}
}

func TestOracleMatcherReproducible(t *testing.T) {
	seq := dataset.Generate(seqCfg(15))
	gt := seq.Frames[0].GT
	mk := func() *imgproc.Image {
		m := &OracleMatcher{ErrRatePct: 3, SubpixelSigma: 0.3, Seed: 4}
		m.SetGT(gt)
		return m.Match(seq.Frames[0].Left, seq.Frames[0].Right)
	}
	if imgproc.MaxAbsDiff(mk(), mk()) != 0 {
		t.Fatal("fresh oracles with the same seed must agree")
	}
}

func TestOracleMatcherConsecutiveCallsDiffer(t *testing.T) {
	seq := dataset.Generate(seqCfg(16))
	gt := seq.Frames[0].GT
	m := &OracleMatcher{ErrRatePct: 5, SubpixelSigma: 0.3, Seed: 4}
	m.SetGT(gt)
	a := m.Match(seq.Frames[0].Left, seq.Frames[0].Right)
	m.SetGT(gt)
	b := m.Match(seq.Frames[0].Left, seq.Frames[0].Right)
	if imgproc.MaxAbsDiff(a, b) == 0 {
		t.Fatal("consecutive frames should draw fresh noise")
	}
}

// TestPoolTrafficPerFrame pins the imgproc pool traffic of one frame: a
// pooled buffer that is never returned, or returned twice, on any function
// on the frame path — including one that crosses a function boundary —
// moves these counts. Both are pure functions of the frame geometry and the
// options, not of the worker count or the host, so the comparison is exact.
// A kernel PR that changes how many temporaries a frame takes (ROADMAP
// item 1) re-pins the numbers in the same commit. Puts exceed gets because
// the pyramid and Upsample2 build their result with NewImage and the flow
// path hands those back to the pool.
//
// 353 / 369 until polyExpand shared its row passes and the pyramid stopped
// blurring at full size: this clip's half-resolution flow runs L = 2 levels,
// each of the frame's two Farneback calls makes 2L polyExpand calls that
// take 3 temporaries fewer (three row passes, not six) and builds 2(L−1)
// pyramid levels that take 1 fewer (no full-size blurred image), so both
// counts fall by 2·(3·2L + 2(L−1)) = 28.
func TestPoolTrafficPerFrame(t *testing.T) {
	const nonKeyGets, nonKeyPuts = 325, 341
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 16
	seq := dataset.Generate(seqCfg(21))
	for _, workers := range []string{"1", "3"} {
		t.Setenv("ASV_WORKERS", workers)
		p := New(SGMMatcher{Opt: opt}, DefaultConfig())
		for i, fr := range seq.Frames {
			g0, _, p0 := imgproc.PoolStats()
			res := p.Process(fr.Left, fr.Right)
			g1, _, p1 := imgproc.PoolStats()
			wantGets, wantPuts := int64(nonKeyGets), int64(nonKeyPuts)
			if res.IsKey {
				wantGets, wantPuts = 0, 0
			}
			if g1-g0 != wantGets || p1-p0 != wantPuts {
				t.Errorf("ASV_WORKERS=%s frame %d (key=%v): %d gets / %d puts, want %d / %d",
					workers, i, res.IsKey, g1-g0, p1-p0, wantGets, wantPuts)
			}
		}
	}
}

// TestNonKeyDegenerateGeometry walks a key frame and two non-key frames
// through streams a pixel wide, tall, or both, where halving the frame for
// the flow would leave an axis empty: every frame must come back at the
// stream's geometry with finite disparities, whatever the numeric type and
// with or without the post-filter.
func TestNonKeyDegenerateGeometry(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 2}, {3, 3}} {
		w, h := g[0], g[1]
		frames := make([][2]*imgproc.Image, 3)
		for i := range frames {
			for e := range frames[i] {
				im := imgproc.NewImage(w, h)
				for p := range im.Pix {
					im.Pix[p] = float32((7*p+3*i+e)%11) / 11
				}
				frames[i][e] = im
			}
		}
		for _, fixed := range []bool{false, true} {
			for _, post := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.BM.Fixed = fixed
				cfg.Postprocess = post
				p := New(SGMMatcher{Opt: stereo.SGMOptions{MaxDisp: 4, CensusR: 1, P1: 1, P2: 8, Paths: 4}}, cfg)
				for i, fr := range frames {
					res := p.Process(fr[0], fr[1])
					if res.IsKey != (i == 0) {
						t.Fatalf("%dx%d fixed=%v post=%v frame %d: IsKey = %v", w, h, fixed, post, i, res.IsKey)
					}
					if res.Disparity.W != w || res.Disparity.H != h {
						t.Fatalf("%dx%d fixed=%v post=%v frame %d: disparity is %dx%d", w, h, fixed, post, i, res.Disparity.W, res.Disparity.H)
					}
					for _, d := range res.Disparity.Pix {
						if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
							t.Fatalf("%dx%d fixed=%v post=%v frame %d: disparity %v", w, h, fixed, post, i, d)
						}
					}
				}
			}
		}
	}
}
