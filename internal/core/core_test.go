package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"asv/internal/dataset"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/stereo"
	"asv/internal/testkit"
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

// Validate refuses every polynomial sigma the flow's expansion cannot run
// with: not a positive number, or so small that the normal matrix is
// singular (0.1 and 0.15 at the default radius 2, and 1e-200, whose square
// underflows). The default and 0.2 pass, and the flow runs with them.
func TestValidatePolySigma(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	fr := dataset.Generate(seqCfg(5)).Frames
	for _, tc := range []struct {
		sigma float64
		ok    bool
	}{{1.1, true}, {0.2, true}, {0, false}, {-1, false}, {math.NaN(), false}, {0.1, false}, {0.15, false}, {1e-200, false}} {
		cfg := DefaultConfig()
		cfg.Flow.PolySigma = tc.sigma
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("PolySigma %g: Validate() = %v, want ok %v", tc.sigma, err, tc.ok)
		}
		if err == nil {
			flow.Farneback(fr[0].Left, fr[1].Left, cfg.Flow)
		}
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
	if !p.NextIsKey() || p.frameIdx != 0 {
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
	p.processNonKey(imgproc.NewImage(8, 8), imgproc.NewImage(8, 8))
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
				res = p.processNonKey(fr.Left, fr.Right)
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
				res = p.processNonKey(fr.Left, fr.Right)
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
		return p.processNonKey(seq.Frames[1].Left, seq.Frames[1].Right).Disparity
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
		if testkit.DiffImages(serial, r, 0) != nil {
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
	if testkit.DiffImages(mk(), mk(), 0) != nil {
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
	if testkit.DiffImages(a, b, 0) == nil {
		t.Fatal("consecutive frames should draw fresh noise")
	}
}

// TestPoolTrafficPerFrame pins the imgproc pool traffic of each frame of a
// PW-4 window and the key frame after it: a pooled buffer that is never
// returned, or returned twice, on any function on the frame path —
// including one that crosses a function boundary or a frame — moves these
// counts. They are pure functions of the frame geometry, the options and
// the frame's place in the window, not of the worker count or the host, so
// the comparison is exact. A kernel PR that changes how many temporaries a
// frame takes (ROADMAP item 1) re-pins the numbers in the same commit. Every
// buffer the flow path hands back, pyramid levels and Upsample2 results
// included, came from the pool, so a frame that keeps nothing gets and puts
// alike: the pool holds the frame's working set and no more. (When those two
// built their result with NewImage, each warm frame put 12 buffers more than
// it got, and the pool grew between collections.)
//
// A frame that expands both of its flow pairs from scratch takes 161 gets
// and gives 161 puts. This clip's half-resolution flow runs L = 2 levels,
// and one Farneback expansion takes 31 gets (the half-resolution frame, 2L
// polyExpand calls of 14, one pyramid level and its temporary) and gives 21
// puts (the half-resolution frame, 9 per polyExpand, the pyramid level and
// its temporary) while building, plus 10 (five coefficient planes per
// level) when dropped. Each of an eye's 3L iterations takes 2 gets (its
// output field) and gives 2 puts (its input field); its intermediate
// planes come off a free list, not the pool. Now each eye keeps the
// expansion of its new frame:
//   - the first non-key frame is cold: it builds both expansions, but keeps
//     the new one, so 161 gets and 161 − 2·10 = 141 puts;
//   - the next ones are warm: the previous frame's expansion is the kept
//     one, so each eye builds one fewer — 161 − 2·31 = 99 gets — and drops
//     the kept one instead, 141 − 2·21 = 99 puts;
//   - the key frame drops both kept expansions: 0 gets, 2·10 = 20 puts,
//     where the first key frame, with nothing kept, has none.
func TestPoolTrafficPerFrame(t *testing.T) {
	want := [][2]int64{{0, 0}, {161, 141}, {99, 99}, {99, 99}, {0, 20}}
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
			if g1-g0 != want[i][0] || p1-p0 != want[i][1] {
				t.Errorf("ASV_WORKERS=%s frame %d (key=%v): %d gets / %d puts, want %d / %d",
					workers, i, res.IsKey, g1-g0, p1-p0, want[i][0], want[i][1])
			}
		}
	}
}

// TestNonKeyDegenerateGeometry walks a key frame and two non-key frames
// through streams a pixel wide, tall, or both, where halving the frame for
// the flow would leave an axis empty: every frame must come back at the
// stream's geometry with finite disparities, with or without the
// post-filter.
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
		for _, post := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Postprocess = post
			p := New(SGMMatcher{Opt: stereo.SGMOptions{MaxDisp: 4, CensusR: 1, P1: 1, P2: 8, Paths: 4}}, cfg)
			for i, fr := range frames {
				res := p.Process(fr[0], fr[1])
				if res.IsKey != (i == 0) {
					t.Fatalf("%dx%d post=%v frame %d: IsKey = %v", w, h, post, i, res.IsKey)
				}
				if res.Disparity.W != w || res.Disparity.H != h {
					t.Fatalf("%dx%d post=%v frame %d: disparity is %dx%d", w, h, post, i, res.Disparity.W, res.Disparity.H)
				}
				for _, d := range res.Disparity.Pix {
					if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
						t.Fatalf("%dx%d post=%v frame %d: disparity %v", w, h, post, i, d)
					}
				}
			}
		}
	}
}

// TestNonKeyFrameAllocBudget bounds the heap bytes one non-key frame
// allocates — the garbage behind the offline workloads'
// runtime.alloc_kb_per_frame. The garbage collector is paused, so neither
// the image pool nor the refine's scratch is released mid-measurement, and
// each frame of a PW-4 window is measured over four passes of the window,
// keeping its least: a sync.Pool slot that misses (it is per-P) adds a
// buffer to one pass but not to all four. With the refine's scratch, its
// quantized planes and the flow iteration's planes off free lists, each eye
// keeping its flow expansion and each flow iteration making two fork-joins,
// the cold first frame takes 78,280 bytes and the warm ones 59,768
// (ASV_WORKERS=2); the budget is 1.1× the first. Quantizing into
// fresh planes per call instead adds 2·W·H bytes a frame and fails it. A
// change that allocates more per frame raises the budget in the same
// commit, with its reason.
func TestNonKeyFrameAllocBudget(t *testing.T) {
	const budget = 86_000
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	t.Setenv("ASV_WORKERS", "2")
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seq := dataset.Generate(seqCfg(21))
	p := New(nil, DefaultConfig())
	least := [4]uint64{0, math.MaxUint64, math.MaxUint64, math.MaxUint64}
	for pass := 0; pass < 4; pass++ {
		p.ProcessKey(seq.Frames[0].Left, seq.Frames[0].Right, seq.Frames[0].GT, 0)
		for f := 1; f <= 3; f++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p.processNonKey(seq.Frames[f].Left, seq.Frames[f].Right)
			runtime.ReadMemStats(&m1)
			least[f] = min(least[f], m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	for f := 1; f <= 3; f++ {
		t.Logf("non-key frame %d: %d bytes", f, least[f])
		if least[f] > budget {
			t.Errorf("non-key frame %d of the window allocated at least %d bytes, budget %d", f, least[f], budget)
		}
	}
}

// TestKeyFrameAllocBudget bounds the heap bytes one SGM key frame allocates
// once warm, at the offline_key operating point (160×96, MaxDisp 32). SGM
// takes its census planes, packed volumes and rolling rows off a free list,
// so a warm key frame allocates its output image and a few hundred bytes of
// goroutine bookkeeping; the budget is 1.25× the image's bytes. Before the
// free list, the same frame allocated about 2 MB. The garbage collector is
// paused, and the frames after the first are measured, every one of them:
// the free list, unlike a sync.Pool, does not miss.
func TestKeyFrameAllocBudget(t *testing.T) {
	const w, h = 160, 96
	const budget = w * h * 4 * 5 / 4
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	t.Setenv("ASV_WORKERS", "2")
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	scene := seqCfg(21)
	scene.W, scene.H, scene.FrameCount = w, h, 4
	seq := dataset.Generate(scene)
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 32
	p := New(SGMMatcher{Opt: opt}, DefaultConfig())
	for i, fr := range seq.Frames {
		p.Reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := p.Process(fr.Left, fr.Right)
		runtime.ReadMemStats(&m1)
		if !res.IsKey {
			t.Fatalf("frame %d after Reset is not a key frame", i)
		}
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("key frame %d: %d bytes", i, got)
		if i > 0 && got > budget {
			t.Errorf("warm key frame %d allocated %d bytes, budget %d", i, got, budget)
		}
	}
}

// The expansion each eye carries is a cache: a stream whose flow goes
// through EstimateMotion gives the bits of one whose flow is the stateless
// Estimate, whatever invalidates the cache between frames — a key frame, a
// restore through SetState, a frame committed with external flows.
func TestCarriedFlowMatchesStatelessEstimate(t *testing.T) {
	scene := seqCfg(33)
	scene.FrameCount = 9
	seq := dataset.Generate(scene)
	cfg := DefaultConfig()
	cfg.PW = 5
	carried, stateless := New(nil, cfg), New(nil, cfg)
	for i, fr := range seq.Frames {
		if i == 3 {
			if err := carried.SetState(carried.State()); err != nil {
				t.Fatal(err)
			}
		}
		if i%cfg.PW == 0 {
			carried.ProcessKey(fr.Left, fr.Right, fr.GT, 0)
			stateless.ProcessKey(fr.Left, fr.Right, fr.GT, 0)
			continue
		}
		me := stateless.Config().MotionSource()
		pl, pr := stateless.PrevFrames()
		want := stateless.ProcessNonKeyWith(fr.Left, fr.Right, me.Estimate(pl, fr.Left), me.Estimate(pr, fr.Right))
		var got Result
		if i == 7 {
			got = carried.ProcessNonKeyWith(fr.Left, fr.Right, me.Estimate(pl, fr.Left), me.Estimate(pr, fr.Right))
		} else {
			got = carried.processNonKey(fr.Left, fr.Right)
		}
		for p := range want.Disparity.Pix {
			if math.Float32bits(got.Disparity.Pix[p]) != math.Float32bits(want.Disparity.Pix[p]) {
				t.Fatalf("frame %d pixel %d: %v, want %v", i, p, got.Disparity.Pix[p], want.Disparity.Pix[p])
			}
		}
	}
}
