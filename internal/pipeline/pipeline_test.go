package pipeline

import (
	"strconv"
	"testing"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/metrics"
	"asv/internal/stereo"
)

// testSequence generates a deterministic stereo video for the golden tests.
func testSequence(t testing.TB, frames int) []Frame {
	t.Helper()
	seq := dataset.Generate(dataset.SceneConfig{
		W: 96, H: 64, FrameCount: frames, Layers: 2,
		MinDisp: 2, MaxDisp: 14, MaxVel: 1.2, MaxDispVel: 0.2,
		Ground: true, Noise: 0.01, Seed: 321,
	})
	out := make([]Frame, len(seq.Frames))
	for i, fr := range seq.Frames {
		out[i] = Frame{Left: fr.Left, Right: fr.Right}
	}
	return out
}

func testMatcher() core.KeyMatcher {
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 20
	return core.SGMMatcher{Opt: opt}
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.PW = 3
	return cfg
}

// serialResults runs the reference serial path.
func serialResults(matcher core.KeyMatcher, cfg core.Config, frames []Frame) []core.Result {
	p := core.New(matcher, cfg)
	out := make([]core.Result, len(frames))
	for i, fr := range frames {
		out[i] = p.Process(fr.Left, fr.Right)
	}
	return out
}

// setWorkers sets the worker count the kernels read.
func setWorkers(t *testing.T, workers int) {
	t.Setenv("ASV_WORKERS", strconv.Itoa(workers))
}

// assertIdentical fails unless the streamed results match the serial results
// bit for bit.
func assertIdentical(t *testing.T, serial, streamed []core.Result) {
	t.Helper()
	if len(streamed) != len(serial) {
		t.Fatalf("got %d results, want %d", len(streamed), len(serial))
	}
	for i, got := range streamed {
		want := serial[i]
		if got.IsKey != want.IsKey {
			t.Fatalf("frame %d: IsKey=%v, serial %v", i, got.IsKey, want.IsKey)
		}
		if got.MACs != want.MACs {
			t.Fatalf("frame %d: MACs=%d, serial %d", i, got.MACs, want.MACs)
		}
		if got.MeanMotionPx != want.MeanMotionPx {
			t.Fatalf("frame %d: MeanMotionPx=%v, serial %v", i, got.MeanMotionPx, want.MeanMotionPx)
		}
		if got.Disparity.W != want.Disparity.W || got.Disparity.H != want.Disparity.H {
			t.Fatalf("frame %d: size mismatch", i)
		}
		for px := range got.Disparity.Pix {
			if got.Disparity.Pix[px] != want.Disparity.Pix[px] {
				t.Fatalf("frame %d: pixel %d differs: %v vs %v — pipelined output is not bit-identical",
					i, px, got.Disparity.Pix[px], want.Disparity.Pix[px])
			}
		}
	}
}

// TestGoldenStreamMatchesSerialBitExact is the pipeline's central guarantee:
// streaming must reproduce the serial ISM path bit for bit at every kernel
// worker count.
func TestGoldenStreamMatchesSerialBitExact(t *testing.T) {
	frames := testSequence(t, 10)
	serial := serialResults(testMatcher(), testConfig(), frames)
	for _, workers := range []int{1, 2, 4} {
		setWorkers(t, workers)
		assertIdentical(t, serial, StreamFrames(testMatcher(), testConfig(), frames, Options{}))
	}
}

func TestStreamEveryFrameKey(t *testing.T) {
	setWorkers(t, 4)
	frames := testSequence(t, 5)
	cfg := testConfig()
	cfg.PW = 1
	serial := serialResults(testMatcher(), cfg, frames)
	streamed := StreamFrames(testMatcher(), cfg, frames, Options{})
	assertIdentical(t, serial, streamed)
	for i, r := range streamed {
		if !r.IsKey {
			t.Fatalf("PW=1: frame %d not a key frame", i)
		}
	}
}

func TestStreamAdaptiveMatchesSerial(t *testing.T) {
	setWorkers(t, 4)
	frames := testSequence(t, 8)
	cfg := testConfig()
	a := core.DefaultAdaptiveConfig()
	cfg.Adaptive = &a
	serial := serialResults(testMatcher(), cfg, frames)
	streamed := StreamFrames(testMatcher(), cfg, frames, Options{})
	assertIdentical(t, serial, streamed)
}

func TestStreamEmptyInput(t *testing.T) {
	if got := StreamFrames(testMatcher(), testConfig(), nil, Options{}); len(got) != 0 {
		t.Fatalf("empty stream produced %d results", len(got))
	}
}

// TestStreamMetricsStages pins the stage counts, and that the "frame" stage
// spans the key match or flow as well as the refine on either entry point:
// its total must cover the key matches', the flows' and the refines'.
func TestStreamMetricsStages(t *testing.T) {
	setWorkers(t, 2)
	frames := testSequence(t, 9) // PW=3 -> keys at 0,3,6: 3 key, 6 non-key
	serial := func(reg *metrics.Registry) {
		p := core.New(testMatcher(), testConfig())
		for _, f := range frames {
			ProcessFrame(p, testMatcher(), f.Left, f.Right, reg)
		}
	}
	streaming := func(reg *metrics.Registry) {
		StreamFrames(testMatcher(), testConfig(), frames, Options{Metrics: reg})
	}
	for name, run := range map[string]func(*metrics.Registry){"serial": serial, "streaming": streaming} {
		reg := metrics.NewRegistry()
		run(reg)
		for stage, want := range map[string]int64{"frame": 9, "keymatch": 3, "flow": 6, "propagate+refine": 6} {
			if got := reg.Stage(stage).Count(); got != want {
				t.Fatalf("%s: %s count = %d, want %d", name, stage, got, want)
			}
		}
		frame := reg.Stage("frame").Total()
		parts := reg.Stage("keymatch").Total() + reg.Stage("flow").Total() + reg.Stage("propagate+refine").Total()
		if frame < parts {
			t.Fatalf("%s: frame total %v < keymatch + flow + propagate+refine totals %v", name, frame, parts)
		}
	}
}

// TestStreamFramesCarriesFlowExpansion pins that a stream runs the
// production frame: each non-key frame's flow reuses the expansion the
// previous non-key frame built of its own pair, so a stream takes exactly as
// many pooled buffers as a ProcessFrame loop over the same clip.
func TestStreamFramesCarriesFlowExpansion(t *testing.T) {
	setWorkers(t, 2)
	frames := testSequence(t, 9)
	gets := func(run func()) int64 {
		g0, _, _ := imgproc.PoolStats()
		run()
		g1, _, _ := imgproc.PoolStats()
		return g1 - g0
	}
	loop := gets(func() {
		p := core.New(testMatcher(), testConfig())
		for _, f := range frames {
			ProcessFrame(p, testMatcher(), f.Left, f.Right, nil)
		}
	})
	stream := gets(func() { StreamFrames(testMatcher(), testConfig(), frames, Options{}) })
	if stream != loop {
		t.Fatalf("StreamFrames took %d pooled buffers, a ProcessFrame loop %d", stream, loop)
	}
}

func TestStreamNilMatcherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StreamFrames accepted a nil matcher")
		}
	}()
	StreamFrames(nil, testConfig(), testSequence(t, 2), Options{})
}
