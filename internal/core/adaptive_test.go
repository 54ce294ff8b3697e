package core

import (
	"testing"

	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

func adaptiveCfg(maxWin int, thresh float64) Config {
	cfg := DefaultConfig()
	cfg.Adaptive = &AdaptiveConfig{MaxWindow: maxWin, MotionThresholdPx: thresh}
	return cfg
}

// driveAdaptive streams a sequence with an oracle key matcher and returns
// the key-frame indicator per frame.
func driveAdaptive(t *testing.T, cfg Config, scene dataset.SceneConfig) []bool {
	t.Helper()
	seq := dataset.Generate(scene)
	m := &OracleMatcher{ErrRatePct: 1, SubpixelSigma: 0.2, Seed: 1}
	p := New(nil, cfg)
	keys := make([]bool, 0, len(seq.Frames))
	for _, fr := range seq.Frames {
		if p.NextIsKey() {
			m.SetGT(fr.GT)
			p.ProcessKey(fr.Left, fr.Right, m.Match(fr.Left, fr.Right), 0)
			keys = append(keys, true)
		} else {
			p.processNonKey(fr.Left, fr.Right)
			keys = append(keys, false)
		}
	}
	return keys
}

func TestAdaptiveStaticSceneStretchesWindow(t *testing.T) {
	// A nearly static scene should never trip the motion trigger: key
	// frames appear only at the MaxWindow bound.
	scene := dataset.SceneConfig{
		W: 96, H: 64, FrameCount: 9, Layers: 2,
		MinDisp: 2, MaxDisp: 12, MaxVel: 0.05, Seed: 4,
	}
	keys := driveAdaptive(t, adaptiveCfg(4, 1.0), scene)
	want := []bool{true, false, false, false, true, false, false, false, true}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("frame %d: key=%v, want %v (keys %v)", i, keys[i], want[i], keys)
		}
	}
}

func TestAdaptiveFastMotionTriggersRekey(t *testing.T) {
	// Large motion should re-key well before MaxWindow.
	scene := dataset.SceneConfig{
		W: 96, H: 64, FrameCount: 6, Layers: 2,
		MinDisp: 2, MaxDisp: 12, MaxVel: 4.0, Seed: 6,
	}
	keys := driveAdaptive(t, adaptiveCfg(8, 0.4), scene)
	var keyCount int
	for _, k := range keys {
		if k {
			keyCount++
		}
	}
	// With an 8-frame bound a static scene would key once; fast motion must
	// key at least twice in 6 frames.
	if keyCount < 2 {
		t.Fatalf("fast motion keyed only %d times: %v", keyCount, keys)
	}
}

func TestAdaptiveRespectsMaxWindow(t *testing.T) {
	scene := dataset.SceneConfig{
		W: 96, H: 64, FrameCount: 8, Layers: 1,
		MinDisp: 2, MaxDisp: 10, MaxVel: 0.0, Seed: 8,
	}
	keys := driveAdaptive(t, adaptiveCfg(3, 5.0), scene)
	run := 0
	for _, k := range keys {
		if k {
			run = 0
			continue
		}
		run++
		if run >= 3 {
			t.Fatalf("window exceeded MaxWindow=3: %v", keys)
		}
	}
}

func TestAdaptiveMotionReportedOnNonKeyFrames(t *testing.T) {
	scene := dataset.SceneConfig{
		W: 96, H: 64, FrameCount: 3, Layers: 2,
		MinDisp: 2, MaxDisp: 12, MaxVel: 1.5, Seed: 10,
	}
	seq := dataset.Generate(scene)
	p := New(nil, adaptiveCfg(8, 99))
	m := &OracleMatcher{ErrRatePct: 1, Seed: 2}
	m.SetGT(seq.Frames[0].GT)
	key := p.ProcessKey(seq.Frames[0].Left, seq.Frames[0].Right, m.Match(seq.Frames[0].Left, seq.Frames[0].Right), 0)
	if key.MeanMotionPx != 0 {
		t.Fatal("key frames should report zero motion")
	}
	nk := p.processNonKey(seq.Frames[1].Left, seq.Frames[1].Right)
	if nk.MeanMotionPx <= 0 {
		t.Fatalf("non-key frame should measure motion, got %v", nk.MeanMotionPx)
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	bad := []AdaptiveConfig{
		{MaxWindow: 0, MotionThresholdPx: 1},
		{MaxWindow: 2, MotionThresholdPx: 0},
	}
	for i, a := range bad {
		cfg := DefaultConfig()
		cfg.Adaptive = &a
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

func TestAdaptiveResetRestoresKeyState(t *testing.T) {
	p := New(nil, adaptiveCfg(4, 1))
	p.ProcessKey(imgproc.NewImage(32, 32), imgproc.NewImage(32, 32), imgproc.NewImage(32, 32), 0)
	if p.NextIsKey() {
		t.Fatal("frame after key should be non-key under adaptive control")
	}
	p.Reset()
	if !p.NextIsKey() {
		t.Fatal("Reset must force a key frame")
	}
}

// Adaptive control should beat the static window of the same average key
// rate on a sequence that alternates calm and fast segments: it spends its
// key frames where motion is.
func TestAdaptiveBeatsStaticOnBurstyMotion(t *testing.T) {
	// Build a bursty sequence by concatenating a calm scene and a fast one
	// (same generator, different velocity), keeping GT aligned per frame.
	calm := dataset.Generate(dataset.SceneConfig{
		W: 112, H: 72, FrameCount: 4, Layers: 2,
		MinDisp: 2, MaxDisp: 14, MaxVel: 0.1, Seed: 21,
	})
	fast := dataset.Generate(dataset.SceneConfig{
		W: 112, H: 72, FrameCount: 4, Layers: 2,
		MinDisp: 2, MaxDisp: 14, MaxVel: 3.5, Seed: 22,
	})
	frames := append(append([]dataset.FramePair{}, calm.Frames...), fast.Frames...)

	run := func(cfg Config) (meanErr float64, keyCount int) {
		p := New(nil, cfg)
		m := &OracleMatcher{ErrRatePct: 1, SubpixelSigma: 0.2, Seed: 3}
		var errSum float64
		for _, fr := range frames {
			var res Result
			if p.NextIsKey() {
				m.SetGT(fr.GT)
				res = p.ProcessKey(fr.Left, fr.Right, m.Match(fr.Left, fr.Right), 0)
				keyCount++
			} else {
				res = p.processNonKey(fr.Left, fr.Right)
			}
			errSum += stereo.ThreePixelError(res.Disparity, fr.GT)
		}
		return errSum / float64(len(frames)), keyCount
	}

	// Compare at equal key-frame budget: a static window can only place its
	// keys periodically, while the controller concentrates them where the
	// motion is. (Static PW-4 happens to re-key exactly at the splice in
	// this sequence — periodic luck, not policy — so the equal-budget
	// comparisons are PW-6 vs MaxWindow-6 and PW-3 vs a tighter threshold.)
	static6 := DefaultConfig()
	static6.PW = 6
	statErr6, statKeys6 := run(static6)
	adaptErr6, adaptKeys6 := run(adaptiveCfg(6, 1.2))
	if adaptKeys6 != statKeys6 {
		t.Fatalf("budget mismatch: adaptive %d keys vs static PW-6 %d", adaptKeys6, statKeys6)
	}
	if adaptErr6 >= statErr6 {
		t.Fatalf("equal-budget adaptive (%.2f%%) should beat static PW-6 (%.2f%%)", adaptErr6, statErr6)
	}

	static3 := DefaultConfig()
	static3.PW = 3
	statErr3, statKeys3 := run(static3)
	adaptErr3, adaptKeys3 := run(adaptiveCfg(6, 0.8))
	if adaptKeys3 != statKeys3 {
		t.Fatalf("budget mismatch: adaptive %d keys vs static PW-3 %d", adaptKeys3, statKeys3)
	}
	if adaptErr3 >= statErr3 {
		t.Fatalf("equal-budget adaptive (%.2f%%) should beat static PW-3 (%.2f%%)", adaptErr3, statErr3)
	}
}
