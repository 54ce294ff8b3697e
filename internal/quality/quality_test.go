package quality

import (
	"testing"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/pipeline"
	"asv/internal/stereo"
)

func TestDefaultLadderValid(t *testing.T) {
	l := DefaultLadder()
	if err := l.Validate(); err != nil {
		t.Fatalf("default ladder invalid: %v", err)
	}
	if l[0].Name != "full" {
		t.Fatalf("top rung %q, want full", l[0].Name)
	}
	for i := 1; i < len(l); i++ {
		op := l[i].OP
		if op.Matcher == "" && op.PWStretch == 1 && op.PyrLevel == 0 {
			t.Fatalf("rung %q applies no degradation but is not the top rung", l[i].Name)
		}
	}
}

func TestLadderValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		l    Ladder
	}{
		{"empty", Ladder{}},
		{"degraded top", Ladder{{Name: "x", OP: OperatingPoint{Matcher: "bm", PWStretch: 1}}}},
		{"stretched top", Ladder{{Name: "x", OP: OperatingPoint{PWStretch: 2}}}},
		{"unnamed", Ladder{{OP: OperatingPoint{PWStretch: 1}}}},
		{"duplicate", Ladder{
			{Name: "a", OP: OperatingPoint{PWStretch: 1}},
			{Name: "a", OP: OperatingPoint{Matcher: "bm", PWStretch: 2}},
		}},
		{"zero stretch", Ladder{
			{Name: "a", OP: OperatingPoint{PWStretch: 1}},
			{Name: "b", OP: OperatingPoint{Matcher: "bm"}},
		}},
		{"bad matcher", Ladder{
			{Name: "a", OP: OperatingPoint{PWStretch: 1}},
			{Name: "b", OP: OperatingPoint{Matcher: "dnn", PWStretch: 1}},
		}},
		{"deep pyramid", Ladder{
			{Name: "a", OP: OperatingPoint{PWStretch: 1}},
			{Name: "b", OP: OperatingPoint{Matcher: "bm", PWStretch: 1, PyrLevel: 5}},
		}},
	}
	for _, tc := range cases {
		if err := tc.l.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid ladder", tc.name)
		}
	}
}

func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
	}{{"", Gold}, {"gold", Gold}, {"besteffort", BestEffort}, {"best-effort", BestEffort}, {"BestEffort", BestEffort}} {
		got, err := ParseClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseClass("platinum"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
}

func TestBuildMatcher(t *testing.T) {
	top := core.SGMMatcher{Opt: stereo.DefaultSGMOptions()}
	inherit := Rung{Name: "full", OP: OperatingPoint{PWStretch: 1}}
	if got := inherit.BuildMatcher(top); got != core.KeyMatcher(top) {
		t.Fatalf("inheriting rung built %v instead of the top matcher", got.Name())
	}
	bm := Rung{Name: "cheap", OP: OperatingPoint{Matcher: "bm", PWStretch: 2, PyrLevel: 2}}
	m, ok := bm.BuildMatcher(top).(core.BMMatcher)
	if !ok {
		t.Fatal("bm rung did not build a BMMatcher")
	}
	base := stereo.DefaultBMOptions().MaxDisp
	if want := scaledMaxDisp(base, 2); m.Opt.MaxDisp != want {
		t.Errorf("level-2 MaxDisp %d, want %d", m.Opt.MaxDisp, want)
	}
}

func TestUpsampleDisparity(t *testing.T) {
	d := imgproc.NewImage(2, 2)
	d.Set(0, 0, 3)
	d.Set(1, 0, -1)
	d.Set(0, 1, 0)
	d.Set(1, 1, 7)
	up := UpsampleDisparity(d, 4, 4, 1)
	if up.W != 4 || up.H != 4 {
		t.Fatalf("upsampled to %dx%d, want 4x4", up.W, up.H)
	}
	if got := up.At(0, 0); got != 6 {
		t.Errorf("valid value scaled to %v, want 6 (2x)", got)
	}
	if got := up.At(2, 0); got != -1 {
		t.Errorf("invalid pixel upsampled to %v, want -1", got)
	}
	if got := up.At(3, 3); got != 14 {
		t.Errorf("corner %v, want 14", got)
	}
	if same := UpsampleDisparity(d, 2, 2, 0); same != d {
		t.Error("level 0 should return the input unchanged")
	}
}

// The top rung must be bit-identical to the undegraded serving path: Step at
// rung 0 and pipeline.ProcessFrame must produce the same disparities frame
// by frame, including the key schedule — the static one, and the
// motion-adaptive one whose keys fall off the PW grid.
func TestTopRungBitIdentical(t *testing.T) {
	seq := dataset.Generate(dataset.SceneFlowLike(64, 48, 8, 5)[0])
	matcher := core.BMMatcher{Opt: stereo.DefaultBMOptions()}
	def := core.DefaultAdaptiveConfig()
	low := def
	low.MotionThresholdPx = 0.05 // re-keys every other frame on this clip
	for _, tc := range []struct {
		name     string
		adaptive *core.AdaptiveConfig
	}{
		{"static", nil},
		{"adaptive default", &def},
		{"adaptive 0.05 px", &low},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.PW = 3
			cfg.Adaptive = tc.adaptive
			ref := core.New(matcher, cfg)
			got := core.New(matcher, cfg)
			top := DefaultLadder()[0]
			for i, fr := range seq.Frames {
				rr := pipeline.ProcessFrame(ref, matcher, fr.Left, fr.Right, nil)
				gr := Step(got, top, cfg.PW, matcher, fr.Left, fr.Right, nil)
				if rr.IsKey != gr.IsKey {
					t.Fatalf("frame %d: key schedule diverged (ref %v, ladder %v)", i, rr.IsKey, gr.IsKey)
				}
				if rr.MACs != gr.MACs {
					t.Fatalf("frame %d: MACs diverged (%d vs %d)", i, rr.MACs, gr.MACs)
				}
				for p := range rr.Disparity.Pix {
					if rr.Disparity.Pix[p] != gr.Disparity.Pix[p] {
						t.Fatalf("frame %d: disparity diverged at pixel %d", i, p)
					}
				}
			}
		})
	}
}

// A stretched rung must run key frames exactly every window*stretch frames,
// where the window is PW, or MaxWindow under the motion-adaptive schedule
// (its threshold set out of reach, so only the bound re-keys).
func TestStretchedKeySchedule(t *testing.T) {
	seq := dataset.Generate(dataset.SceneFlowLike(48, 32, 9, 3)[0])
	matcher := core.BMMatcher{Opt: stereo.DefaultBMOptions()}
	for _, tc := range []struct {
		name     string
		adaptive *core.AdaptiveConfig
		window   int
	}{
		{"static PW 2", nil, 4},
		{"adaptive MaxWindow 3", &core.AdaptiveConfig{MaxWindow: 3, MotionThresholdPx: 1e9}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.PW = 2
			cfg.Adaptive = tc.adaptive
			pipe := core.New(nil, cfg)
			r := Rung{Name: "s2", OP: OperatingPoint{Matcher: "bm", PWStretch: 2}}
			for i, fr := range seq.Frames {
				res := Step(pipe, r, cfg.PW, matcher, fr.Left, fr.Right, nil)
				if want := i%tc.window == 0; res.IsKey != want {
					t.Fatalf("frame %d: IsKey=%v, want %v (stretch 2)", i, res.IsKey, want)
				}
			}
		})
	}
}

// Step's base window is the pipeline's PW; any other is a caller bug.
func TestStepRejectsForeignBaseWindow(t *testing.T) {
	cfg := core.DefaultConfig()
	pipe := core.New(nil, cfg)
	fr := dataset.Generate(dataset.SceneFlowLike(32, 24, 1, 3)[0]).Frames[0]
	defer func() {
		if recover() == nil {
			t.Fatal("Step with a base window other than the pipeline's PW did not panic")
		}
	}()
	top := core.BMMatcher{Opt: stereo.DefaultBMOptions()}
	Step(pipe, DefaultLadder()[0], cfg.PW+1, top, fr.Left, fr.Right, nil)
}

// A pyramid rung must return full-geometry disparities whose values are in
// the full-resolution range, and recover with a key frame after a Reset
// (the level-transition protocol).
func TestPyramidRungGeometry(t *testing.T) {
	seq := dataset.Generate(dataset.SceneFlowLike(64, 48, 4, 7)[0])
	top := core.BMMatcher{Opt: stereo.DefaultBMOptions()}
	cfg := core.DefaultConfig()
	cfg.PW = 4
	pipe := core.New(nil, cfg)
	r := Rung{Name: "q", OP: OperatingPoint{Matcher: "bm", PWStretch: 1, PyrLevel: 1}}
	matcher := r.BuildMatcher(top)
	for i, fr := range seq.Frames {
		res := Step(pipe, r, cfg.PW, matcher, fr.Left, fr.Right, nil)
		if res.Disparity.W != 64 || res.Disparity.H != 48 {
			t.Fatalf("frame %d: disparity %dx%d, want full 64x48", i, res.Disparity.W, res.Disparity.H)
		}
	}
	// Level transition: the caller resets, the next Step must key-frame.
	pipe.Reset()
	res := Step(pipe, DefaultLadder()[0], cfg.PW, top, seq.Frames[0].Left, seq.Frames[0].Right, nil)
	if !res.IsKey {
		t.Error("first frame after Reset was not a key frame")
	}
	if res.Disparity.W != 64 {
		t.Errorf("post-reset disparity width %d, want 64", res.Disparity.W)
	}
}
