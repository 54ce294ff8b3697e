package core

import (
	"strings"
	"testing"

	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

func stateTestMatcher() KeyMatcher {
	opt := stereo.DefaultBMOptions()
	opt.MaxDisp = 12
	return BMMatcher{Opt: opt}
}

// TestStateRoundTripBitIdentical proves the migration contract at the core
// layer: interrupting a stream at any phase of the propagation window,
// moving the State into a fresh Pipeline and continuing must produce the
// exact disparities of the uninterrupted stream.
func TestStateRoundTripBitIdentical(t *testing.T) {
	const pw, frames = 3, 8
	seq := dataset.Generate(dataset.SceneFlowLike(64, 48, frames, 42)[0])
	cfg := DefaultConfig()
	cfg.PW = pw

	for cut := 1; cut < frames; cut++ {
		oracle := New(stateTestMatcher(), cfg)
		subject := New(stateTestMatcher(), cfg)
		var want []Result
		for i := 0; i < frames; i++ {
			want = append(want, oracle.Process(seq.Frames[i].Left, seq.Frames[i].Right))
			if i < cut {
				subject.Process(seq.Frames[i].Left, seq.Frames[i].Right)
			}
		}

		resumed := New(stateTestMatcher(), cfg)
		if err := resumed.SetState(subject.State()); err != nil {
			t.Fatalf("cut %d: SetState: %v", cut, err)
		}
		if resumed.FrameIndex() != cut {
			t.Fatalf("cut %d: resumed frame index %d", cut, resumed.FrameIndex())
		}
		for i := cut; i < frames; i++ {
			got := resumed.Process(seq.Frames[i].Left, seq.Frames[i].Right)
			if got.IsKey != want[i].IsKey || got.MACs != want[i].MACs {
				t.Fatalf("cut %d frame %d: (key %v, macs %d) vs oracle (key %v, macs %d)",
					cut, i, got.IsKey, got.MACs, want[i].IsKey, want[i].MACs)
			}
			for p := range got.Disparity.Pix {
				if got.Disparity.Pix[p] != want[i].Disparity.Pix[p] {
					t.Fatalf("cut %d frame %d: disparity diverges at pixel %d", cut, i, p)
				}
			}
		}
	}
}

func TestSetStateRejectsInconsistency(t *testing.T) {
	im := imgproc.NewImage(8, 8)
	other := imgproc.NewImage(8, 9)
	cases := []struct {
		name string
		st   State
		frag string
	}{
		{"negative", State{FrameIdx: -1}, "negative"},
		{"frames without images", State{FrameIdx: 3}, "no previous frame"},
		{"images without frames", State{PrevLeft: im, PrevRight: im, PrevDisp: im}, "frame index is 0"},
		{"partial images", State{FrameIdx: 1, PrevLeft: im}, "partial"},
		{"size mismatch", State{FrameIdx: 1, PrevLeft: im, PrevRight: im, PrevDisp: other}, "disagree"},
		{"since-key without images", State{SinceKey: 1}, "no previous frame"},
		{"images with since-key 0", State{FrameIdx: 2, PrevLeft: im, PrevRight: im, PrevDisp: im}, "since-key 0"},
		{"since-key past frame index", State{FrameIdx: 2, SinceKey: 3, PrevLeft: im, PrevRight: im, PrevDisp: im}, "since-key 3"},
	}
	for _, tc := range cases {
		p := New(stateTestMatcher(), DefaultConfig())
		err := p.SetState(tc.st)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.frag)
		}
		if p.FrameIndex() != 0 {
			t.Errorf("%s: failed SetState mutated the pipeline", tc.name)
		}
	}
}
