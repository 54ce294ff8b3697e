package core

import (
	"fmt"

	"asv/internal/imgproc"
)

// State is the complete temporal state of a Pipeline: everything beyond the
// immutable Config that the next Process call depends on. Exporting it is
// what makes an ISM session migratable — the serving layer serializes a
// State, ships it to another process, and SetState resumes the stream there
// with bit-identical results (the kernels are deterministic functions of
// the previous frame pair, the previous disparity and the frame counters).
type State struct {
	// FrameIdx is the number of frames processed since the last Reset.
	FrameIdx int
	// SinceKey counts frames since the last key frame (1 = the key frame
	// itself was the previous frame; 0 before any); the key schedule
	// (Pipeline.KeyDue), static or adaptive, keys off it.
	SinceKey int
	// NeedKey is the adaptive controller's pending re-key trigger.
	NeedKey bool
	// PrevLeft, PrevRight and PrevDisp are the previous frame pair and its
	// committed disparity map — nil before the first key frame, all non-nil
	// afterwards.
	PrevLeft, PrevRight, PrevDisp *imgproc.Image
}

// State returns the pipeline's temporal state. The images are the
// pipeline's own references, not copies: the caller must either finish
// reading them before the next Process call or Clone them. Like every
// Pipeline method it must not race with Process.
func (p *Pipeline) State() State {
	return State{
		FrameIdx:  p.frameIdx,
		SinceKey:  p.sinceKey,
		NeedKey:   p.needKey,
		PrevLeft:  p.prevLeft,
		PrevRight: p.prevRight,
		PrevDisp:  p.prevDisp,
	}
}

// SetState replaces the pipeline's temporal state, taking ownership of the
// images in st. It validates the state's internal consistency and returns
// an error (leaving the pipeline untouched) rather than installing a state
// the kernels would panic on.
func (p *Pipeline) SetState(st State) error {
	if st.FrameIdx < 0 || st.SinceKey < 0 {
		return fmt.Errorf("core: negative frame counters (frame %d, since-key %d)", st.FrameIdx, st.SinceKey)
	}
	n := 0
	for _, im := range []*imgproc.Image{st.PrevLeft, st.PrevRight, st.PrevDisp} {
		if im != nil {
			n++
		}
	}
	switch n {
	case 0:
		if st.FrameIdx != 0 {
			return fmt.Errorf("core: %d frames processed but no previous frame state", st.FrameIdx)
		}
		if st.SinceKey != 0 {
			return fmt.Errorf("core: since-key %d but no previous frame state", st.SinceKey)
		}
	case 3:
		if st.FrameIdx < 1 {
			return fmt.Errorf("core: previous frame state present but frame index is %d", st.FrameIdx)
		}
		w, h := st.PrevLeft.W, st.PrevLeft.H
		for _, im := range []*imgproc.Image{st.PrevRight, st.PrevDisp} {
			if im.W != w || im.H != h {
				return fmt.Errorf("core: state image sizes disagree (%dx%d vs %dx%d)", w, h, im.W, im.H)
			}
		}
		if st.SinceKey < 1 || st.SinceKey > st.FrameIdx {
			return fmt.Errorf("core: since-key %d outside [1, frame index %d]", st.SinceKey, st.FrameIdx)
		}
	default:
		return fmt.Errorf("core: partial previous-frame state (%d of 3 images)", n)
	}
	p.frameIdx = st.FrameIdx
	p.sinceKey = st.SinceKey
	p.needKey = st.NeedKey
	p.prevLeft, p.prevRight, p.prevDisp = st.PrevLeft, st.PrevRight, st.PrevDisp
	// The carried flow expansions are not part of the state: a restored
	// stream rebuilds them cold, with the same bits.
	p.dropCarry()
	return nil
}
