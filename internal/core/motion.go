package core

import (
	"fmt"

	"asv/internal/flow"
	"asv/internal/imgproc"
)

// MotionEstimator abstracts step 3's motion source so the algorithmic
// choice of Sec. 3.3 — dense Farneback flow versus block matching versus
// no motion at all — can be ablated. The pipeline uses FarnebackME by
// default.
type MotionEstimator interface {
	// Estimate returns the dense per-pixel motion from prev to next. The
	// returned field must be freshly allocated: the pipeline takes ownership
	// and recycles its buffers once the frame is committed.
	Estimate(prev, next *imgproc.Image) flow.Field
	// MACs is the arithmetic cost of one Estimate call on a w×h frame.
	MACs(w, h int) int64
	// Name identifies the estimator in reports.
	Name() string
}

// FarnebackME is the paper's choice: dense polynomial-expansion flow,
// optionally computed at reduced resolution.
type FarnebackME struct {
	Opt   flow.Options
	Scale int // compute at 1/Scale resolution (>= 1)
}

// Estimate implements MotionEstimator.
func (m FarnebackME) Estimate(prev, next *imgproc.Image) flow.Field {
	ep := m.expand(prev)
	en := m.expand(next)
	f := m.estimateExpanded(ep, en, prev.W, prev.H)
	ep.Put()
	en.Put()
	return f
}

// expand returns the Farneback expansion of im at 1/Scale resolution.
func (m FarnebackME) expand(im *imgproc.Image) *flow.Expansion {
	s := m.Scale
	if s <= 1 {
		return flow.Expand(im, m.Opt)
	}
	// A frame narrower or shorter than Scale still has one row or column.
	small := imgproc.Upsample2(im, max(im.W/s, 1), max(im.H/s, 1))
	e := flow.Expand(small, m.Opt)
	imgproc.PutImage(small)
	return e
}

// estimateExpanded is the flow between two frames' expansions, brought to
// their full w×h resolution.
func (m FarnebackME) estimateExpanded(prev, next *flow.Expansion, w, h int) flow.Field {
	f := flow.FarnebackExpanded(prev, next, m.Opt)
	s := m.Scale
	if s <= 1 {
		return f
	}
	u := imgproc.Upsample2(f.U, w, h)
	v := imgproc.Upsample2(f.V, w, h)
	flow.PutField(f)
	scale := float32(s)
	for i := range u.Pix {
		u.Pix[i] *= scale
		v.Pix[i] *= scale
	}
	return flow.Field{U: u, V: v}
}

// MACs implements MotionEstimator.
func (m FarnebackME) MACs(w, h int) int64 {
	s := m.Scale
	if s < 1 {
		s = 1
	}
	return flow.FarnebackMACs(max(w/s, 1), max(h/s, 1), m.Opt)
}

// Name implements MotionEstimator.
func (m FarnebackME) Name() string {
	return fmt.Sprintf("farneback/%d", max(m.Scale, 1))
}

// BlockME estimates motion by exhaustive block matching — per-block rather
// than per-pixel, the granularity limitation that makes the paper reject it
// for ISM (Sec. 3.3).
type BlockME struct {
	Block   int
	SearchR int
}

// Estimate implements MotionEstimator.
func (m BlockME) Estimate(prev, next *imgproc.Image) flow.Field {
	return flow.BlockMatch(prev, next, m.Block, m.SearchR)
}

// MACs implements MotionEstimator.
func (m BlockME) MACs(w, h int) int64 {
	return flow.BlockMatchMACs(w, h, m.Block, m.SearchR)
}

// Name implements MotionEstimator.
func (m BlockME) Name() string { return fmt.Sprintf("block-%d", m.Block) }

// ZeroME assumes no motion: propagation degenerates to reusing the previous
// disparity map as the initializer (the "do nothing" lower bound).
type ZeroME struct{}

// Estimate implements MotionEstimator.
func (ZeroME) Estimate(prev, next *imgproc.Image) flow.Field {
	return flow.NewField(prev.W, prev.H)
}

// MACs implements MotionEstimator.
func (ZeroME) MACs(w, h int) int64 { return 0 }

// Name implements MotionEstimator.
func (ZeroME) Name() string { return "zero" }

// HornSchunckME is the classic variational dense-flow estimator — dense
// like Farneback but pyramid-less, so it breaks down beyond ~1 px of
// motion; the ablation quantifies that limitation.
type HornSchunckME struct {
	Opt flow.HSOptions
}

// Estimate implements MotionEstimator.
func (m HornSchunckME) Estimate(prev, next *imgproc.Image) flow.Field {
	return flow.HornSchunck(prev, next, m.Opt)
}

// MACs implements MotionEstimator.
func (m HornSchunckME) MACs(w, h int) int64 { return flow.HornSchunckMACs(w, h, m.Opt) }

// Name implements MotionEstimator.
func (HornSchunckME) Name() string { return "horn-schunck" }
