// Package pipeline runs ISM over core.Pipeline one frame at a time
// (ProcessFrame) or over a whole stream (StreamFrames, a loop of
// ProcessFrame), recording each frame's stage latencies. A non-key frame's
// flow comes from core.Pipeline.EstimateMotion, which reuses the previous
// frame's flow expansion; the parallelism is inside each stage's kernels,
// not across frames. The same kernels run on the same inputs as
// core.Pipeline.Process, so the output is bit-identical to it (the golden
// and differential tests). See DESIGN.md ("Stage-boundary determinism").
package pipeline

import (
	"time"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/metrics"
)

// Frame is one stereo pair of the input stream. The pipeline keeps the last
// processed pair as the next frame's reference: the caller must not mutate
// them.
type Frame struct {
	Left, Right *imgproc.Image
}

// Options configures StreamFrames.
type Options struct {
	// Metrics, when non-nil, receives per-stage frame counters and latency
	// histograms under the stage names "flow", "keymatch",
	// "propagate+refine" and "frame".
	Metrics *metrics.Registry
}

// StreamFrames runs frames through one core.Pipeline with ProcessFrame and
// returns one result per frame, bit-identical to feeding them one by one to
// core.Pipeline.Process. matcher must not be nil.
func StreamFrames(matcher core.KeyMatcher, cfg core.Config, frames []Frame, opt Options) []core.Result {
	if matcher == nil {
		panic("pipeline: nil KeyMatcher")
	}
	p := core.New(matcher, cfg) // validates cfg
	out := make([]core.Result, len(frames))
	for i, f := range frames {
		out[i] = ProcessFrame(p, matcher, f.Left, f.Right, opt.Metrics)
	}
	return out
}

// ProcessFrame runs one stereo pair through p at p's configured window,
// bit-identical to p.Process: ProcessFrameAs at stretch 1 with the
// configured refine kernel.
func ProcessFrame(p *core.Pipeline, matcher core.KeyMatcher, left, right *imgproc.Image, m *metrics.Registry) core.Result {
	return ProcessFrameAs(p, matcher, left, right, 1, false, m)
}

// ProcessFrameAs is the one frame executor: it runs one stereo pair through
// p as the key frame or non-key frame p's schedule decides
// (p.KeyDue(stretch), static or motion-adaptive) — key matching with matcher
// (which must not be nil on a key frame), or both eyes' motion fields from
// p.EstimateMotion followed by propagation and refinement with the
// fixed-point refine kernel when fixedRefine is set (see
// core.Pipeline.ProcessNonKeyAs). The quality ladder runs its rungs through
// it with their stretch and kernel. Stage latencies are recorded under
// "keymatch", "flow", "propagate+refine" and "frame" when m is non-nil.
// Like every core.Pipeline entry point it must be called from one goroutine
// at a time per pipeline; the serving layer serializes calls per session.
func ProcessFrameAs(p *core.Pipeline, matcher core.KeyMatcher, left, right *imgproc.Image, stretch int, fixedRefine bool, m *metrics.Registry) core.Result {
	t0 := time.Now()
	var res core.Result
	if p.KeyDue(stretch) {
		if matcher == nil {
			panic("pipeline: key frame reached with nil KeyMatcher")
		}
		disp := matcher.Match(left, right)
		observe(m, "keymatch", time.Since(t0))
		res = p.ProcessKey(left, right, disp, matcher.MACs(left.W, left.H))
	} else {
		fl, fr := p.EstimateMotion(left, right)
		t1 := time.Now()
		observe(m, "flow", t1.Sub(t0))
		res = p.ProcessNonKeyAs(left, right, fl, fr, fixedRefine)
		observe(m, "propagate+refine", time.Since(t1))
	}
	observe(m, "frame", time.Since(t0))
	return res
}

func observe(r *metrics.Registry, stage string, d time.Duration) {
	if r != nil {
		r.Stage(stage).Observe(d)
	}
}
