package pipeline

import (
	"time"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/metrics"
)

// ProcessFrame runs one stereo pair through p, exploiting the same
// intra-frame parallelism as the streaming runtime: on non-key frames the
// left- and right-stream motion fields are estimated concurrently (they are
// independent by construction) by p.EstimateMotion, which reuses the
// previous frame's flow expansion, then committed with ProcessNonKeyWith.
// Key frames run matcher (which must not be nil when the schedule selects
// one).
// Stage latencies are recorded under the runtime's standard names —
// "keymatch", "flow", "propagate+refine" and "frame" — when m is non-nil.
//
// The result is bit-identical to p.Process(left, right): the same kernels
// run on the same inputs, only on more goroutines. Unlike Stream, it works
// for motion-adaptive schedules too, because the key decision is made
// frame-by-frame via NextIsKey. Like every core.Pipeline entry point it
// must be called from one goroutine at a time per pipeline; the serving
// layer serializes calls per session.
func ProcessFrame(p *core.Pipeline, matcher core.KeyMatcher, left, right *imgproc.Image, m *metrics.Registry) core.Result {
	return ProcessFrameAs(p, matcher, left, right, p.NextIsKey(), m)
}

// ProcessFrameAs is ProcessFrame with the key decision made by the caller
// instead of the pipeline's own schedule. The quality ladder uses it to run
// stretched propagation windows (key every basePW*stretch frames, decided
// off core's since-key counter) through exactly the same kernels and stage
// metrics as the standard path. Passing p.NextIsKey() makes it identical to
// ProcessFrame. isKey is ignored — forced true — while the pipeline has no
// committed disparity to propagate from (first frame, or after a Reset).
func ProcessFrameAs(p *core.Pipeline, matcher core.KeyMatcher, left, right *imgproc.Image, isKey bool, m *metrics.Registry) core.Result {
	if l, _ := p.PrevFrames(); l == nil {
		isKey = true
	}
	t0 := time.Now()
	var res core.Result
	if isKey {
		if matcher == nil {
			panic("pipeline: key frame reached with nil KeyMatcher")
		}
		disp := matcher.Match(left, right)
		observe(m, "keymatch", time.Since(t0))
		res = p.ProcessKey(left, right, disp, matcher.MACs(left.W, left.H))
	} else {
		fl, fr := p.EstimateMotion(left, right)
		observe(m, "flow", time.Since(t0))
		t1 := time.Now()
		res = p.ProcessNonKeyWith(left, right, fl, fr)
		observe(m, "propagate+refine", time.Since(t1))
	}
	observe(m, "frame", time.Since(t0))
	return res
}
