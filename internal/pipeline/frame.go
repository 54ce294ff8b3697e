package pipeline

import (
	"time"

	"asv/internal/core"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/metrics"
)

// ProcessFrame runs one stereo pair through p: its first half inline — key
// matching with matcher (which must not be nil when the schedule selects a
// key frame), or both eyes' motion fields from p.EstimateMotion, which
// reuses the previous frame's flow expansion — then its commit. Stage
// latencies are recorded under "keymatch", "flow", "propagate+refine" and
// "frame" when m is non-nil.
//
// The result is bit-identical to p.Process(left, right): the same kernels
// run on the same inputs, only on more goroutines. It works for
// motion-adaptive schedules too, because the key decision is made
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
	h := firstHalf(matcher, left, right, isKey, func() (fl, fr flow.Field) {
		return p.EstimateMotion(left, right)
	}, m)
	return commit(p, left, right, h, m)
}

// half is a frame's first half: the work that reads no earlier frame's
// disparity, so it may run before that frame is committed.
type half struct {
	key    bool
	disp   *imgproc.Image // key frames: the matcher's disparity and cost
	macs   int64
	fl, fr flow.Field // non-key frames: the two eyes' motion fields
	took   time.Duration
}

// firstHalf runs matcher on a key frame, motion on a non-key frame, and
// observes it as "keymatch" or "flow".
func firstHalf(matcher core.KeyMatcher, left, right *imgproc.Image, isKey bool, motion func() (fl, fr flow.Field), m *metrics.Registry) half {
	t0 := time.Now()
	h, stage := half{key: isKey}, "flow"
	if isKey {
		if matcher == nil {
			panic("pipeline: key frame reached with nil KeyMatcher")
		}
		h.disp, h.macs, stage = matcher.Match(left, right), matcher.MACs(left.W, left.H), "keymatch"
	} else {
		h.fl, h.fr = motion()
	}
	h.took = time.Since(t0)
	observe(m, stage, h.took)
	return h
}

// commit retires the frame whose first half is h through p — a key frame's
// disparity becomes the one to propagate from, a non-key frame is
// propagated and refined — and observes "frame" as the first half plus the
// commit, whichever goroutine ran the first half.
func commit(p *core.Pipeline, left, right *imgproc.Image, h half, m *metrics.Registry) core.Result {
	t0 := time.Now()
	var res core.Result
	if h.key {
		res = p.ProcessKey(left, right, h.disp, h.macs)
	} else {
		res = p.ProcessNonKeyWith(left, right, h.fl, h.fr)
		observe(m, "propagate+refine", time.Since(t0))
	}
	observe(m, "frame", h.took+time.Since(t0))
	return res
}

func observe(r *metrics.Registry, stage string, d time.Duration) {
	if r != nil {
		r.Stage(stage).Observe(d)
	}
}
