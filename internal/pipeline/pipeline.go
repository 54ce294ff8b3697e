// Package pipeline runs ISM over core.Pipeline one frame at a time
// (ProcessFrame) or over a whole stream (StreamFrames). Each frame splits
// at ISM's one loop-carried dependence (paper Sec. 3): its first half —
// key matching of frame t, or flow from frame t-1 to t — reads no
// disparity, and its commit — propagation + refinement from the previous
// frame's disparity, or a key frame's hand-over — runs in stream order.
// ProcessFrame runs the first half inline and then commits; StreamFrames
// runs later frames' first halves on worker goroutines while the caller
// commits in order through the same commit, so frame t+1's flow overlaps
// frame t's refinement. The same kernels run on the same inputs either
// way, so the output is bit-identical to core.Pipeline.Process (the golden
// and differential tests). See DESIGN.md ("Stage-boundary determinism").
package pipeline

import (
	"sync"
	"sync/atomic"

	"asv/internal/core"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/metrics"
	"asv/internal/par"
)

// Frame is one stereo pair of the input stream. StreamFrames reads the
// images on worker goroutines, and the pipeline keeps the last committed
// pair as the next frame's reference: the caller must not mutate them.
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

// StreamFrames runs frames through ISM and returns one result per frame,
// bit-identical to feeding them one by one to core.Pipeline.Process.
// matcher must not be nil, and it and the configured motion estimator must
// tolerate concurrent calls (all built-in implementations do).
//
// par.Workers() goroutines take frame indices in order and run each first
// half (key frames by the static PW schedule) at most 2×par.Workers()
// frames ahead of the commit; the caller's goroutine commits in order, and
// every goroutine has exited when StreamFrames returns. A motion-adaptive
// schedule (cfg.Adaptive != nil) keys off the previous frame's result, so
// nothing can run ahead: its frames go through ProcessFrame one by one.
func StreamFrames(matcher core.KeyMatcher, cfg core.Config, frames []Frame, opt Options) []core.Result {
	if matcher == nil {
		panic("pipeline: nil KeyMatcher")
	}
	p := core.New(matcher, cfg) // validates cfg
	out := make([]core.Result, len(frames))
	if cfg.Adaptive != nil {
		for i, f := range frames {
			out[i] = ProcessFrame(p, matcher, f.Left, f.Right, opt.Metrics)
		}
		return out
	}

	halves := make([]chan half, len(frames))
	for i := range halves {
		halves[i] = make(chan half, 1)
	}
	// A worker takes a permit before each frame index and the caller hands
	// one back per commit, so at most cap(permits) frames run ahead.
	workers := par.Workers()
	permits := make(chan struct{}, 2*workers)
	for range cap(permits) {
		permits <- struct{}{}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	me := cfg.MotionSource()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range permits {
				i := int(next.Add(1)) - 1
				if i >= len(frames) {
					return
				}
				f := frames[i]
				halves[i] <- firstHalf(matcher, f.Left, f.Right, i%cfg.PW == 0, func() (fl, fr flow.Field) {
					return estimatePair(me, frames[i-1], f)
				}, opt.Metrics)
			}
		}()
	}
	defer func() { // also on a panic: the workers spend what is left and stop
		close(permits)
		wg.Wait()
	}()
	for i, f := range frames {
		out[i] = commit(p, f.Left, f.Right, <-halves[i], opt.Metrics)
		permits <- struct{}{}
	}
	return out
}

// estimatePair is me's motion fields from prev to f, the two eyes on two
// goroutines. Unlike core.Pipeline.EstimateMotion it carries no expansion
// from frame to frame: the workers take frames in turn, so the frame a
// worker ran last is in general not this frame's predecessor.
func estimatePair(me core.MotionEstimator, prev, f Frame) (fl, fr flow.Field) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr = me.Estimate(prev.Right, f.Right)
	}()
	fl = me.Estimate(prev.Left, f.Left)
	wg.Wait()
	return fl, fr
}
