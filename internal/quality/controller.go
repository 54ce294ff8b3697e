package quality

import "sync"

// Controller is the serving layer's rung picker: a per-rung EWMA latency
// predictor plus the deadline test. The server feeds it every completed
// frame's compute time (Observe) and asks, per best-effort frame, for the
// most accurate rung whose predicted latency still meets the session's
// deadline under the current queue depth (Pick).
//
// The predictor is deliberately simple and fully deterministic: predicted
// latency of rung r at queue depth q with w workers is
//
//	ewma[r] * (1 + q/w)
//
// — the frame's own compute time plus the queue of frames ahead of it, all
// assumed to run at the same rung. Unobserved rungs predict 0 (optimistic),
// so the controller probes downward one rung at a time rather than jumping
// to the bottom on the first overload. Determinism is what makes the
// trace-replay tests in controller_test.go exact rather than statistical.
type Controller struct {
	mu    sync.Mutex
	alpha float64
	ewma  []float64 // per-rung EWMA of observed frame compute, ms
	seen  []bool
}

// NewController returns a controller for a ladder of rungs entries.
func NewController(rungs int) *Controller {
	if rungs < 1 {
		panic("quality: controller needs at least one rung")
	}
	return &Controller{alpha: 0.3, ewma: make([]float64, rungs), seen: make([]bool, rungs)}
}

// Observe feeds one completed frame's compute time into rung's predictor.
// Out-of-range rungs and negative samples are ignored.
func (c *Controller) Observe(rung int, ms float64) {
	if rung < 0 || rung >= len(c.ewma) || ms < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.seen[rung] {
		c.ewma[rung], c.seen[rung] = ms, true
		return
	}
	c.ewma[rung] = c.alpha*ms + (1-c.alpha)*c.ewma[rung]
}

// Predict returns rung's predicted latency (ms) at the given queue depth:
// 0 for a rung that has never been observed.
func (c *Controller) Predict(rung, queued, workers int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.predictLocked(rung, queued, workers)
}

func (c *Controller) predictLocked(rung, queued, workers int) float64 {
	if rung < 0 || rung >= len(c.ewma) || !c.seen[rung] {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	if queued < 0 {
		queued = 0
	}
	return c.ewma[rung] * (1 + float64(queued)/float64(workers))
}

// Pick returns the most accurate rung whose predicted latency meets
// deadlineMs at the current queue depth, and whether the frame should be
// admitted at all. When even the bottom rung's prediction misses the
// deadline the ladder is exhausted: Pick returns the bottom rung with
// admit=false, and the caller sheds the frame with 429. A non-positive
// deadline means "no deadline": the top rung, always admitted.
//
// For a fixed predictor state the chosen rung is monotone in queued — more
// queue pressure can only move the choice down-ladder — which is the
// property the replay tests pin.
func (c *Controller) Pick(queued, workers int, deadlineMs float64) (rung int, admit bool) {
	if deadlineMs <= 0 {
		return 0, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for r := 0; r < len(c.ewma); r++ {
		if c.predictLocked(r, queued, workers) <= deadlineMs {
			return r, true
		}
	}
	return len(c.ewma) - 1, false
}
