package quality

import "testing"

// traceStep is one tick of a synthetic load trace: the queue depth the
// controller sees and the per-rung compute cost (ms) the simulated server
// pays. The replay is fully deterministic — no clocks, no goroutines — so
// these tests pin the controller's exact rung sequence.
type traceStep struct {
	queued int
}

// replay drives a Controller through a load trace against a synthetic
// server whose rung costs are fixed. Every tick picks a rung under the
// deadline, then observes that rung's true cost, exactly like the
// serving layer does. It returns the picked rung and admit flag per tick.
func replay(t *testing.T, ctl *Controller, costs []float64, trace []traceStep, workers int, deadlineMs float64) (rungs []int, admits []bool) {
	t.Helper()
	for _, st := range trace {
		r, admit := ctl.Pick(st.queued, workers, deadlineMs)
		if r < 0 || r >= len(costs) {
			t.Fatalf("Pick returned rung %d outside ladder [0,%d)", r, len(costs))
		}
		rungs = append(rungs, r)
		admits = append(admits, admit)
		if admit {
			ctl.Observe(r, costs[r])
		}
	}
	return rungs, admits
}

func ramp(from, to, ticks int) []traceStep {
	tr := make([]traceStep, ticks)
	for i := range tr {
		tr[i] = traceStep{queued: from + (to-from)*i/(ticks-1)}
	}
	return tr
}

func flat(queued, ticks int) []traceStep {
	tr := make([]traceStep, ticks)
	for i := range tr {
		tr[i] = traceStep{queued: queued}
	}
	return tr
}

// Ramp trace: queue depth grows 0→16 over 40 ticks. The controller must
// degrade monotonically — the rung sequence never steps back up while load
// only rises — and must never refuse admission before reaching the bottom
// rung.
func TestControllerRampMonotone(t *testing.T) {
	costs := []float64{40, 18, 9, 4, 2} // ms per frame at each rung
	ctl := NewController(len(costs))
	// Warm every rung so prediction reflects true costs, as a priced
	// ladder's serving history would.
	for r, c := range costs {
		ctl.Observe(r, c)
	}
	rungs, admits := replay(t, ctl, costs, ramp(0, 16, 40), 1, 50)
	for i := 1; i < len(rungs); i++ {
		if rungs[i] < rungs[i-1] {
			t.Fatalf("tick %d: rung rose %d->%d while load only increased", i, rungs[i-1], rungs[i])
		}
	}
	if rungs[0] != 0 {
		t.Errorf("idle tick picked rung %d, want 0", rungs[0])
	}
	last := len(rungs) - 1
	if rungs[last] == 0 {
		t.Error("controller never degraded under a 16-deep queue")
	}
	for i, ok := range admits {
		if !ok && rungs[i] != len(costs)-1 {
			t.Fatalf("tick %d: refused admission at rung %d before the bottom rung was exhausted", i, rungs[i])
		}
	}
}

// Spike trace: idle, a burst to queue depth 20, idle again. The controller
// must degrade during the burst and return to the top rung once the queue
// drains — degradation is not sticky.
func TestControllerSpikeRecovers(t *testing.T) {
	costs := []float64{40, 18, 9, 4, 2}
	ctl := NewController(len(costs))
	for r, c := range costs {
		ctl.Observe(r, c)
	}
	trace := append(append(flat(0, 10), flat(20, 10)...), flat(0, 10)...)
	rungs, admits := replay(t, ctl, costs, trace, 1, 50)
	for i := 0; i < 10; i++ {
		if rungs[i] != 0 {
			t.Fatalf("idle tick %d picked rung %d, want 0", i, rungs[i])
		}
	}
	spiked := false
	for i := 10; i < 20; i++ {
		if rungs[i] > 0 {
			spiked = true
		}
	}
	if !spiked {
		t.Error("controller never degraded during the spike")
	}
	for i := 20; i < 30; i++ {
		if rungs[i] != 0 {
			t.Fatalf("post-spike tick %d stuck at rung %d, want 0", i, rungs[i])
		}
	}
	for i, ok := range admits {
		if !ok {
			t.Fatalf("tick %d: spike caused a refusal even though the bottom rung fits", i)
		}
	}
}

// Sustained overload: queue depth so deep that even the bottom rung misses
// the deadline. Only then may the controller refuse admission, and the rung
// it reports while refusing is the bottom one (so the server's 429 counter
// provably implies "bottom rung exhausted").
func TestControllerOverloadRefusesOnlyAtBottom(t *testing.T) {
	costs := []float64{40, 18, 9, 4, 2}
	ctl := NewController(len(costs))
	for r, c := range costs {
		ctl.Observe(r, c)
	}
	// Bottom rung predicts 2*(1+q). Deadline 50 → refusals start at q > 24.
	rungs, admits := replay(t, ctl, costs, ramp(0, 200, 60), 1, 50)
	sawRefusal := false
	for i, ok := range admits {
		if !ok {
			sawRefusal = true
			if rungs[i] != len(costs)-1 {
				t.Fatalf("tick %d: refused at rung %d, not the bottom rung", i, rungs[i])
			}
		}
	}
	if !sawRefusal {
		t.Error("200-deep queue never triggered a refusal")
	}
	if !admits[0] {
		t.Error("idle tick was refused")
	}
}

// A cold controller has no latency samples; it must optimistically admit at
// the top rung and converge onto the correct rung as observations arrive.
func TestControllerColdStartProbes(t *testing.T) {
	costs := []float64{40, 18, 9, 4, 2}
	ctl := NewController(len(costs))
	r, admit := ctl.Pick(10, 1, 50)
	if r != 0 || !admit {
		t.Fatalf("cold Pick = (%d,%v), want optimistic (0,true)", r, admit)
	}
	rungs, admits := replay(t, ctl, costs, flat(10, 20), 1, 50)
	for i, ok := range admits {
		if !ok {
			t.Fatalf("tick %d: cold-start trace refused admission", i)
		}
	}
	// Steady state: rung 2 costs 9ms, predicts 9*11=99 > 50, rung 3 costs
	// 4ms, predicts 44 <= 50.
	if got := rungs[len(rungs)-1]; got != 3 {
		t.Errorf("converged on rung %d, want 3 under q=10 deadline=50", got)
	}
}

func TestControllerEdgeCases(t *testing.T) {
	ctl := NewController(3)
	// No deadline: always the top rung, always admitted.
	if r, admit := ctl.Pick(100, 1, 0); r != 0 || !admit {
		t.Errorf("deadline 0: got (%d,%v), want (0,true)", r, admit)
	}
	// Out-of-range and negative observations are ignored, not panics.
	ctl.Observe(-1, 5)
	ctl.Observe(3, 5)
	ctl.Observe(0, -5)
	if got := ctl.Predict(0, 0, 1); got != 0 {
		t.Errorf("rejected observations leaked into prediction: %v", got)
	}
	ctl.Observe(0, 10)
	if got := ctl.Predict(0, 3, 1); got != 40 {
		t.Errorf("Predict(0,q=3,w=1) = %v, want 10*(1+3)=40", got)
	}
	if got := ctl.Predict(0, 3, 0); got != 40 {
		t.Errorf("workers<1 should clamp to 1: got %v, want 40", got)
	}
	// EWMA moves toward new samples.
	ctl.Observe(0, 20)
	if got := ctl.Predict(0, 0, 1); got <= 10 || got >= 20 {
		t.Errorf("EWMA after 10,20 = %v, want strictly between", got)
	}
}

func TestNewControllerPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewController(0) did not panic")
		}
	}()
	NewController(0)
}
