package main

import (
	"fmt"
	"runtime"
	"time"
)

// defaultSeconds is the length of the measured part of a run, and
// BENCHMARK.json's run_seconds.
const defaultSeconds = 16

// options are the knobs of one run of one workload.
type options struct {
	seed    int64
	seconds float64 // length of the measured part
	trace   bool
	outDir  string
	smoke   bool // ~1 s per workload, one set-up: exercises the harness, measures nothing
}

// warmup is untimed: pools fill, the ladder controller settles, and on the
// serve workloads every oracle-checked frame is behind us.
func (o options) warmup() time.Duration {
	if o.smoke {
		return 300 * time.Millisecond
	}
	return 1500 * time.Millisecond
}

// Set-up is repeated on an untraced run, and setup_s is the median: at least
// setupRepeats times and until setupBudget is spent, so that a set-up of a
// tenth of a second is timed often enough to be steady, but at most
// setupMost times.
const (
	setupRepeats = 3
	setupMost    = 15
	setupBudget  = 2 * time.Second
)

func (o options) repeatSetup() bool { return !o.smoke && !o.trace }

func (o options) part(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// runResult is one run of one workload: what the last output line is cut
// from, and what is written to <out>/run_<workload>_trace<0|1>.json.
type runResult struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Env       envInfo            `json:"env"`
	Spec      spec               `json:"spec"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Segments  map[string]float64 `json:"segments_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Samples   int                `json:"latency_samples"`
	HostCalMs float64            `json:"host_calib_ms"` // median probe of the measured part; see hostcal.go
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

func newResult(sp spec, o options) *runResult {
	r := &runResult{
		Workload: sp.Name, Trace: o.trace, Env: readEnv(), Spec: sp,
		Seed: o.seed, Seconds: o.seconds,
		Segments: map[string]float64{"warmup": o.warmup().Seconds()},
		Metrics:  make(map[string]float64),
	}
	for _, d := range r.defs() {
		r.Metrics[d.Name] = 0
	}
	return r
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish settles the verdict: a run is correct when nothing it attempted
// failed, refusals and oracle mismatches included.
func (r *runResult) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(sp spec, o options) (*runResult, error) {
	h := newHostCal(sp.CalExp)
	run := runOffline
	if sp.Serve {
		run = runServe
	}
	r, err := run(sp, o, h)
	if err != nil {
		return nil, err
	}
	if o.trace {
		r.Metrics["host.calib_ms"] = r.HostCalMs
	}
	return r, nil
}

// timedSetup sets up once or, with repeat, several times, tearing down all
// but the last, and returns the last set-up with the median wall time at the
// host's reference speed. Each set-up starts from a collected heap, so that
// what the discarded ones leave behind neither slows the next nor counts
// towards the peak resident set, and has a burst of probes on either side.
// A set-up renders, encodes and runs the oracle — compute on every workload,
// serve_floor's too — so it is scaled with calExp whatever the workload's own
// exponent is.
func timedSetup[T any](h *hostCal, repeat bool, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var times []float64
	var spent time.Duration
	for {
		runtime.GC()
		before := h.burst()
		t0 := time.Now()
		b, err := setup()
		if err != nil {
			return b, 0, err
		}
		took := time.Since(t0)
		spent += took
		times = append(times, took.Seconds()/slowdown(before, h.burst(), calExp))
		if n := len(times); !repeat || n >= setupMost || n >= setupRepeats && spent >= setupBudget {
			h.take()
			return b, median(times), nil
		}
		if err := teardown(b); err != nil {
			return b, 0, err
		}
	}
}

// probe times fn up to n times or until budget is spent, whichever comes
// first, and returns the median in ms. Probes run after the load, off the
// request path.
func probe(n int, budget time.Duration, fn func()) float64 {
	var ms []float64
	start := time.Now()
	for i := 0; i < n && (i == 0 || time.Since(start) < budget); i++ {
		t0 := time.Now()
		fn()
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}
