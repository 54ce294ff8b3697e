package main

import (
	"math"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The VMs this benchmark runs on share their cores with other tenants, and
// the speed each of the two vCPUs delivers moves — independently of the
// other, from one second to the next and between regimes that last many
// minutes — by up to a factor of two, with no steal time reported. The same
// binary on the same inputs has been seen to run its frames 1.4 to 2 times
// slower than a quarter of an hour before: more than any bound the
// benchmark could set, and nothing inside one run averages it out.
//
// So the benchmark measures the host along with the program. Every timed
// part of an untraced run is cut into slices of about half a second with a
// burst of probes between them, while the program is idle, and each time
// measured in a slice is put at the reference speed of the host: divided by
// (reading/refProbeMs)^exp, where the reading is the mean of the two bursts
// on either side of the slice and exp belongs to the workload (calExp, or
// calExpWaiting where much of a request is waiting).
//
// A probe is fixed work that belongs to the benchmark, not to the program
// under test, so no change to the program can move it: a small block
// matcher of its own (absolute differences into a cost volume, a box filter
// along the rows, the best disparity per pixel) over a fixed synthetic pair,
// cut into two halves that run at once and timed until both are done. That
// is how the program uses the machine too — every kernel of it splits its
// rows into one contiguous range per worker and waits for the slowest — so
// the probe is slowed by the slower vCPU as the program is, which a probe
// on one thread is not.

const (
	probeW, probeH, probeD = 192, 120, 16

	// calBurst probes are taken between two slices, and the fastest is the
	// burst's reading: what the program leaves running when a slice ends (the
	// collector, a server's connection handlers) and the cold caches can only
	// slow a probe, so the fastest of a few in a row is the one that saw the
	// host alone. sliceLen is how long a slice is meant to be.
	calBurst = 5
	sliceLen = 500 * time.Millisecond

	// refProbeMs is such a reading on the host the workloads were sized on
	// (2 vCPUs of a Xeon @ 2.1 GHz) at its fastest. It only fixes the scale:
	// on that host at that speed a normalised time is the measured one.
	refProbeMs = 0.9

	// calExp was fitted on 45 minutes of runs of all six workloads taking
	// turns, over which the readings moved between 0.9 and 1.7 ms: the
	// exponent that left the ten-run spreads narrowest lay between 0.75 and
	// 1.05 for the compute-bound workloads, metric by metric (frames of
	// different kinds slow differently), and 0.85 was the best single one.
	// serve_floor, where the batch window and wake-ups are half of a request
	// and do not stretch on a slow host, was steadiest between 0.5 and 0.65.
	calExp        = 0.85
	calExpWaiting = 0.6
)

type hostCal struct {
	left, right, vol, out []float32
	exp                   float64   // the workload's calExp
	readings              []float64 // one per burst since the last take
}

func newHostCal(exp float64) *hostCal {
	h := &hostCal{
		left:  make([]float32, probeW*probeH),
		right: make([]float32, probeW*probeH),
		vol:   make([]float32, probeW*probeH*probeD),
		out:   make([]float32, probeW*probeH),
		exp:   exp,
	}
	for i := range h.left {
		h.left[i] = float32((i*7)%31) / 31
		h.right[i] = float32((i*5)%29) / 29
	}
	return h
}

// match is the probe's work on rows [lo, hi).
func (h *hostCal) match(lo, hi int) {
	const w, nd = probeW, probeD
	for y := lo; y < hi; y++ {
		l, r := h.left[y*w:][:w], h.right[y*w:][:w]
		for d := 0; d < nd; d++ {
			v := h.vol[(y*nd+d)*w:][:w]
			for x := range v {
				c := l[x] - r[max(x-d, 0)]
				if c < 0 {
					c = -c
				}
				v[x] = c
			}
			// Box filter of width 5, in place: v[x-2] gets the sum that
			// started there once nothing to its right needs the raw value.
			acc := v[0] + v[1] + v[2] + v[3] + v[4]
			for x := 2; x < w-3; x++ {
				boxed := acc
				acc += v[x+3] - v[x-2]
				v[x-2] = boxed
			}
		}
		out := h.out[y*w:][:w]
		for x := range out {
			best, at := float32(math.MaxFloat32), 0
			for d := 0; d < nd; d++ {
				if c := h.vol[(y*nd+d)*w+x]; c < best {
					best, at = c, d
				}
			}
			out[x] = float32(at)
		}
	}
}

// probe runs the two halves at once and returns the time until both are
// done, in ms.
func (h *hostCal) probe() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.match(probeH/2, probeH)
	}()
	h.match(0, probeH/2)
	wg.Wait()
	return float64(time.Since(t0)) / 1e6
}

// burst takes calBurst probes and returns their reading, the fastest. The
// caller sees to it that the program is idle meanwhile.
func (h *hostCal) burst() float64 {
	reading := math.Inf(1)
	for i := 0; i < calBurst; i++ {
		reading = min(reading, h.probe())
	}
	h.readings = append(h.readings, reading)
	return reading
}

// slowdown is how much slower than at the reference speed work that follows
// the host's speed with exponent exp ran between two bursts with these
// readings. A time measured there is divided by it.
func slowdown(before, after, exp float64) float64 {
	return math.Pow((before+after)/2/refProbeMs, exp)
}

// sliced calls run once per slice of about sliceLen until dur is spent, with
// a burst before the first slice and after each. run is handed the length of
// its slice, returns when that much work is done and the program idle again,
// and hands back the times it measured, in ms; sliced puts them at the
// reference speed where they lie, by the bursts on either side of the slice.
// It returns the CPU time the slices used, bursts left out, in ms at the
// reference speed.
func (h *hostCal) sliced(dur time.Duration, run func(d time.Duration) [][]float64) (cpuMs float64) {
	n := max(int((dur+sliceLen/2)/sliceLen), 1)
	before := h.burst()
	for i := 0; i < n; i++ {
		u0 := readUsage()
		times := run(dur / time.Duration(n))
		cpu := float64(readUsage().cpu-u0.cpu) / 1e6
		after := h.burst()
		by := slowdown(before, after, h.exp)
		for _, ts := range times {
			for i := range ts {
				ts[i] /= by
			}
		}
		cpuMs += cpu / by
		before = after
	}
	return cpuMs
}

// take ends a timed part: it returns the median reading since the last
// take, in ms, for the record.
func (h *hostCal) take() float64 {
	reading := median(h.readings)
	h.readings = h.readings[:0]
	return reading
}
