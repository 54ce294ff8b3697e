package stereo

import (
	"math"
	"math/rand"
	"time"

	"asv/internal/imgproc"
)

// Kernel-level ns/pixel benchmarking. Each matching kernel is timed in every
// numeric type it has on the same synthetic pair, reporting nanoseconds per
// output pixel — the per-kernel efficiency metric the CI gate tracks in
// BENCH_kernels.json. Pipeline-level wall-clock lives in asvbench -exp
// pipeline; this file isolates the kernels so a regression points at the
// code that caused it.

// KernelPoint is one (kernel, variant, size) benchmark measurement.
type KernelPoint struct {
	Kernel     string  `json:"kernel"`  // sad | census | cvf | refine | census-transform | sgm-aggregate | wta here; separable-filter | farneback from the root package
	Variant    string  `json:"variant"` // numeric type: float (float32 cells) | fixed (integer cells)
	W          int     `json:"w"`
	H          int     `json:"h"`
	MaxDisp    int     `json:"max_disp"`
	NsPerPixel float64 `json:"ns_per_pixel"`
	// SpeedupX is NsPerPixel(float) / NsPerPixel(fixed) at the same size,
	// recorded on the fixed row of a kernel that has both.
	SpeedupX float64 `json:"speedup_x,omitempty"`
}

// benchPair synthesizes a deterministic stereo pair: banded sine texture
// plus seeded noise, with the right view a ~8 px shifted copy, so every
// kernel does representative (non-degenerate) work.
func benchPair(w, h int) (*imgproc.Image, *imgproc.Image) {
	rng := rand.New(rand.NewSource(int64(w)*1_000_003 + int64(h)))
	left := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.5 + 0.3*math.Sin(float64(x)*0.31+float64(y)*0.17) + 0.2*rng.Float64()
			left.Set(x, y, float32(v))
		}
	}
	right := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		d := 6 + (y/8)%5
		for x := 0; x < w; x++ {
			right.Pix[y*w+x] = left.At(x+d, y)
		}
	}
	return left, right
}

// TimeKernel returns the minimum ns/pixel over rounds runs of f on a w×h
// frame: how every row of BENCH_kernels.json is timed.
func TimeKernel(w, h, rounds int, f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < max(rounds, 1); i++ {
		start := time.Now()
		f()
		if ns := float64(time.Since(start).Nanoseconds()) / float64(w*h); ns < best {
			best = ns
		}
	}
	return best
}

// kernelRuns names one kernel's runners, closed over the same inputs. float
// is nil for a kernel with a single, integer implementation.
type kernelRuns struct {
	name         string
	float, fixed func()
}

// MeasureKernels benchmarks every matching kernel at the given frame sizes
// and disparity range, timing each run rounds times and keeping the fastest.
// Kernels whose numeric type BMOptions.Fixed / CVFOptions.Fixed selects (sad,
// cvf, refine) get a float row directly before their fixed row; kernels that
// are integer by construction (census, sgm-aggregate, wta; census-transform,
// SGM's descriptor stage alone for both eyes) get one fixed row.
func MeasureKernels(sizes [][2]int, maxDisp, rounds int) []KernelPoint {
	var points []KernelPoint
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		left, right := benchPair(w, h)
		nd := maxDisp + 1

		bmOpt := BMOptions{BlockR: 3, MaxDisp: maxDisp, Subpixel: true}
		bmFixed := bmOpt
		bmFixed.Fixed = true
		censusOpt := bmOpt
		censusOpt.Census = 2
		// benchPair shifts by 6..10 px, so ±3 around 8 covers the truth.
		init := imgproc.NewImage(w, h)
		for i := range init.Pix {
			init.Pix[i] = 8
		}

		cvfOpt := DefaultCVFOptions()
		cvfOpt.MaxDisp = maxDisp
		cvfFixed := cvfOpt
		cvfFixed.Fixed = true

		sgmOpt := DefaultSGMOptions()
		cost := costVolume(census(left, sgmOpt.CensusR), census(right, sgmOpt.CensusR), w, h, nd, sgmOpt.CensusR)
		p1, p2 := roundPenalty(sgmOpt.P1), roundPenalty(sgmOpt.P2)
		sum := aggregate(cost, w, h, nd, sgmOpt.Paths, p1, p2)

		for _, k := range []kernelRuns{
			{"sad",
				func() { Match(left, right, bmOpt) },
				func() { Match(left, right, bmFixed) }},
			{"census", nil,
				func() { Match(left, right, censusOpt) }},
			{"cvf",
				func() { CostVolumeFilter(left, right, cvfOpt) },
				func() { CostVolumeFilter(left, right, cvfFixed) }},
			{"refine",
				func() { Refine(left, right, init, 3, bmOpt) },
				func() { Refine(left, right, init, 3, bmFixed) }},
			{"census-transform", nil,
				func() { census(left, sgmOpt.CensusR); census(right, sgmOpt.CensusR) }},
			{"sgm-aggregate", nil,
				func() { aggregate(cost, w, h, nd, sgmOpt.Paths, p1, p2) }},
			{"wta", nil,
				func() { wtaVolume(sum, w, h, nd, true) }},
		} {
			point := func(variant string, run func()) KernelPoint {
				return KernelPoint{Kernel: k.name, Variant: variant, W: w, H: h, MaxDisp: maxDisp,
					NsPerPixel: TimeKernel(w, h, rounds, run)}
			}
			if k.float == nil {
				points = append(points, point("fixed", k.fixed))
				continue
			}
			fl, fx := point("float", k.float), point("fixed", k.fixed)
			fx.SpeedupX = fl.NsPerPixel / fx.NsPerPixel
			points = append(points, fl, fx)
		}
	}
	return points
}
