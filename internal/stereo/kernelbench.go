package stereo

import (
	"math"
	"math/rand"
	"time"

	"asv/internal/imgproc"
)

// Kernel-level ns/pixel benchmarking. Each matching kernel is timed on the
// same synthetic pair, reporting nanoseconds per
// output pixel — the per-kernel efficiency metric the CI gate tracks in
// BENCH_kernels.json. Pipeline-level wall-clock lives in asvbench -exp
// pipeline; this file isolates the kernels so a regression points at the
// code that caused it.

// KernelPoint is one (kernel, variant, size) benchmark measurement.
type KernelPoint struct {
	Kernel     string  `json:"kernel"`  // sad | cvf | refine | census-transform | sgm-aggregate | wta here; separable-filter | farneback from the root package
	Variant    string  `json:"variant"` // numeric type: fixed (integer cells) here; float (float32) for the root package's flow kernels
	W          int     `json:"w"`
	H          int     `json:"h"`
	MaxDisp    int     `json:"max_disp"`
	NsPerPixel float64 `json:"ns_per_pixel"`
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

// MeasureKernels benchmarks every matching kernel at the given frame sizes
// and disparity range, timing each run rounds times and keeping the fastest:
// one fixed row per kernel (sad, cvf, refine, census-transform —
// SGM's descriptor stage alone for both eyes — sgm-aggregate, wta).
func MeasureKernels(sizes [][2]int, maxDisp, rounds int) []KernelPoint {
	var points []KernelPoint
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		left, right := benchPair(w, h)
		nd := maxDisp + 1

		bmOpt := BMOptions{BlockR: 3, MaxDisp: maxDisp, Subpixel: true}
		// The guide is benchPair's true shift off by up to ±1 px, drawn per
		// pixel: a constant guide would give every column the same 7-wide
		// band, narrower than a propagated guide's.
		rng := rand.New(rand.NewSource(int64(w)*7919 + int64(h)))
		init := imgproc.NewImage(w, h)
		for i := range init.Pix {
			init.Pix[i] = float32(6+(i/w/8)%5) + float32(2*rng.Float64()-1)
		}

		cvfOpt := DefaultCVFOptions()
		cvfOpt.MaxDisp = maxDisp

		sgmOpt := DefaultSGMOptions()
		sgm := &sgmScratch{cl: census(left, sgmOpt.CensusR), cr: census(right, sgmOpt.CensusR),
			cost: make([]uint64, w*h*laneWords(nd))}
		costVolume(sgm.cost, sgm.cl, sgm.cr, w, h, nd, sgmOpt.CensusR)
		p1, p2 := roundPenalty(sgmOpt.P1), roundPenalty(sgmOpt.P2)
		sgm.aggregate(w, h, nd, sgmOpt.Paths, p1, p2)

		for _, k := range []struct {
			name string
			run  func()
		}{
			{"sad", func() { Match(left, right, bmOpt) }},
			{"cvf", func() { CostVolumeFilter(left, right, cvfOpt) }},
			{"refine", func() { Refine(left, right, init, 3, bmOpt) }},
			{"census-transform", func() { census(left, sgmOpt.CensusR); census(right, sgmOpt.CensusR) }},
			{"sgm-aggregate", func() { sgm.aggregate(w, h, nd, sgmOpt.Paths, p1, p2) }},
			{"wta", func() { wtaVolume(sgm.sum, w, h, nd, true) }},
		} {
			points = append(points, KernelPoint{Kernel: k.name, Variant: "fixed", W: w, H: h, MaxDisp: maxDisp,
				NsPerPixel: TimeKernel(w, h, rounds, k.run)})
		}
	}
	return points
}
