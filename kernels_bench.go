package asv

import (
	"math"
	"runtime"

	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// Kernel benchmark facade: the internal/stereo ns/pixel measurement harness
// behind `asvbench -exp kernels`, whose committed snapshot is
// BENCH_kernels.json (see EXPERIMENTS.md "Kernel benchmarks"), followed by
// the non-key frame's two flow kernels — measured here so that stereo need
// not import flow.

// KernelPoint is one (kernel, variant, size) ns/pixel measurement.
type KernelPoint = stereo.KernelPoint

// KernelsBenchDoc is the top-level record of BENCH_kernels.json. It records
// the CPU envelope at measurement time: ns/pixel is a per-core metric, but
// the parallel strip decomposition still shifts with GOMAXPROCS.
type KernelsBenchDoc struct {
	CPUsAvailable int           `json:"cpus_available"`
	GoMaxProcs    int           `json:"gomaxprocs_default"`
	MaxDisp       int           `json:"max_disp"`
	Rounds        int           `json:"rounds"`
	Points        []KernelPoint `json:"points"`
}

// MeasureKernelBench times every matching kernel, in each numeric type it
// has, and the flow kernels at the given sizes, keeping the fastest of
// rounds runs each.
func MeasureKernelBench(sizes [][2]int, maxDisp, rounds int) KernelsBenchDoc {
	return KernelsBenchDoc{
		CPUsAvailable: runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		MaxDisp:       maxDisp,
		Rounds:        rounds,
		Points:        append(stereo.MeasureKernels(sizes, maxDisp, rounds), measureFlowKernels(sizes, rounds)...),
	}
}

// measureFlowKernels times, per size, `separable-filter` — one blur with the
// flow's aggregation window (σ 1.8, 13 taps), the convolution a non-key frame
// spends most of its time in — and `farneback`, one full-resolution flow
// estimate between a textured frame and its one-pixel shift. Both are
// float32 only, and neither searches disparities, so MaxDisp is 0.
func measureFlowKernels(sizes [][2]int, rounds int) []KernelPoint {
	opt := flow.DefaultOptions()
	win := imgproc.GaussianKernel1D(opt.WinSigma)
	var points []KernelPoint
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		prev, next := imgproc.NewImage(w, h), imgproc.NewImage(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				prev.Pix[y*w+x] = float32(0.5 + 0.3*math.Sin(float64(x)*0.31+float64(y)*0.17) + 0.2*math.Sin(float64(x*y)*0.013))
			}
		}
		for i := range next.Pix {
			next.Pix[i] = prev.At(i%w+1, i/w)
		}
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"separable-filter", func() { imgproc.PutImage(imgproc.SeparableFilter(prev, win, win)) }},
			{"farneback", func() { flow.PutField(flow.Farneback(prev, next, opt)) }},
		} {
			points = append(points, KernelPoint{Kernel: k.name, Variant: "float", W: w, H: h,
				NsPerPixel: stereo.TimeKernel(w, h, rounds, k.run)})
		}
	}
	return points
}
