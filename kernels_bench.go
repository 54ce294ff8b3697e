package asv

import (
	"runtime"

	"asv/internal/stereo"
)

// Kernel benchmark facade: re-exports of the internal/stereo ns/pixel
// measurement harness behind `asvbench -exp kernels`, whose committed
// snapshot is BENCH_kernels.json (see EXPERIMENTS.md "Kernel benchmarks").

// KernelPoint is one (kernel, variant, size) ns/pixel measurement.
type KernelPoint = stereo.KernelPoint

// KernelsBenchDoc is the top-level record of BENCH_kernels.json. Like
// BENCH_pipeline.json it records the CPU envelope at measurement time:
// ns/pixel is a per-core metric, but the parallel strip decomposition still
// shifts with GOMAXPROCS.
type KernelsBenchDoc struct {
	CPUsAvailable int           `json:"cpus_available"`
	GoMaxProcs    int           `json:"gomaxprocs_default"`
	MaxDisp       int           `json:"max_disp"`
	Rounds        int           `json:"rounds"`
	Points        []KernelPoint `json:"points"`
}

// MeasureKernelBench times every matching kernel, in each numeric type it
// has, at the given sizes, keeping the fastest of rounds runs each.
func MeasureKernelBench(sizes [][2]int, maxDisp, rounds int) KernelsBenchDoc {
	return KernelsBenchDoc{
		CPUsAvailable: runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		MaxDisp:       maxDisp,
		Rounds:        rounds,
		Points:        stereo.MeasureKernels(sizes, maxDisp, rounds),
	}
}
