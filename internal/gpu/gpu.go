// Package gpu is a roofline model of the mobile Pascal GPU in the Nvidia
// Jetson TX2 (paper Sec. 6.2, Fig. 13): peak fp16 throughput, shared LPDDR4
// bandwidth, and board-level power. It reproduces the baseline GPU curves of
// Fig. 1 and the GPU bars of Fig. 13 at the fidelity the paper uses them —
// a reference point, not a target. As a backend (name "gpu") it
// supports only PolicyBaseline, the cuDNN-era execution the paper measures.
package gpu

import (
	"fmt"
	"math"

	"asv/internal/backend"
	"asv/internal/nn"
)

// Model describes a GPU by its roofline parameters.
type Model struct {
	PeakMACsPerSec    float64 // fp16 multiply-accumulates per second
	Efficiency        float64 // sustained fraction of peak on conv workloads
	BWBytesPerSec     float64
	BoardPowerW       float64
	LaunchOverheadSec float64 // per-layer kernel-launch cost
}

// TX2 returns the Jetson TX2 mobile Pascal configuration: 256 CUDA cores at
// 1.3 GHz (665 GMAC/s fp16), 58.4 GB/s of shared LPDDR4, ~5 W GPU-rail
// power under load. Sustained efficiency is calibrated to the paper's
// measured stereo-DNN frame rates (Fig. 1: DispNet-GPU ≈ 1–2 FPS at qHD),
// which land near 15% of peak — deconvolution-heavy encoder/decoders of
// that era ran far from roofline on cuDNN.
func TX2() *Model {
	return &Model{
		PeakMACsPerSec:    665e9,
		Efficiency:        0.15,
		BWBytesPerSec:     58.4e9,
		BoardPowerW:       5,
		LaunchOverheadSec: 20e-6,
	}
}

// Describe implements backend.Backend: a roofline reference point with no
// scheduler, so only the native (baseline) execution is modeled.
func (m *Model) Describe() backend.Description {
	return backend.Description{
		Name: "gpu",
		Summary: fmt.Sprintf("mobile GPU roofline (TX2-class), %.0f GMAC/s fp16 peak, %.1f GB/s, %.0f W board",
			m.PeakMACsPerSec/1e9, m.BWBytesPerSec/1e9, m.BoardPowerW),
		Caps: backend.Capabilities{
			Policies: []backend.Policy{backend.PolicyBaseline},
		},
	}
}

// RunNetwork implements backend.Backend: the per-inference cost of the
// network. The GPU executes deconvolutions as dense convolutions over the
// zero-upsampled input (the cuDNN-era execution the paper measures
// against). Options must be normalized; use backend.Run for validated
// execution.
func (m *Model) RunNetwork(n *nn.Network, opts backend.RunOptions) backend.Report {
	rep := backend.Report{Workload: n.Name + "@gpu", Policy: opts.Policy}
	const elemB = 2
	for _, l := range n.Layers {
		macs := l.MACs()
		bytes := (l.IfmapElems() + l.WeightElems() + l.OfmapElems()) * elemB
		lat := math.Max(
			float64(macs)/(m.PeakMACsPerSec*m.Efficiency),
			float64(bytes)/m.BWBytesPerSec,
		) + m.LaunchOverheadSec
		rep.Seconds += lat
		rep.MACs += macs
		rep.DRAMBytes += bytes
		if l.Kind == nn.KindDeconv {
			rep.DeconvCycles += int64(lat * 1e9)
		}
	}
	rep.Cycles = int64(rep.Seconds * 1e9)
	rep.EnergyJ = rep.Seconds * m.BoardPowerW
	// Board-level power does not split by component; the roofline reports
	// the whole budget as compute so the breakdown still sums to EnergyJ.
	rep.Energy.ComputeJ = rep.EnergyJ
	for _, l := range n.Layers {
		if l.Kind == nn.KindDeconv {
			rep.DeconvEnergyJ += float64(l.MACs()) / float64(rep.MACs) * rep.EnergyJ
		}
	}
	return rep
}
