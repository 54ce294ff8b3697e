// Package eyeriss models the Eyeriss-class spatial architecture used as a
// comparison point in paper Sec. 7.5 (Fig. 13): a row-stationary dataflow
// over a 2-D PE array with the same PE count, buffer capacity and memory
// bandwidth as the ASV systolic array (the paper's fair-comparison
// configuration).
//
// Row-stationary mapping maximizes register-file reuse inside the array but
// pays NoC energy per MAC and maps 1×1 kernels and fully connected layers
// poorly. The model supports the deconvolution transformation (the paper
// extends the Eyeriss simulator with DCT for a stronger baseline) but not
// ILAR, whose formulation targets the systolic array's unified buffer —
// its backend capabilities are PolicyBaseline and PolicyDCT only.
package eyeriss

import (
	"fmt"
	"math"

	"asv/internal/backend"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/schedule"
)

// Model is an Eyeriss-like accelerator instance.
type Model struct {
	Cfg hw.Config
	En  hw.Energy
}

// NoCpJPerMAC is the network-on-chip energy each MAC pays for operand
// delivery across the spatial array.
const NoCpJPerMAC = 0.35

// New returns a model with the given resources.
func New(cfg hw.Config, en hw.Energy) *Model {
	cfg.Validate()
	return &Model{Cfg: cfg, En: en}
}

// Default returns the paper's comparison configuration: identical PE count,
// buffer and bandwidth to the ASV accelerator.
func Default() *Model { return New(hw.Default(), hw.DefaultEnergy()) }

// Describe implements backend.Backend: row-stationary mapping takes the
// deconvolution transformation (DCT) but has no unified-buffer ILAR and no
// ISM extensions.
func (m *Model) Describe() backend.Description {
	return backend.Description{
		Name: "eyeriss",
		Summary: fmt.Sprintf("Eyeriss-class row-stationary spatial array, %dx%d PEs @ %.1f GHz, %.1f MB buffer",
			m.Cfg.PEsX, m.Cfg.PEsY, m.Cfg.FreqHz/1e9, float64(m.Cfg.BufBytes)/(1024*1024)),
		Caps: backend.Capabilities{
			Policies: []backend.Policy{backend.PolicyBaseline, backend.PolicyDCT},
		},
	}
}

// utilization returns the sustained fraction of the PE array a layer keeps
// busy under row-stationary mapping. Spatial mapping constraints (kernel
// rows × ifmap rows folded onto the array) leave more bubbles than a
// systolic pipeline, especially for degenerate kernels.
func utilization(taps int64) float64 {
	switch {
	case taps >= 9: // 3x3 and larger map well
		return 0.55
	case taps >= 4:
		return 0.48
	case taps > 1:
		return 0.40
	default: // 1x1 kernels and FC layers map poorly onto RS
		return 0.30
	}
}

// RunNetwork implements backend.Backend. PolicyDCT applies the
// deconvolution transformation first (the "Eyeriss+DCT" bar of Fig. 13);
// PolicyBaseline runs the naive deconvolutions. Options must be
// normalized; use backend.Run for validated execution.
func (m *Model) RunNetwork(n *nn.Network, opts backend.RunOptions) backend.Report {
	transformed := opts.Policy.Transformed()
	rep := backend.Report{Workload: n.Name + "@eyeriss", Policy: opts.Policy}
	pes := float64(m.Cfg.PEs())
	bpc := m.Cfg.BytesPerCycle()
	elemB := m.Cfg.ElemBytes

	for _, l := range n.Layers {
		var spec schedule.LayerSpec
		if transformed {
			spec = schedule.TransformedSpec(l)
		} else {
			spec = schedule.NaiveSpec(l)
		}
		var cycles int64
		var macs int64
		var dram int64
		// Each sub-convolution is mapped as an independent pass (no ILAR):
		// the ifmap streams from DRAM again for every pass that does not fit
		// the buffer.
		ifBytes := spec.IfmapElems() * elemB
		for _, sc := range spec.Subs {
			scMACs := sc.MACs(spec.InC)
			macs += scMACs
			u := utilization(sc.Taps)
			cCycles := int64(math.Ceil(float64(scMACs) / (pes * u)))
			passIf := ifBytes
			if ifBytes <= m.Cfg.UsableBuf() {
				// Fits on chip: loaded once per pass but reused fully.
				passIf = ifBytes
			} else {
				// Row-stationary halo refetch on oversized ifmaps.
				passIf = ifBytes + ifBytes/4
			}
			wBytes := sc.Taps * spec.InC * sc.Filters * elemB
			oBytes := sc.OutPerFilter * sc.Filters * elemB
			mem := passIf + wBytes + oBytes
			mCycles := int64(math.Ceil(float64(mem) / bpc))
			// The spatial array overlaps compute and fetch less perfectly
			// than a double-buffered systolic pipeline.
			lat := cCycles
			if mCycles > lat {
				lat = mCycles
			}
			lat += (cCycles + mCycles - lat) / 4 // imperfect overlap
			cycles += lat
			dram += mem
		}
		rep.Cycles += cycles
		rep.MACs += macs
		rep.DRAMBytes += dram
		rep.SRAMBytes += dram // everything crosses the global buffer once
		eb := backend.EnergyBreakdown{
			ComputeJ: float64(macs) * (m.En.MACpJ + NoCpJPerMAC) * 1e-12,
			SRAMJ:    float64(dram) * m.En.SRAMpJByte * 1e-12,
			DRAMJ:    float64(dram) * m.En.DRAMpJByte * 1e-12,
		}
		rep.Energy.Add(eb)
		e := eb.Total()
		rep.EnergyJ += e
		if l.Kind == nn.KindDeconv {
			rep.DeconvCycles += cycles
			rep.DeconvEnergyJ += e
		}
	}
	rep.Seconds = float64(rep.Cycles) / m.Cfg.FreqHz
	rep.Energy.LeakJ = m.En.LeakWatts * rep.Seconds
	rep.EnergyJ += rep.Energy.LeakJ
	return rep
}
