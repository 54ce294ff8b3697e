// Package gannx models a GANNX-class dedicated deconvolution accelerator
// (Yazdanbakhsh et al., ISCA 2018), the purpose-built hardware ASV is
// compared against in paper Sec. 7.6 (Fig. 14).
//
// GANNX restructures its MIMD-SIMD array so the four (or eight) output
// computation patterns of a stride-2 deconvolution execute without touching
// inserted zeros — in effect it achieves the MAC reduction of ASV's
// software transformation, but in hardware. What it cannot do is ASV's
// inter-layer activation reuse: each computation pattern streams the ifmap
// again, and pattern switches cost reconfiguration. Those two differences
// are exactly what the model captures. As a backend (name
// "gannx") it supports only PolicyBaseline: zero skipping is baked into
// the hardware, not a scheduling choice.
package gannx

import (
	"fmt"
	"math"

	"asv/internal/backend"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/schedule"
)

// Model is a GANNX-like accelerator with the same resource envelope as the
// ASV systolic array (paper: "we configure both ASV and GANNX to have the
// same PE and buffer sizes").
type Model struct {
	Cfg hw.Config
	En  hw.Energy
}

// Microarchitectural calibration: the MIMD-SIMD organization sustains lower
// PE utilization than a systolic pipeline, and pattern switches stall the
// array.
const (
	utilization          = 0.70
	reconfigCyclesPerSub = 512
	controlPJPerMAC      = 0.12 // distributed MIMD control energy
)

// New returns a model instance.
func New(cfg hw.Config, en hw.Energy) *Model {
	cfg.Validate()
	return &Model{Cfg: cfg, En: en}
}

// Default returns the Fig. 14 comparison configuration.
func Default() *Model { return New(hw.Default(), hw.DefaultEnergy()) }

// Describe implements backend.Backend: hardware zero skipping is the
// native execution, so the only policy is baseline; there is no scheduler
// to run DCT/ConvR/ILAR and no ISM extension.
func (m *Model) Describe() backend.Description {
	return backend.Description{
		Name: "gannx",
		Summary: fmt.Sprintf("GANNX-class MIMD-SIMD deconvolution accelerator, %dx%d PEs @ %.1f GHz, %.1f MB buffer",
			m.Cfg.PEsX, m.Cfg.PEsY, m.Cfg.FreqHz/1e9, float64(m.Cfg.BufBytes)/(1024*1024)),
		Caps: backend.Capabilities{
			Policies: []backend.Policy{backend.PolicyBaseline},
		},
	}
}

// RunNetwork implements backend.Backend: one generator inference.
// Deconvolutions skip zero MACs in hardware; convolutions and FC layers
// run as on a conventional array. Options must be normalized; use
// backend.Run for validated execution.
func (m *Model) RunNetwork(n *nn.Network, opts backend.RunOptions) backend.Report {
	rep := backend.Report{Workload: n.Name + "@gannx", Policy: opts.Policy}
	pes := float64(m.Cfg.PEs())
	bpc := m.Cfg.BytesPerCycle()
	elemB := m.Cfg.ElemBytes

	for _, l := range n.Layers {
		// Hardware zero skipping realizes the same effective-MAC count as
		// the software transformation.
		spec := schedule.TransformedSpec(l)
		ifBytes := spec.IfmapElems() * elemB
		var cycles, macs, dram int64
		for _, sc := range spec.Subs {
			scMACs := sc.MACs(spec.InC)
			macs += scMACs
			cycles += int64(math.Ceil(float64(scMACs)/(pes*utilization))) + reconfigCyclesPerSub
			// No inter-pattern activation reuse: every pattern re-reads the
			// ifmap (from the buffer if it fits, else from DRAM).
			wBytes := sc.Taps * spec.InC * sc.Filters * elemB
			oBytes := sc.OutPerFilter * sc.Filters * elemB
			mem := wBytes + oBytes
			if ifBytes > m.Cfg.UsableBuf() {
				mem += ifBytes
			}
			dram += mem
		}
		// The ifmap crosses DRAM at least once even when buffered.
		dram += ifBytes
		mCycles := int64(math.Ceil(float64(dram) / bpc))
		if mCycles > cycles {
			cycles = mCycles
		}
		rep.Cycles += cycles
		rep.MACs += macs
		rep.DRAMBytes += dram
		// Each pattern streams the ifmap through the buffer again — exactly
		// the repeated on-chip traffic ILAR eliminates on ASV.
		sram := int64(len(spec.Subs))*ifBytes + dram
		rep.SRAMBytes += sram
		eb := backend.EnergyBreakdown{
			ComputeJ: float64(macs) * (m.En.MACpJ + controlPJPerMAC) * 1e-12,
			SRAMJ:    float64(sram) * m.En.SRAMpJByte * 1e-12,
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
