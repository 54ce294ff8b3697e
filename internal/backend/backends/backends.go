// Package backends wires the four concrete accelerator models into the
// neutral backend registry. It is the only non-test package allowed to
// import the model packages (asvlint's archlayer rule enforces this):
// everything else — experiments, CLIs, the serving layer — selects a
// backend by name through backend.Get/List, or builds a custom-config
// systolic array through NewSystolic.
//
// Importing this package (often as a blank import) registers the default
// instances of all four models into backend.Default:
//
//	systolic — ASV systolic array (all policies + ISM)
//	eyeriss  — Eyeriss-class row-stationary spatial array (baseline, DCT)
//	gpu      — Jetson TX2-class mobile GPU roofline (baseline)
//	gannx    — GANNX-class MIMD-SIMD deconvolution accelerator (baseline)
package backends

import (
	"asv/internal/backend"
	"asv/internal/core"
	"asv/internal/eyeriss"
	"asv/internal/gannx"
	"asv/internal/gpu"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/systolic"
)

func init() {
	backend.Register(systolic.Default())
	backend.Register(eyeriss.Default())
	backend.Register(gpu.TX2())
	backend.Register(gannx.Default())
}

// NewSystolic returns an ASV systolic-array backend with a custom hardware
// configuration (design-space sweeps, Fig. 12).
func NewSystolic(cfg hw.Config, en hw.Energy) backend.Backend {
	return systolic.New(cfg, en)
}

// DefaultNonKey returns the per-frame non-key demand of the default ISM
// pipeline at qHD — the NonKeyCost every ISM experiment and the serving
// layer use unless overridden. FrameBytes covers the stereo pair, motion
// field and disparity map crossing DRAM once each.
func DefaultNonKey() backend.NonKeyCost {
	p := core.New(nil, core.DefaultConfig())
	arrayMACs, scalarOps := p.NonKeyBreakdown(nn.QHDW, nn.QHDH)
	return backend.NonKeyCost{
		ArrayMACs:  arrayMACs,
		ScalarOps:  scalarOps,
		FrameBytes: int64(7 * nn.QHDW * nn.QHDH * 2),
	}
}
