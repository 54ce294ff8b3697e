// Package backends is the fixed list of the four accelerator models. It is
// the only non-test package allowed to import the model packages (asvlint's
// archlayer rule enforces this): everything else — experiments and CLIs —
// selects a backend by name through ByName/All, or builds a custom-config
// systolic array through NewSystolic.
//
//	eyeriss  — Eyeriss-class row-stationary spatial array (baseline, DCT)
//	gannx    — GANNX-class MIMD-SIMD deconvolution accelerator (baseline)
//	gpu      — Jetson TX2-class mobile GPU roofline (baseline)
//	systolic — ASV systolic array (all policies + ISM)
package backends

import (
	"fmt"
	"slices"

	"asv/internal/backend"
	"asv/internal/core"
	"asv/internal/eyeriss"
	"asv/internal/gannx"
	"asv/internal/gpu"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/systolic"
)

// builtins holds the default instance of every model, sorted by name.
var builtins = []backend.Backend{
	eyeriss.Default(),
	gannx.Default(),
	gpu.TX2(),
	systolic.Default(),
}

// All returns every model, sorted by name, in a slice the caller owns.
func All() []backend.Backend { return slices.Clone(builtins) }

// Names returns the models' names, sorted.
func Names() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.Describe().Name
	}
	return names
}

// ByName returns the model called name, or an error listing every name so
// CLI messages are self-explanatory.
func ByName(name string) (backend.Backend, error) {
	for _, b := range builtins {
		if b.Describe().Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("unknown backend %q (have %v)", name, Names())
}

// NewSystolic returns an ASV systolic-array backend with a custom hardware
// configuration (design-space sweeps, Fig. 12).
func NewSystolic(cfg hw.Config, en hw.Energy) backend.Backend {
	return systolic.New(cfg, en)
}

// DefaultNonKey returns the per-frame non-key demand of the default ISM
// pipeline at qHD — the NonKeyCost every ISM experiment uses unless
// overridden. FrameBytes covers the stereo pair, motion
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
