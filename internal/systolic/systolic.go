// Package systolic models ASV's accelerator: a TPU-like systolic array with
// a unified double-buffered SRAM, executing networks layer by layer under a
// scheduling policy, plus the ISM extensions (SAD-capable PEs and the
// pointwise scalar unit) that run the optical-flow and block-matching work
// of non-key frames.
//
// Latency comes from the round model in package schedule; energy integrates
// per-event costs from package hw over the counted MACs and on-/off-chip
// traffic. The package implements backend.Backend (name
// "systolic"): it is the only model that supports all four scheduling
// policies and ISM propagation windows.
package systolic

import (
	"fmt"

	"asv/internal/backend"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/schedule"
)

// Accelerator is an immutable accelerator instance.
type Accelerator struct {
	Cfg hw.Config
	En  hw.Energy
}

// New returns an accelerator with the given resources and energy model.
func New(cfg hw.Config, en hw.Energy) *Accelerator {
	cfg.Validate()
	return &Accelerator{Cfg: cfg, En: en}
}

// Default returns the paper's evaluation accelerator (Sec. 6.1).
func Default() *Accelerator { return New(hw.Default(), hw.DefaultEnergy()) }

// Describe implements backend.Backend: the systolic array supports every
// scheduling policy and the ISM non-key extensions.
func (a *Accelerator) Describe() backend.Description {
	return backend.Description{
		Name: "systolic",
		Summary: fmt.Sprintf("ASV systolic array, %dx%d PEs @ %.1f GHz, %.1f MB SRAM, %.1f GB/s",
			a.Cfg.PEsX, a.Cfg.PEsY, a.Cfg.FreqHz/1e9,
			float64(a.Cfg.BufBytes)/(1024*1024), a.Cfg.BytesPerCycle()*a.Cfg.FreqHz/1e9),
		Caps: backend.Capabilities{
			Policies: []backend.Policy{backend.PolicyBaseline, backend.PolicyDCT,
				backend.PolicyConvR, backend.PolicyILAR},
			ISM: true,
		},
	}
}

// energyOf integrates the energy of one scheduled result by component.
func (a *Accelerator) energyOf(r schedule.Result) backend.EnergyBreakdown {
	const pJ = 1e-12
	return backend.EnergyBreakdown{
		ComputeJ: float64(r.MACs) * a.En.MACpJ * pJ,
		SRAMJ:    float64(r.SRAMBytes) * a.En.SRAMpJByte * pJ,
		DRAMJ:    float64(r.DRAMBytes) * a.En.DRAMpJByte * pJ,
		LeakJ:    a.En.LeakWatts * float64(r.Cycles) / a.Cfg.FreqHz,
	}
}

// RunNetwork implements backend.Backend: one inference under opts.Policy,
// or — when opts.PW > 1 — the average per-frame cost of the full ASV
// system (key frame amortized over opts.PW-1 non-key frames). Options must
// be normalized; use backend.Run for validated execution.
func (a *Accelerator) RunNetwork(n *nn.Network, opts backend.RunOptions) backend.Report {
	if opts.PW > 1 {
		return a.RunISM(n, opts.Policy, opts.PW, opts.NonKey)
	}
	return a.runNetwork(n, opts.Policy)
}

// runNetwork compiles and "executes" one inference of the network under
// the given policy, returning its full cost breakdown.
func (a *Accelerator) runNetwork(n *nn.Network, pol backend.Policy) backend.Report {
	transformed := pol != backend.PolicyBaseline
	specs := schedule.NetworkSpecs(n, transformed)

	var opt schedule.Options
	switch pol {
	case backend.PolicyBaseline, backend.PolicyDCT:
		p := schedule.BestStaticPartition(specs, a.Cfg)
		opt = schedule.Options{Static: &p}
	case backend.PolicyConvR:
		opt = schedule.Options{ILAR: false}
	case backend.PolicyILAR:
		opt = schedule.Options{ILAR: true}
	default:
		panic(fmt.Sprintf("systolic: unknown policy %v", pol))
	}

	rep := backend.Report{Workload: n.Name, Policy: pol}
	for i, spec := range specs {
		r := schedule.Evaluate(spec, a.Cfg, opt)
		rep.PerLayer = append(rep.PerLayer, r)
		rep.Cycles += r.Cycles
		rep.MACs += r.MACs
		rep.DRAMBytes += r.DRAMBytes
		rep.SRAMBytes += r.SRAMBytes
		e := a.energyOf(r)
		rep.Energy.Add(e)
		rep.EnergyJ += e.Total()
		if n.Layers[i].Kind == nn.KindDeconv {
			rep.DeconvCycles += r.Cycles
			rep.DeconvEnergyJ += e.Total()
		}
	}
	rep.Seconds = float64(rep.Cycles) / a.Cfg.FreqHz
	return rep
}

// Scalar-unit microarchitecture (Sec. 6.1): 8 lanes at 250 MHz. Each lane
// executes one fused pointwise kernel ("Compute Flow", "Matrix Update",
// ReLU) per cycle; a kernel invocation covers ~16 arithmetic operations of
// the cost model.
const (
	ScalarLanes           = 8
	ScalarFreqHz          = 250e6
	ScalarOpsPerLaneCycle = 16
)

// arrayUtilNonKey is the sustained utilization of the array on BM/OF work;
// the convolution-like structure maps well but small kernels leave bubbles.
const arrayUtilNonKey = 0.75

// RunNonKey models one non-key ISM frame: array work and scalar work
// overlap, so latency is their maximum; energy sums both plus traffic.
func (a *Accelerator) RunNonKey(c backend.NonKeyCost) backend.Report {
	arrayCycles := int64(float64(c.ArrayMACs) / (float64(a.Cfg.PEs()) * arrayUtilNonKey))
	scalarSeconds := float64(c.ScalarOps) / (ScalarLanes * ScalarFreqHz * ScalarOpsPerLaneCycle)
	scalarCycles := int64(scalarSeconds * a.Cfg.FreqHz)
	cycles := arrayCycles
	if scalarCycles > cycles {
		cycles = scalarCycles
	}
	memCycles := int64(float64(c.FrameBytes) / a.Cfg.BytesPerCycle())
	if memCycles > cycles {
		cycles = memCycles
	}

	seconds := float64(cycles) / a.Cfg.FreqHz
	const pJ = 1e-12
	eb := backend.EnergyBreakdown{
		ComputeJ: (float64(c.ArrayMACs)*a.En.SADpJ + float64(c.ScalarOps)*a.En.ScalarOpPJ) * pJ,
		SRAMJ:    float64(c.ArrayMACs) * 0.25 * a.En.SRAMpJByte * pJ,
		DRAMJ:    float64(c.FrameBytes) * a.En.DRAMpJByte * pJ,
		LeakJ:    a.En.LeakWatts * seconds,
	}

	return backend.Report{
		Workload:  "ism-nonkey",
		Cycles:    cycles,
		Seconds:   seconds,
		MACs:      c.ArrayMACs,
		DRAMBytes: c.FrameBytes,
		EnergyJ:   eb.Total(),
		Energy:    eb,
	}
}

// RunISM returns the *average per-frame* cost of the full ASV system with
// propagation window pw: one key frame (the stereo DNN under pol) amortized
// over pw-1 non-key frames (BM/OF on the extended array). pw=1 degenerates
// to pure DNN execution.
func (a *Accelerator) RunISM(n *nn.Network, pol backend.Policy, pw int, nonKey backend.NonKeyCost) backend.Report {
	if pw < 1 {
		panic(fmt.Sprintf("systolic: propagation window %d < 1", pw))
	}
	key := a.runNetwork(n, pol)
	if pw == 1 {
		return key
	}
	nk := a.RunNonKey(nonKey)
	inv := 1 / float64(pw)
	avg := backend.Report{
		Workload: n.Name + "+ism",
		Policy:   pol,
		Cycles:   (key.Cycles + int64(pw-1)*nk.Cycles) / int64(pw),
		MACs:     (key.MACs + int64(pw-1)*nk.MACs) / int64(pw),
	}
	avg.Seconds = (key.Seconds + float64(pw-1)*nk.Seconds) * inv
	avg.EnergyJ = (key.EnergyJ + float64(pw-1)*nk.EnergyJ) * inv
	avg.Energy = backend.EnergyBreakdown{
		ComputeJ: (key.Energy.ComputeJ + float64(pw-1)*nk.Energy.ComputeJ) * inv,
		SRAMJ:    (key.Energy.SRAMJ + float64(pw-1)*nk.Energy.SRAMJ) * inv,
		DRAMJ:    (key.Energy.DRAMJ + float64(pw-1)*nk.Energy.DRAMJ) * inv,
		LeakJ:    (key.Energy.LeakJ + float64(pw-1)*nk.Energy.LeakJ) * inv,
	}
	avg.DRAMBytes = (key.DRAMBytes + int64(pw-1)*nk.DRAMBytes) / int64(pw)
	avg.SRAMBytes = key.SRAMBytes / int64(pw)
	avg.DeconvCycles = key.DeconvCycles / int64(pw)
	avg.DeconvEnergyJ = key.DeconvEnergyJ * inv
	return avg
}
