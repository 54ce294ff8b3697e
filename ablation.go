package asv

import (
	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/flow"
	"asv/internal/schedule"
)

// Ablations of ISM's algorithmic design decisions (paper Sec. 3.3). The
// paper argues for Farneback dense flow over block matching (granularity)
// and sparse methods (coverage), and for a small guided local search over
// global refinement. These experiments put numbers behind each argument.

// MEAblationRow reports one motion-estimator choice.
type MEAblationRow struct {
	ME       string  // estimator name
	ErrorPct float64 // ISM PW-4 three-pixel error
	MEMops   float64 // per-frame motion-estimation cost (both views), MOps
}

// ablationConfigs returns the shared sequence set for the ablations: a
// handful of SceneFlow-like sequences with moderate motion.
func ablationConfigs(sc ExpScale) []dataset.SceneConfig {
	cfgs := sceneFlowConfigs(sc)
	if len(cfgs) > 6 {
		cfgs = cfgs[:6]
	}
	return cfgs
}

// fastMotionConfigs returns sequences with motion fast enough (≈3 px/frame)
// that the quality of the motion estimate is not masked by the ±3 guided
// search — the regime where Sec. 3.3's algorithm choice actually matters.
func fastMotionConfigs(sc ExpScale) []dataset.SceneConfig {
	n := 4
	if sc.SceneFlowSeqs < n {
		n = sc.SceneFlowSeqs
	}
	cfgs := make([]dataset.SceneConfig, n)
	for i := range cfgs {
		cfgs[i] = dataset.SceneConfig{
			W: sc.W, H: sc.H, FrameCount: 5, Layers: 4,
			MinDisp: 2, MaxDisp: 20, MaxVel: 3.0, MaxDispVel: 0.5,
			Noise: 0.01, Seed: sc.Seed + int64(300+i*17),
		}
	}
	return cfgs
}

// runISMWith runs the ablations' accuracy protocol (a DispNet-class oracle
// on key frames) with an explicit pipeline configuration and returns the
// mean three-pixel error over all frames and the key-frame rate.
func runISMWith(cfgs []dataset.SceneConfig, pcfg core.Config, seed int64) (errPct, keyRate float64) {
	return runOracleISM(cfgs, pcfg, core.OracleMatcher{ErrRatePct: 4.3, SubpixelSigma: 0.3, Seed: seed}, 97)
}

// ExperimentMEAblation compares ISM accuracy across motion-estimation
// algorithms: the paper's dense Farneback flow, block matching (per-block
// vectors only), and no motion at all.
func ExperimentMEAblation(sc ExpScale) []MEAblationRow {
	cfgs := fastMotionConfigs(sc)
	fopt := DefaultFlowOptions()
	fopt.Levels = 4 // reach the ~3 px/frame motion of the ablation scenes
	estimators := []core.MotionEstimator{
		core.FarnebackME{Opt: fopt, Scale: 2},
		core.BlockME{Block: 8, SearchR: 5},
		core.BlockME{Block: 16, SearchR: 5},
		core.HornSchunckME{Opt: flow.DefaultHSOptions()},
		core.ZeroME{},
	}
	var rows []MEAblationRow
	for _, me := range estimators {
		pcfg := core.DefaultConfig()
		pcfg.PW = 4
		pcfg.ME = me
		errPct, _ := runISMWith(cfgs, pcfg, sc.Seed)
		rows = append(rows, MEAblationRow{
			ME:       me.Name(),
			ErrorPct: errPct,
			MEMops:   2 * float64(me.MACs(sc.W, sc.H)) / 1e6,
		})
	}
	return rows
}

// ParamAblationRow reports one (flow scale, refine radius) configuration.
type ParamAblationRow struct {
	FlowScale  int
	RefineR    int
	ErrorPct   float64
	NonKeyMops float64 // total non-key cost at the experiment resolution
}

// ExperimentISMParamAblation sweeps ISM's two cost knobs: the resolution at
// which flow is computed and the guided-search radius, exposing the
// accuracy/arithmetic trade-off behind the defaults (scale 2, ±3).
func ExperimentISMParamAblation(sc ExpScale) []ParamAblationRow {
	cfgs := ablationConfigs(sc)
	var rows []ParamAblationRow
	for _, scale := range []int{1, 2, 4} {
		for _, rr := range []int{1, 3, 5} {
			pcfg := core.DefaultConfig()
			pcfg.PW = 4
			pcfg.FlowScale = scale
			pcfg.RefineR = rr
			errPct, _ := runISMWith(cfgs, pcfg, sc.Seed)
			rows = append(rows, ParamAblationRow{
				FlowScale:  scale,
				RefineR:    rr,
				ErrorPct:   errPct,
				NonKeyMops: float64(core.New(nil, pcfg).NonKeyMACs(sc.W, sc.H)) / 1e6,
			})
		}
	}
	return rows
}

// KeyPolicyRow reports one key-frame scheduling policy.
type KeyPolicyRow struct {
	Policy   string
	ErrorPct float64
	KeyRate  float64 // fraction of frames that ran the key matcher
}

// ExperimentKeyPolicyAblation compares static propagation windows against
// the adaptive motion-triggered controller (the extension the paper's
// Sec. 5.2 leaves open) on sequences with varying motion.
func ExperimentKeyPolicyAblation(sc ExpScale) []KeyPolicyRow {
	// Mix calm and fast sequences so key-frame *placement* matters, not
	// just the key-frame budget.
	cfgs := append(ablationConfigs(sc)[:2:2], fastMotionConfigs(sc)...)
	run := func(name string, pcfg core.Config) KeyPolicyRow {
		errPct, keyRate := runISMWith(cfgs, pcfg, sc.Seed)
		return KeyPolicyRow{Policy: name, ErrorPct: errPct, KeyRate: keyRate}
	}

	var rows []KeyPolicyRow
	for _, pw := range []int{2, 4, 6} {
		pcfg := core.DefaultConfig()
		pcfg.PW = pw
		rows = append(rows, run("static PW-"+string(rune('0'+pw)), pcfg))
	}
	pcfg := core.DefaultConfig()
	pcfg.Adaptive = &core.AdaptiveConfig{MaxWindow: 6, MotionThresholdPx: 1.5}
	rows = append(rows, run("adaptive", pcfg))
	return rows
}

// ReuseOrderRow reports one network under each forced reuse order.
type ReuseOrderRow struct {
	Net      string
	AutoMs   float64 // optimizer chooses β per layer (the paper's setting)
	IfmapMs  float64 // β forced to ifmap-stationary everywhere
	WeightMs float64 // β forced to weight-stationary everywhere
}

// ExperimentReuseOrderAblation isolates Equ. 7's reuse-order variable β:
// letting the optimizer choose per layer versus forcing one order for the
// whole network (transformed layers, ILAR scheduling).
func ExperimentReuseOrderAblation() []ReuseOrderRow {
	cfg := DefaultHW()
	var rows []ReuseOrderRow
	for _, n := range StereoDNNs(QHDH, QHDW) {
		run := func(order schedule.Order) float64 {
			var cycles int64
			for _, spec := range schedule.NetworkSpecs(n, true) {
				cycles += schedule.Evaluate(spec, cfg, schedule.Options{ILAR: true, Order: order}).Cycles
			}
			return float64(cycles) / cfg.FreqHz * 1e3
		}
		rows = append(rows, ReuseOrderRow{
			Net:      n.Name,
			AutoMs:   run(schedule.OrderAuto),
			IfmapMs:  run(schedule.OrderIfmapStationary),
			WeightMs: run(schedule.OrderWeightStationary),
		})
	}
	return rows
}
