package asv

import (
	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/nn"
	"asv/internal/stereo"
)

// ExpScale controls how much data the accuracy experiments process. The
// paper's datasets are real-image benchmarks; the reproduction generates
// synthetic equivalents whose volume is configurable so the full suite can
// run on a laptop (see DESIGN.md, substitutions).
type ExpScale struct {
	W, H            int // frame size
	SceneFlowSeqs   int // number of SceneFlow-like sequences (paper: 26)
	SceneFlowFrames int // frames per sequence (>= 4 for PW-4)
	KITTIPairs      int // number of KITTI-like two-frame pairs (paper: 200)
	Seed            int64
}

// FullScale runs the complete synthetic benchmark (all 26 SceneFlow-like
// sequences and 200 KITTI-like pairs).
func FullScale() ExpScale {
	return ExpScale{W: 160, H: 96, SceneFlowSeqs: 26, SceneFlowFrames: 8, KITTIPairs: 200, Seed: 1}
}

// QuickScale is a reduced configuration for tests and smoke runs.
func QuickScale() ExpScale {
	return ExpScale{W: 128, H: 80, SceneFlowSeqs: 4, SceneFlowFrames: 4, KITTIPairs: 8, Seed: 1}
}

// DNNProfile describes one of the paper's stereo DNNs for the oracle-based
// accuracy experiments: its published three-pixel error rate and its
// inference cost density.
type DNNProfile struct {
	Name       string
	ErrRatePct float64 // published KITTI-class three-pixel error rate
	Net        *nn.Network
}

// StereoDNNProfiles returns the four evaluation networks with their
// published error rates (KITTI 2015 leaderboard era: PSMNet 2.3%,
// GC-Net 2.9%, DispNet 4.3%, FlowNetC-style correlation nets ~5.6%).
func StereoDNNProfiles(h, w int) []DNNProfile {
	zoo := nn.StereoZoo(h, w)
	errs := map[string]float64{
		"FlowNetC": 5.6,
		"DispNet":  4.3,
		"GC-Net":   2.9,
		"PSMNet":   2.3,
	}
	out := make([]DNNProfile, len(zoo))
	for i, n := range zoo {
		out[i] = DNNProfile{Name: n.Name, ErrRatePct: errs[n.Name], Net: n}
	}
	return out
}

// sceneFlowConfigs and kittiConfigs trim the preset lists to the scale.
func sceneFlowConfigs(sc ExpScale) []dataset.SceneConfig {
	cfgs := dataset.SceneFlowLike(sc.W, sc.H, sc.SceneFlowFrames, sc.Seed)
	if sc.SceneFlowSeqs < len(cfgs) {
		cfgs = cfgs[:sc.SceneFlowSeqs]
	}
	return cfgs
}

func kittiConfigs(sc ExpScale) []dataset.SceneConfig {
	return dataset.KITTILike(sc.W, sc.H, sc.KITTIPairs, sc.Seed+7777)
}

// runAccuracy evaluates one (DNN, propagation window) point: it streams
// every sequence through an ISM pipeline whose key frames come from a
// ground-truth oracle corrupted to the DNN's published error rate, and
// returns the mean three-pixel error over all frames (key and non-key),
// matching the paper's Fig. 9 protocol. pw=1 measures the DNN alone.
func runAccuracy(cfgs []dataset.SceneConfig, prof DNNProfile, pw int, seed int64) float64 {
	pcfg := core.DefaultConfig()
	pcfg.PW = pw
	oracle := core.OracleMatcher{ModelName: prof.Name, ErrRatePct: prof.ErrRatePct, SubpixelSigma: 0.3, Seed: seed}
	errPct, _ := runOracleISM(cfgs, pcfg, oracle, 131)
	return errPct
}

// runOracleISM streams each scene through its own ISM pipeline, configured
// by pcfg, whose key matcher is a copy of oracle seeded oracle.Seed +
// i·seedStride for the i-th scene. It returns the mean three-pixel error
// over all frames, key and non-key, and the fraction of frames that ran the
// key matcher. Every frame hands the oracle its ground truth; only a key
// frame's Match consumes it.
func runOracleISM(cfgs []dataset.SceneConfig, pcfg core.Config, oracle core.OracleMatcher, seedStride int64) (errPct, keyRate float64) {
	var errSum float64
	var frames, keys int
	for i, cfg := range cfgs {
		seq := dataset.Generate(cfg)
		o := oracle
		o.Seed += int64(i) * seedStride
		pipe := core.New(&o, pcfg)
		for _, fr := range seq.Frames {
			o.SetGT(fr.GT)
			res := pipe.Process(fr.Left, fr.Right)
			errSum += stereo.ThreePixelError(res.Disparity, fr.GT)
			if res.IsKey {
				keys++
			}
			frames++
		}
	}
	if frames == 0 {
		return 0, 0
	}
	return errSum / float64(frames), float64(keys) / float64(frames)
}
