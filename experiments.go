package asv

import (
	"fmt"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/stereo"
)

// This file regenerates every table and figure of the paper's evaluation.
// Each ExperimentFigN function returns structured rows; cmd/asvbench and
// the benchmark harness render them. EXPERIMENTS.md records paper-vs-
// measured values for each. All accelerator models are reached by name
// through the fixed backend list (see simulate.go); no experiment imports a
// concrete model package.

// defaultNonKey returns the ISM non-key cost at qHD on the default
// pipeline configuration.
func defaultNonKey() NonKeyCost { return DefaultNonKeyCost() }

// ---------------------------------------------------------------- Fig. 1

// FrontierPoint is one system on the accuracy/performance frontier.
type FrontierPoint struct {
	Name     string
	Class    string // "classic", "dnn-gpu", "dnn-acc", "asv"
	ErrorPct float64
	FPS      float64
}

// ExperimentFig1 reproduces the frame-rate versus error-rate frontier:
// classic algorithms (measured on the synthetic KITTI-like set, costed on
// the accelerator), the four stereo DNNs on the mobile GPU and on the
// baseline accelerator, and the full ASV system.
func ExperimentFig1(sc ExpScale) []FrontierPoint {
	acc := DefaultAccelerator()
	tx2 := JetsonTX2()
	cfg := hw.Default()
	util := float64(cfg.PEs()) * cfg.FreqHz * 0.75

	var pts []FrontierPoint

	// Classic algorithms: measure accuracy on a KITTI-like subset and cost
	// their MACs on the accelerator (they map to convolution/SAD).
	cfgs := kittiConfigs(sc)
	if len(cfgs) > 8 {
		cfgs = cfgs[:8]
	}
	type classic struct {
		name  string
		match func(l, r *Image) *Image
		macs  int64
	}
	bmOpt := stereo.DefaultBMOptions()
	bmOpt.MaxDisp = 32
	sgm4 := stereo.DefaultSGMOptions()
	sgm4.Paths = 4
	sgm4.MaxDisp = 32
	sgm8 := stereo.DefaultSGMOptions()
	sgm8.MaxDisp = 32
	cvf := stereo.DefaultCVFOptions()
	cvf.MaxDisp = 32
	algos := []classic{
		{"BM (GCSF-class)", func(l, r *Image) *Image { return stereo.Match(l, r, bmOpt) },
			stereo.MatchMACs(nn.QHDW, nn.QHDH, bmOpt)},
		{"SGM-4 (SGBN-class)", func(l, r *Image) *Image { return stereo.SGM(l, r, sgm4) },
			stereo.SGMMACs(nn.QHDW, nn.QHDH, sgm4)},
		{"SGM-8 (HH-class)", func(l, r *Image) *Image { return stereo.SGM(l, r, sgm8) },
			stereo.SGMMACs(nn.QHDW, nn.QHDH, sgm8)},
		{"CVF (ELAS-class)", func(l, r *Image) *Image { return stereo.CostVolumeFilter(l, r, cvf) },
			stereo.CVFMACs(nn.QHDW, nn.QHDH, cvf)},
	}
	for _, a := range algos {
		var errSum float64
		var n int
		for _, cfg := range cfgs {
			fr := dataset.Generate(cfg).Frames[0]
			errSum += stereo.ThreePixelError(a.match(fr.Left, fr.Right), fr.GT)
			n++
		}
		pts = append(pts, FrontierPoint{
			Name: a.name, Class: "classic",
			ErrorPct: errSum / float64(n),
			FPS:      util / float64(a.macs),
		})
	}

	// Stereo DNNs on GPU and on the baseline accelerator.
	for _, prof := range StereoDNNProfiles(nn.QHDH, nn.QHDW) {
		g := tx2.RunNetwork(prof.Net, RunOptions{})
		pts = append(pts, FrontierPoint{
			Name: prof.Name + "-GPU", Class: "dnn-gpu",
			ErrorPct: prof.ErrRatePct, FPS: g.FPS(),
		})
		b := acc.RunNetwork(prof.Net, RunOptions{Policy: PolicyBaseline})
		pts = append(pts, FrontierPoint{
			Name: prof.Name + "-Acc", Class: "dnn-acc",
			ErrorPct: prof.ErrRatePct, FPS: b.FPS(),
		})
	}

	// ASV: DispNet-class oracle, PW-4, full DCO. Accuracy measured with the
	// Fig. 9 machinery; performance from the system model.
	profiles := StereoDNNProfiles(nn.QHDH, nn.QHDW)
	dispNet := profiles[1]
	asvErr := runAccuracy(sceneFlowConfigs(sc), dispNet, 4, sc.Seed)
	asvRep := acc.RunNetwork(dispNet.Net, RunOptions{Policy: PolicyILAR, PW: 4, NonKey: defaultNonKey()})
	pts = append(pts, FrontierPoint{
		Name: "ASV", Class: "asv",
		ErrorPct: asvErr, FPS: asvRep.FPS(),
	})
	return pts
}

// ---------------------------------------------------------------- Fig. 3

// StageRow is the per-stage cost split of one stereo DNN.
type StageRow struct {
	Net                 string
	FEPct, MOPct, DRPct float64
	DeconvPct           float64 // deconvolution share of total MACs
}

// ExperimentFig3 reproduces the arithmetic-operation distribution across
// the FE/MO/DR stages (paper: deconvolution averages 38.2% of MACs).
func ExperimentFig3() []StageRow {
	var rows []StageRow
	for _, n := range nn.StereoZoo(nn.QHDH, nn.QHDW) {
		st := n.MACsByStage()
		tot := float64(n.TotalMACs())
		rows = append(rows, StageRow{
			Net:       n.Name,
			FEPct:     100 * float64(st[nn.StageFE]) / tot,
			MOPct:     100 * float64(st[nn.StageMO]) / tot,
			DRPct:     100 * float64(st[nn.StageDR]) / tot,
			DeconvPct: 100 * n.DeconvShare(),
		})
	}
	return rows
}

// ---------------------------------------------------------------- Fig. 4

// DepthErrPoint is one point of the depth-sensitivity curve.
type DepthErrPoint struct {
	DepthM    float64
	DispErrPx float64
	DepthErrM float64
}

// ExperimentFig4 reproduces the depth-estimation sensitivity to disparity
// error for the Bumblebee2 camera at 10/15/30 m.
func ExperimentFig4() []DepthErrPoint {
	cam := stereo.Bumblebee2()
	var pts []DepthErrPoint
	for _, depth := range []float64{10, 15, 30} {
		for e := 0.0; e <= 0.201; e += 0.02 {
			pts = append(pts, DepthErrPoint{
				DepthM: depth, DispErrPx: e, DepthErrM: cam.DepthError(depth, e),
			})
		}
	}
	return pts
}

// ---------------------------------------------------------------- Fig. 9

// AccuracyRow is one bar of the ISM accuracy comparison.
type AccuracyRow struct {
	Dataset  string // "SceneFlow" or "KITTI"
	Net      string
	Mode     string // "DNN", "PW-2", "PW-4"
	ErrorPct float64
}

// ExperimentFig9 reproduces the accuracy comparison between the stereo
// DNNs and ISM at PW-2/PW-4. KITTI sequences have only two frames, so only
// PW-2 applies there (as in the paper).
func ExperimentFig9(sc ExpScale) []AccuracyRow {
	var rows []AccuracyRow
	profiles := StereoDNNProfiles(sc.H, sc.W)
	sf := sceneFlowConfigs(sc)
	kt := kittiConfigs(sc)
	for _, prof := range profiles {
		rows = append(rows,
			AccuracyRow{"SceneFlow", prof.Name, "DNN", runAccuracy(sf, prof, 1, sc.Seed)},
			AccuracyRow{"SceneFlow", prof.Name, "PW-2", runAccuracy(sf, prof, 2, sc.Seed)},
			AccuracyRow{"SceneFlow", prof.Name, "PW-4", runAccuracy(sf, prof, 4, sc.Seed)},
			AccuracyRow{"KITTI", prof.Name, "DNN", runAccuracy(kt, prof, 1, sc.Seed)},
			AccuracyRow{"KITTI", prof.Name, "PW-2", runAccuracy(kt, prof, 2, sc.Seed)},
		)
	}
	return rows
}

// --------------------------------------------------------------- Fig. 10

// SpeedupRow is one (network, variant) bar of a speedup/energy chart.
type SpeedupRow struct {
	Net          string
	Variant      string
	Speedup      float64
	EnergyRedPct float64
}

// ExperimentFig10 reproduces the whole-system ablation: ISM alone, the
// deconvolution optimizations (DCO) alone, and both, against the baseline
// accelerator (paper: 4.9x speedup, 85% energy saving combined, PW-4).
func ExperimentFig10() []SpeedupRow {
	acc := DefaultAccelerator()
	nk := defaultNonKey()
	var rows []SpeedupRow
	for _, n := range nn.StereoZoo(nn.QHDH, nn.QHDW) {
		base := acc.RunNetwork(n, RunOptions{Policy: PolicyBaseline})
		dco := acc.RunNetwork(n, RunOptions{Policy: PolicyILAR})
		ism := acc.RunNetwork(n, RunOptions{Policy: PolicyBaseline, PW: 4, NonKey: nk})
		both := acc.RunNetwork(n, RunOptions{Policy: PolicyILAR, PW: 4, NonKey: nk})
		add := func(v string, r Report) {
			rows = append(rows, SpeedupRow{
				Net: n.Name, Variant: v,
				Speedup:      base.Seconds / r.Seconds,
				EnergyRedPct: 100 * (1 - r.EnergyJ/base.EnergyJ),
			})
		}
		add("DCO", dco)
		add("ISM", ism)
		add("DCO+ISM", both)
	}
	return rows
}

// --------------------------------------------------------------- Fig. 11

// DeconvOptRow is one (network, optimization) entry of the deconvolution
// ablation, covering both the deconv-layer-only and whole-network scopes.
type DeconvOptRow struct {
	Net                string
	Opt                string // "DCT", "ConvR", "ILAR"
	DeconvSpeedup      float64
	DeconvEnergyRedPct float64
	NetSpeedup         float64
	NetEnergyRedPct    float64
}

// ExperimentFig11 reproduces the deconvolution-optimization ablation:
// transformation only (DCT), plus conventional reuse (ConvR), plus
// inter-layer activation reuse (ILAR).
func ExperimentFig11() []DeconvOptRow {
	acc := DefaultAccelerator()
	var rows []DeconvOptRow
	for _, n := range nn.StereoZoo(nn.QHDH, nn.QHDW) {
		base := acc.RunNetwork(n, RunOptions{Policy: PolicyBaseline})
		for _, p := range []Policy{PolicyDCT, PolicyConvR, PolicyILAR} {
			r := acc.RunNetwork(n, RunOptions{Policy: p})
			name := map[Policy]string{
				PolicyDCT: "DCT", PolicyConvR: "ConvR", PolicyILAR: "ILAR",
			}[p]
			rows = append(rows, DeconvOptRow{
				Net: n.Name, Opt: name,
				DeconvSpeedup:      float64(base.DeconvCycles) / float64(r.DeconvCycles),
				DeconvEnergyRedPct: 100 * (1 - r.DeconvEnergyJ/base.DeconvEnergyJ),
				NetSpeedup:         float64(base.Cycles) / float64(r.Cycles),
				NetEnergyRedPct:    100 * (1 - r.EnergyJ/base.EnergyJ),
			})
		}
	}
	return rows
}

// --------------------------------------------------------------- Fig. 12

// SensitivityGrid is the DCO speedup/energy sensitivity over hardware
// configurations; cell [i][j] corresponds to Bufs[i] and PEs[j], each
// normalized to the *same* configuration's baseline (as in the paper).
type SensitivityGrid struct {
	PEs       []int     // array edge lengths (8..56)
	BufsMB    []float64 // buffer sizes in MB (0.5..3.0)
	Speedup   [][]float64
	EnergyRed [][]float64 // fractional (0.31 = 31%)
}

// ExperimentFig12 reproduces the FlowNetC sensitivity study.
func ExperimentFig12() SensitivityGrid {
	n := nn.FlowNetC(nn.QHDH, nn.QHDW)
	grid := SensitivityGrid{
		PEs:    []int{8, 16, 24, 32, 40, 48, 56},
		BufsMB: []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0},
	}
	for _, mb := range grid.BufsMB {
		var spRow, enRow []float64
		for _, pe := range grid.PEs {
			cfg := hw.Default()
			cfg.PEsX, cfg.PEsY = pe, pe
			cfg.BufBytes = int64(mb * 1024 * 1024)
			acc := NewAccelerator(cfg, hw.DefaultEnergy())
			base := acc.RunNetwork(n, RunOptions{Policy: PolicyBaseline})
			dco := acc.RunNetwork(n, RunOptions{Policy: PolicyILAR})
			spRow = append(spRow, float64(base.Cycles)/float64(dco.Cycles))
			enRow = append(enRow, 1-dco.EnergyJ/base.EnergyJ)
		}
		grid.Speedup = append(grid.Speedup, spRow)
		grid.EnergyRed = append(grid.EnergyRed, enRow)
	}
	return grid
}

// --------------------------------------------------------------- Fig. 13

// BaselineRow compares one system against the Eyeriss reference.
type BaselineRow struct {
	System     string
	Speedup    float64 // vs Eyeriss (higher is better)
	NormEnergy float64 // vs Eyeriss (lower is better)
}

// ExperimentFig13 reproduces the Eyeriss/GPU comparison, averaged over the
// four stereo DNNs and normalized to plain Eyeriss.
func ExperimentFig13() []BaselineRow {
	acc := DefaultAccelerator()
	eye := DefaultEyeriss()
	tx2 := JetsonTX2()
	nk := defaultNonKey()

	sums := map[string][2]float64{}
	add := func(name string, sp, en float64) {
		v := sums[name]
		sums[name] = [2]float64{v[0] + sp, v[1] + en}
	}
	for _, n := range nn.StereoZoo(nn.QHDH, nn.QHDW) {
		ref := eye.RunNetwork(n, RunOptions{Policy: PolicyBaseline})
		rate := func(r Report) (float64, float64) {
			return ref.Seconds / r.Seconds, r.EnergyJ / ref.EnergyJ
		}
		sp, en := rate(acc.RunNetwork(n, RunOptions{Policy: PolicyILAR}))
		add("ASV-DCO", sp, en)
		sp, en = rate(acc.RunNetwork(n, RunOptions{Policy: PolicyBaseline, PW: 4, NonKey: nk}))
		add("ASV-ISM", sp, en)
		sp, en = rate(acc.RunNetwork(n, RunOptions{Policy: PolicyILAR, PW: 4, NonKey: nk}))
		add("ASV-DCO+ISM", sp, en)
		sp, en = rate(eye.RunNetwork(n, RunOptions{Policy: PolicyDCT}))
		add("Eyeriss+DCT", sp, en)
		sp, en = rate(tx2.RunNetwork(n, RunOptions{}))
		add("GPU", sp, en)
	}
	order := []string{"ASV-DCO", "ASV-ISM", "ASV-DCO+ISM", "Eyeriss+DCT", "GPU"}
	rows := make([]BaselineRow, 0, len(order)+1)
	rows = append(rows, BaselineRow{System: "Eyeriss", Speedup: 1, NormEnergy: 1})
	for _, name := range order {
		v := sums[name]
		rows = append(rows, BaselineRow{System: name, Speedup: v[0] / 4, NormEnergy: v[1] / 4})
	}
	return rows
}

// --------------------------------------------------------------- Fig. 14

// GANRow compares ASV and GANNX on one generator, normalized to Eyeriss.
type GANRow struct {
	GAN            string
	ASVSpeedup     float64
	ASVEnergyRed   float64 // x-fold energy reduction vs Eyeriss
	GANNXSpeedup   float64
	GANNXEnergyRed float64
}

// ExperimentFig14 reproduces the GAN generality study (paper: ASV 5.0x /
// 4.2x vs GANNX 3.6x / 3.2x, both over Eyeriss).
func ExperimentFig14() []GANRow {
	acc := DefaultAccelerator()
	eye := DefaultEyeriss()
	gx := DefaultGANNX()
	var rows []GANRow
	for _, n := range nn.GANZoo() {
		ref := eye.RunNetwork(n, RunOptions{Policy: PolicyBaseline})
		a := acc.RunNetwork(n, RunOptions{Policy: PolicyILAR})
		g := gx.RunNetwork(n, RunOptions{})
		rows = append(rows, GANRow{
			GAN:            n.Name,
			ASVSpeedup:     ref.Seconds / a.Seconds,
			ASVEnergyRed:   ref.EnergyJ / a.EnergyJ,
			GANNXSpeedup:   ref.Seconds / g.Seconds,
			GANNXEnergyRed: ref.EnergyJ / g.EnergyJ,
		})
	}
	return rows
}

// ------------------------------------------------------------- Backends

// BackendRow is one (backend, workload, policy) cell of the cross-model
// cost sweep: every accelerator model run over the stereo and
// GAN zoos under each policy its capabilities allow, plus — for
// ISM-capable backends — the averaged PW-4 system point.
type BackendRow struct {
	Backend  string  `json:"backend"`
	Net      string  `json:"net"`
	Policy   string  `json:"policy"` // policy name; "+ism-pw4" suffix for the system point
	FPS      float64 `json:"fps"`
	EnergyMJ float64 `json:"energy_mj"` // per-frame energy in millijoules
	GMACs    float64 `json:"gmacs"`     // per-frame effective MACs, in billions
	DRAMMB   float64 `json:"dram_mib"`  // per-frame off-chip traffic, in MiB
}

// ExperimentBackends sweeps every backend — the cross-model
// comparison Figs. 13 and 14 sample, as one table. Rows are emitted in
// deterministic order: backends sorted by name, networks in zoo order,
// policies in capability order.
func ExperimentBackends() []BackendRow {
	return ExperimentBackendsFor(BackendNames()...)
}

// ExperimentBackendsFor restricts the sweep to the named backends (asvbench
// -backend). Unknown names are skipped; callers validate with
// BackendByName first for a helpful error.
func ExperimentBackendsFor(names ...string) []BackendRow {
	nk := defaultNonKey()
	var rows []BackendRow
	nets := append(nn.StereoZoo(nn.QHDH, nn.QHDW), nn.GANZoo()...)
	stereoSet := make(map[string]bool)
	for _, n := range nn.StereoZoo(nn.QHDH, nn.QHDW) {
		stereoSet[n.Name] = true
	}
	for _, name := range names {
		b, err := BackendByName(name)
		if err != nil {
			continue
		}
		d := b.Describe()
		for _, n := range nets {
			for _, p := range d.Caps.Policies {
				r, err := RunOnBackend(b, n, RunOptions{Policy: p})
				if err != nil {
					panic(err) // policy came from the capability set
				}
				rows = append(rows, backendRow(d.Name, n.Name, p.String(), r))
			}
			// The full-system point: best policy + ISM PW-4. Only meaningful
			// for the stereo networks ISM serves.
			if d.Caps.ISM && stereoSet[n.Name] {
				best := d.Caps.Policies[len(d.Caps.Policies)-1]
				r, err := RunOnBackend(b, n, RunOptions{Policy: best, PW: 4, NonKey: nk})
				if err != nil {
					panic(err)
				}
				rows = append(rows, backendRow(d.Name, n.Name, best.String()+"+ism-pw4", r))
			}
		}
	}
	return rows
}

func backendRow(be, net, pol string, r Report) BackendRow {
	return BackendRow{
		Backend:  be,
		Net:      net,
		Policy:   pol,
		FPS:      r.FPS(),
		EnergyMJ: r.EnergyJ * 1e3,
		GMACs:    float64(r.MACs) / 1e9,
		DRAMMB:   float64(r.DRAMBytes) / (1024 * 1024),
	}
}

// ------------------------------------------------------------- Sec. 7.1

// ExperimentSec71 reproduces the hardware-overhead accounting.
func ExperimentSec71() hw.Overhead {
	return hw.ComputeOverhead(hw.Default().PEs())
}

// ------------------------------------------------------------- Sec. 3.3

// NonKeyCostRow summarizes the non-key-frame cost claim of Sec. 3.3.
type NonKeyCostRow struct {
	NonKeyMACs int64              // ours at qHD (paper: ~87e6)
	DNNRatio   map[string]float64 // DNN MACs / non-key MACs (paper: 1e2–1e4)
}

// ExperimentSec33 computes the qHD non-key cost and its ratio to each
// stereo DNN's inference cost.
func ExperimentSec33() NonKeyCostRow {
	p := core.New(nil, core.DefaultConfig())
	nonKey := p.NonKeyMACs(nn.QHDW, nn.QHDH)
	row := NonKeyCostRow{NonKeyMACs: nonKey, DNNRatio: map[string]float64{}}
	for _, n := range nn.StereoZoo(nn.QHDH, nn.QHDW) {
		row.DNNRatio[n.Name] = float64(n.TotalMACs()) / float64(nonKey)
	}
	return row
}

// ExperimentIndex lists every experiment with the paper artifact it
// regenerates; cmd/asvbench uses it for -list.
func ExperimentIndex() []string {
	return []string{
		"fig1: accuracy/FPS frontier (classic, DNN-GPU, DNN-Acc, ASV)",
		"fig3: FE/MO/DR operation distribution of the stereo DNNs",
		"fig4: depth-error sensitivity to disparity error (Bumblebee2)",
		"fig9: ISM accuracy vs DNNs (SceneFlow-like, KITTI-like; PW-2/PW-4)",
		"fig10: ISM/DCO/combined speedup and energy vs baseline accelerator",
		"fig11: DCT/ConvR/ILAR ablation (deconv-only and whole-network)",
		"fig12: DCO sensitivity to PE-array and buffer size (FlowNetC)",
		"fig13: ASV vs Eyeriss vs mobile GPU",
		"fig14: GANs — ASV vs GANNX (normalized to Eyeriss)",
		"backends: every backend x network zoo x supported policy",
		"sec71: hardware overhead of the ISM extensions",
		"sec33: non-key frame cost vs DNN inference cost",
		"ablation-me: motion-estimation algorithm choice (Sec 3.3)",
		"ablation-param: flow-scale and guided-search-radius trade-off",
		"ablation-key: static propagation windows vs adaptive control",
		"ablation-order: reuse-order (Equ. 7 beta) forced vs optimizer-chosen",
	}
}

// renderFloat formats experiment values compactly for tables.
func renderFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
