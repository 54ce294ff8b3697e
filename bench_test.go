package asv

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`); cmd/asvbench renders the
// same experiments as tables. Headline values are attached to each
// benchmark via ReportMetric so `-bench` output doubles as a results sheet.
//
// The second half of the file benchmarks the functional kernels themselves
// (stereo matching, optical flow, the deconvolution transformation and the
// scheduler), which is what a user adopting the library will care about.

import (
	"testing"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/deconv"
	"asv/internal/flow"
	"asv/internal/hw"
	"asv/internal/imgproc"
	"asv/internal/nn"
	"asv/internal/schedule"
	"asv/internal/stereo"
	"asv/internal/tensor"
)

// ----------------------------------------------------------- experiments

func BenchmarkFig1_Frontier(b *testing.B) {
	var asvFPS float64
	for i := 0; i < b.N; i++ {
		pts := ExperimentFig1(QuickScale())
		for _, p := range pts {
			if p.Class == "asv" {
				asvFPS = p.FPS
			}
		}
	}
	b.ReportMetric(asvFPS, "asv-fps")
}

func BenchmarkFig3_OpDistribution(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows := ExperimentFig3()
		avg = 0
		for _, r := range rows {
			avg += r.DeconvPct
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(avg, "deconv-share-%")
}

func BenchmarkFig4_DepthSensitivity(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		for _, p := range ExperimentFig4() {
			if p.DepthErrM > worst {
				worst = p.DepthErrM
			}
		}
	}
	b.ReportMetric(worst, "max-depth-err-m")
}

func BenchmarkFig9_Accuracy(b *testing.B) {
	var pw4Gap float64
	for i := 0; i < b.N; i++ {
		rows := ExperimentFig9(QuickScale())
		byKey := map[string]float64{}
		for _, r := range rows {
			byKey[r.Dataset+r.Net+r.Mode] = r.ErrorPct
		}
		pw4Gap = 0
		for _, net := range []string{"FlowNetC", "DispNet", "GC-Net", "PSMNet"} {
			pw4Gap += byKey["SceneFlow"+net+"PW-4"] - byKey["SceneFlow"+net+"DNN"]
		}
		pw4Gap /= 4
	}
	b.ReportMetric(pw4Gap, "pw4-accuracy-gap-%")
}

func BenchmarkFig10_SpeedupEnergy(b *testing.B) {
	var sp, en float64
	for i := 0; i < b.N; i++ {
		sp, en = 0, 0
		for _, r := range ExperimentFig10() {
			if r.Variant == "DCO+ISM" {
				sp += r.Speedup
				en += r.EnergyRedPct
			}
		}
		sp /= 4
		en /= 4
	}
	b.ReportMetric(sp, "speedup-x")
	b.ReportMetric(en, "energy-red-%")
}

func BenchmarkFig11_DeconvOpt(b *testing.B) {
	var dct2d float64
	for i := 0; i < b.N; i++ {
		for _, r := range ExperimentFig11() {
			if r.Net == "DispNet" && r.Opt == "DCT" {
				dct2d = r.DeconvSpeedup
			}
		}
	}
	b.ReportMetric(dct2d, "dct-deconv-speedup-x")
}

func BenchmarkFig12_Sensitivity(b *testing.B) {
	var mn, mx float64
	for i := 0; i < b.N; i++ {
		g := ExperimentFig12()
		mn, mx = 99, 0
		for _, row := range g.Speedup {
			for _, s := range row {
				if s < mn {
					mn = s
				}
				if s > mx {
					mx = s
				}
			}
		}
	}
	b.ReportMetric(mn, "min-speedup-x")
	b.ReportMetric(mx, "max-speedup-x")
}

func BenchmarkFig13_Baselines(b *testing.B) {
	var both float64
	for i := 0; i < b.N; i++ {
		for _, r := range ExperimentFig13() {
			if r.System == "ASV-DCO+ISM" {
				both = r.Speedup
			}
		}
	}
	b.ReportMetric(both, "vs-eyeriss-x")
}

func BenchmarkFig14_GAN(b *testing.B) {
	var asvSp, gxSp float64
	for i := 0; i < b.N; i++ {
		asvSp, gxSp = 0, 0
		for _, r := range ExperimentFig14() {
			asvSp += r.ASVSpeedup
			gxSp += r.GANNXSpeedup
		}
		asvSp /= 6
		gxSp /= 6
	}
	b.ReportMetric(asvSp, "asv-x")
	b.ReportMetric(gxSp, "gannx-x")
}

func BenchmarkSec71_Overhead(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		area = ExperimentSec71().TotalAreaPct
	}
	b.ReportMetric(area, "area-overhead-%")
}

func BenchmarkSec33_NonKeyOps(b *testing.B) {
	var mops float64
	for i := 0; i < b.N; i++ {
		mops = float64(ExperimentSec33().NonKeyMACs) / 1e6
	}
	b.ReportMetric(mops, "nonkey-mops")
}

// --------------------------------------------------------------- kernels

func benchFrame(b *testing.B, w, h int) dataset.FramePair {
	b.Helper()
	seq := dataset.Generate(dataset.SceneConfig{
		W: w, H: h, FrameCount: 2, Layers: 2,
		MinDisp: 2, MaxDisp: 16, MaxVel: 1, Seed: 77,
	})
	return seq.Frames[0]
}

func BenchmarkKernelSGM(b *testing.B) {
	fr := benchFrame(b, 160, 96)
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stereo.SGM(fr.Left, fr.Right, opt)
	}
}

func BenchmarkKernelBlockMatch(b *testing.B) {
	fr := benchFrame(b, 160, 96)
	opt := stereo.DefaultBMOptions()
	opt.MaxDisp = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stereo.Match(fr.Left, fr.Right, opt)
	}
}

func BenchmarkKernelGuidedRefine(b *testing.B) {
	fr := benchFrame(b, 160, 96)
	init := fr.GT.Clone()
	opt := stereo.DefaultBMOptions()
	opt.BlockR = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stereo.Refine(fr.Left, fr.Right, init, 3, opt)
	}
}

func BenchmarkKernelFarneback(b *testing.B) {
	seq := dataset.Generate(dataset.SceneConfig{
		W: 160, H: 96, FrameCount: 2, Layers: 2,
		MinDisp: 2, MaxDisp: 16, MaxVel: 1.5, Seed: 78,
	})
	opt := flow.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.Farneback(seq.Frames[0].Left, seq.Frames[1].Left, opt)
	}
}

func BenchmarkKernelGaussianBlur(b *testing.B) {
	im := imgproc.NewImage(320, 180)
	k := imgproc.GaussianKernel1D(1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imgproc.SeparableFilter(im, k, k)
	}
}

func BenchmarkKernelDeconvReference(b *testing.B) {
	in := tensor.Rand(1, 16, 24, 24)
	w := tensor.Rand(2, 16, 16, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Deconv2D(in, w, 2, 2)
	}
}

func BenchmarkKernelDeconvTransformed(b *testing.B) {
	in := tensor.Rand(1, 16, 24, 24)
	w := tensor.Rand(2, 16, 16, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deconv.Transformed2D(in, w, 2)
	}
}

func BenchmarkKernelISMNonKeyFrame(b *testing.B) {
	seq := dataset.Generate(dataset.SceneConfig{
		W: 160, H: 96, FrameCount: 8, Layers: 2,
		MinDisp: 2, MaxDisp: 16, MaxVel: 1, Seed: 79,
	})
	cfg := core.DefaultConfig()
	cfg.PW = 1 << 30 // never re-key during the benchmark
	m := core.SGMMatcher{Opt: stereo.DefaultSGMOptions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pipe := core.New(m, cfg)
		pipe.ProcessKey(seq.Frames[0].Left, seq.Frames[0].Right, seq.Frames[0].GT, 0)
		b.StartTimer()
		for _, fr := range seq.Frames[1:] {
			fl, fr2 := pipe.EstimateMotion(fr.Left, fr.Right)
			pipe.ProcessNonKeyWith(fr.Left, fr.Right, fl, fr2)
		}
	}
}

// ---------------------------------------------------- ISM stream

// BenchmarkPipelineSerial runs a 12-frame 160×96 stereo video at PW-4
// through the stateful core pipeline, frames strictly one at a time.
func BenchmarkPipelineSerial(b *testing.B) {
	seq := dataset.Generate(dataset.SceneConfig{
		W: 160, H: 96, FrameCount: 12, Layers: 3,
		MinDisp: 2, MaxDisp: 18, MaxVel: 1.5, MaxDispVel: 0.3,
		Ground: true, Noise: 0.01, Seed: 81,
	})
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 24
	matcher, cfg := core.SGMMatcher{Opt: opt}, core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.New(matcher, cfg)
		for _, fr := range seq.Frames {
			p.Process(fr.Left, fr.Right)
		}
	}
	b.ReportMetric(float64(len(seq.Frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkSchedulerOptimizeLayer(b *testing.B) {
	l := nn.Layer{Name: "deconv", Kind: nn.KindDeconv, InC: 256, InD: 1,
		InH: 68, InW: 120, OutC: 256, KD: 1, KH: 4, KW: 4, Stride: 2, Pad: 2}
	spec := schedule.TransformedSpec(l)
	cfg := hw.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schedule.Evaluate(spec, cfg, schedule.Options{ILAR: true})
	}
}

func BenchmarkSchedulerWholeNetwork(b *testing.B) {
	n := nn.FlowNetC(nn.QHDH, nn.QHDW)
	acc := DefaultAccelerator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.RunNetwork(n, RunOptions{Policy: PolicyILAR})
	}
}

func BenchmarkSchedulerStaticPartitionSearch(b *testing.B) {
	specs := schedule.NetworkSpecs(nn.DispNet(nn.QHDH, nn.QHDW), false)
	cfg := hw.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schedule.BestStaticPartition(specs, cfg)
	}
}

func BenchmarkDatasetGenerate(b *testing.B) {
	cfg := dataset.SceneConfig{
		W: 160, H: 96, FrameCount: 2, Layers: 3,
		MinDisp: 2, MaxDisp: 20, MaxVel: 1.5, Ground: true, Seed: 80,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed++
		dataset.Generate(cfg)
	}
}

func BenchmarkAblationME(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows := ExperimentMEAblation(QuickScale())
		by := map[string]float64{}
		for _, r := range rows {
			by[r.ME] = r.ErrorPct
		}
		gap = by["zero"] - by["farneback/2"]
	}
	b.ReportMetric(gap, "zero-vs-farneback-err-%")
}

func BenchmarkAblationParams(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows := ExperimentISMParamAblation(QuickScale())
		lo, hi := 1e18, 0.0
		for _, r := range rows {
			if r.NonKeyMops < lo {
				lo = r.NonKeyMops
			}
			if r.NonKeyMops > hi {
				hi = r.NonKeyMops
			}
		}
		spread = hi / lo
	}
	b.ReportMetric(spread, "cost-spread-x")
}

func BenchmarkAblationKeyPolicy(b *testing.B) {
	var adaptiveRate float64
	for i := 0; i < b.N; i++ {
		for _, r := range ExperimentKeyPolicyAblation(QuickScale()) {
			if r.Policy == "adaptive" {
				adaptiveRate = r.KeyRate
			}
		}
	}
	b.ReportMetric(adaptiveRate, "adaptive-key-rate")
}
