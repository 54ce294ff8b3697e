package asv_test

// Golden regression corpus (ISSUE 4): committed checksums of the outputs
// that define the system's observable behavior — procedural dataset frames,
// stereo disparities, ISM pipeline results and accuracy metrics. Any change
// to these values fails CI until regenerated explicitly:
//
//	go test -run TestGolden -update .
//
// and the diff of testdata/golden_corpus.txt documents exactly which
// outputs moved. Drift here is either a bug or a deliberate algorithm
// change; silence is the point.

import (
	"fmt"
	"runtime"
	"testing"

	asv "asv"
	"asv/internal/dataset"
	"asv/internal/pipeline"
	"asv/internal/testkit"
)

// goldenStore opens the corpus. Checksums are over raw float32 bit
// patterns, which pins them to one FP contraction regime; CI and the
// reference environment are amd64, other architectures skip.
func goldenStore(t *testing.T) *testkit.Store {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float checksums are pinned on amd64; running on %s", runtime.GOARCH)
	}
	return testkit.OpenStore(t, "testdata/golden_corpus.txt")
}

// corpusScene is the small deterministic scene every corpus entry derives
// from (KITTI-like: ground plane + foreground layers, two frames).
func corpusScene() *dataset.Sequence {
	return dataset.Generate(dataset.KITTILike(96, 64, 1, 11)[0])
}

func TestGoldenDatasetPresets(t *testing.T) {
	s := goldenStore(t)

	kitti := corpusScene()
	f0 := kitti.Frames[0]
	s.Check(t, "kitti96.frame0.stereo", testkit.ChecksumImages(f0.Left, f0.Right))
	s.CheckImage(t, "kitti96.frame0.gt", f0.GT)
	s.Check(t, "kitti96.frame1.flow", testkit.ChecksumImages(kitti.Frames[1].FlowU, kitti.Frames[1].FlowV))

	sf := dataset.Generate(dataset.SceneFlowLike(96, 64, 4, 7)[0])
	g0 := sf.Frames[0]
	s.Check(t, "sceneflow96.frame0.stereo", testkit.ChecksumImages(g0.Left, g0.Right))
	s.CheckImage(t, "sceneflow96.frame0.gt", g0.GT)
}

func TestGoldenStereoMatchers(t *testing.T) {
	s := goldenStore(t)
	f0 := corpusScene().Frames[0]

	bmOpt := asv.DefaultBMOptions()
	bmOpt.MaxDisp = 32
	bm := asv.BlockMatch(f0.Left, f0.Right, bmOpt)
	s.CheckImage(t, "kitti96.blockmatch", bm)
	s.Check(t, "kitti96.blockmatch.d3", fmt.Sprintf("%.6f", asv.ThreePixelError(bm, f0.GT)))

	sgmOpt := asv.DefaultSGMOptions()
	sgmOpt.MaxDisp = 32
	sgm := asv.SGM(f0.Left, f0.Right, sgmOpt)
	s.CheckImage(t, "kitti96.sgm", sgm)
	s.Check(t, "kitti96.sgm.d3", fmt.Sprintf("%.6f", asv.ThreePixelError(sgm, f0.GT)))
}

// TestGoldenPerceptionCloud pins the 3D perception path bit-exactly:
// misalign the corpus frame through a known calibration, rectify it back,
// match, triangulate to metric depth, and reproject to a point cloud. The
// cloud checksum covers every point's raw float32 bit pattern, so any
// drift in rectification, matching or the pinhole reprojection surfaces
// here.
func TestGoldenPerceptionCloud(t *testing.T) {
	s := goldenStore(t)
	f0 := corpusScene().Frames[0]

	calib := asv.DefaultCalibration(96, 64)
	calib.LeftRPY = [3]float64{0.004, -0.003, 0.002}
	calib.RightRPY = [3]float64{-0.002, 0.005, -0.003}

	rawL := asv.MisalignImage(f0.Left, calib.Intrinsics(), calib.RotLeft())
	rawR := asv.MisalignImage(f0.Right, calib.Intrinsics(), calib.RotRight())
	recL, recR := calib.RectifyPair(rawL, rawR)

	sgmOpt := asv.DefaultSGMOptions()
	sgmOpt.MaxDisp = 32
	disp := asv.SGM(recL, recR, sgmOpt)

	depth := asv.DepthFromDisparity(disp, calib)
	s.CheckImage(t, "perception.kitti96.depth", depth)

	cloud := asv.ReprojectCloud(disp, recL, calib)
	flat := make([]float32, 0, 4*len(cloud.Points))
	for _, p := range cloud.Points {
		flat = append(flat, p.X, p.Y, p.Z, p.I)
	}
	s.Check(t, "perception.kitti96.cloud", testkit.Checksum(flat))
	s.Check(t, "perception.kitti96.cloud.points", fmt.Sprintf("%d", len(cloud.Points)))
	st := cloud.Stats()
	s.Check(t, "perception.kitti96.cloud.valid_frac", fmt.Sprintf("%.6f", st.ValidFrac))
	s.Check(t, "perception.kitti96.cloud.p50_z", fmt.Sprintf("%.6f", st.P50Z))
}

func TestGoldenISMPipeline(t *testing.T) {
	s := goldenStore(t)
	seq := dataset.Generate(dataset.SceneFlowLike(96, 64, 4, 7)[0])

	opt := asv.DefaultSGMOptions()
	opt.MaxDisp = 32
	cfg := asv.DefaultPipelineConfig()
	cfg.PW = 2

	frames := make([]pipeline.Frame, len(seq.Frames))
	for i, fr := range seq.Frames {
		frames[i] = pipeline.Frame{Left: fr.Left, Right: fr.Right}
	}
	results := pipeline.StreamFrames(asv.SGMKeyMatcher{Opt: opt}, cfg, frames, pipeline.Options{})

	var d3Sum float64
	for i, r := range results {
		s.CheckImage(t, fmt.Sprintf("ism.pw2.frame%d.disparity", i), r.Disparity)
		d3Sum += asv.ThreePixelError(r.Disparity, seq.Frames[i].GT)
	}
	s.Check(t, "ism.pw2.mean_d3", fmt.Sprintf("%.6f", d3Sum/float64(len(results))))
}

// TestGoldenFarnebackField pins the motion field itself — U and V of the
// corpus pair's left views — at full resolution and through the
// half-resolution estimator ISM uses. The ISM lines above only see the
// field after propagation and a ±3 refine have absorbed small drifts.
func TestGoldenFarnebackField(t *testing.T) {
	s := goldenStore(t)
	kitti := corpusScene()
	prev, next := kitti.Frames[0].Left, kitti.Frames[1].Left
	for _, scale := range []int{1, 2} {
		f := asv.FarnebackMotion{Opt: asv.DefaultFlowOptions(), Scale: scale}.Estimate(prev, next)
		s.Check(t, fmt.Sprintf("kitti96.farneback.scale%d.uv", scale), testkit.ChecksumImages(f.U, f.V))
	}
}
