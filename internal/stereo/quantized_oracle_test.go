package stereo

// Quantized-oracle differential suite: the SAD kernels — block matching,
// cost-volume filtering and the guided refine — run on uint8-quantized
// samples with uint16 cells (DESIGN.md §9). On the golden-corpus scenes they
// must stay within a documented drift bound of the naive reference over the
// float samples' cost: at most 1% of pixels differing by more than one
// disparity (measured worst case ~0.3%, CVF on the KITTI-like scene, all of
// it uint8 quantization flips on the ground-plane ramp; the border rule is
// shared).

import (
	"fmt"
	"math"
	"testing"

	"asv/internal/dataset"
	"asv/internal/imgproc"
)

// oracleFrames returns the two golden-corpus scenes' first frames.
func oracleFrames() []dataset.FramePair {
	return []dataset.FramePair{
		dataset.Generate(dataset.KITTILike(96, 64, 1, 11)[0]).Frames[0],
		dataset.Generate(dataset.SceneFlowLike(96, 64, 4, 7)[0]).Frames[0],
	}
}

// maxDrift is the documented bound on uint8-vs-float disagreement.
const maxDrift = 0.01

func checkDrift(t *testing.T, name string, got, float *imgproc.Image) {
	t.Helper()
	if frac, _ := driftFracs(got, float); frac > maxDrift {
		t.Errorf("%s: %.3f%% of pixels differ by >1 disparity (bound %.3f%%)",
			name, 100*frac, 100*maxDrift)
	}
}

func TestQuantizedOracleBlockMatch(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := DefaultBMOptions()
		opt.MaxDisp = 32
		float := naiveMatch(refPixelCost(f.Left, f.Right, false, 0, math.Inf(1)), f.Left.W, f.Left.H, opt)
		checkDrift(t, fmt.Sprintf("scene%d sad", i), Match(f.Left, f.Right, opt), float)
	}
}

func TestQuantizedOracleCVF(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := DefaultCVFOptions()
		opt.MaxDisp = 32
		checkDrift(t, fmt.Sprintf("scene%d cvf", i), CostVolumeFilter(f.Left, f.Right, opt), naiveCVF(f.Left, f.Right, opt, false))
	}
}

func TestQuantizedOracleRefine(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := DefaultBMOptions()
		opt.MaxDisp = 32
		float := naiveRefine(refPixelCost(f.Left, f.Right, false, 0, math.Inf(1)), f.GT, 3, opt)
		checkDrift(t, fmt.Sprintf("scene%d refine", i), Refine(f.Left, f.Right, f.GT, 3, opt), float)
	}
}
