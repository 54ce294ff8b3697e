package asv_test

// Quantized-oracle differential suite: BMOptions.Fixed / CVFOptions.Fixed
// choose the numeric type of one sliding-window kernel family (uint8 samples
// and uint16 cells, or float32 ones — DESIGN.md §9), and on the golden-corpus
// scenes the two types must stay within a documented drift bound of each
// other: at most 1% of pixels differing by more than one disparity (measured
// worst case ~0.3%, all of it uint8 quantization flips on the KITTI-like
// ground-plane ramp; the border rule is shared). Census matching and SGM are
// integer by construction, so there Fixed on and off are held to exact
// bit-equality; internal/stereo's tests hold both to the naive reference.

import (
	"fmt"
	"math"
	"testing"

	asv "asv"
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

// driftFrac returns the fraction of pixels whose disparities differ by more
// than one disparity level. Invalidated pixels (negative disparity, from the
// uniqueness test) count as differing unless both paths invalidated them.
func driftFrac(a, b *imgproc.Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("driftFrac: size mismatch")
	}
	bad := 0
	for i := range a.Pix {
		av, bv := float64(a.Pix[i]), float64(b.Pix[i])
		if av < 0 || bv < 0 {
			if (av < 0) != (bv < 0) {
				bad++
			}
			continue
		}
		if math.Abs(av-bv) > 1 {
			bad++
		}
	}
	return float64(bad) / float64(len(a.Pix))
}

// maxDrift is the documented bound on uint8-vs-float32 disagreement.
const maxDrift = 0.01

func checkDrift(t *testing.T, name string, fixed, float *imgproc.Image) {
	t.Helper()
	if frac := driftFrac(fixed, float); frac > maxDrift {
		t.Errorf("%s: %.3f%% of pixels differ by >1 disparity (bound %.3f%%)",
			name, 100*frac, 100*maxDrift)
	}
}

func TestQuantizedOracleBlockMatch(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := asv.DefaultBMOptions()
		opt.MaxDisp = 32
		float := asv.BlockMatch(f.Left, f.Right, opt)
		opt.Fixed = true
		fixed := asv.BlockMatch(f.Left, f.Right, opt)
		checkDrift(t, fmt.Sprintf("scene%d sad", i), fixed, float)
	}
}

func TestQuantizedOracleCensusBitIdentical(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := asv.DefaultBMOptions()
		opt.MaxDisp = 32
		opt.Census = 2
		float := asv.BlockMatch(f.Left, f.Right, opt)
		opt.Fixed = true
		fixed := asv.BlockMatch(f.Left, f.Right, opt)
		for j := range fixed.Pix {
			if math.Float32bits(fixed.Pix[j]) != math.Float32bits(float.Pix[j]) {
				t.Fatalf("scene%d census: pixel %d: fixed %v != float %v",
					i, j, fixed.Pix[j], float.Pix[j])
			}
		}
	}
}

func TestQuantizedOracleSGMBitIdentical(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := asv.DefaultSGMOptions()
		opt.MaxDisp = 32
		float := asv.SGM(f.Left, f.Right, opt)
		opt.Fixed = true
		fixed := asv.SGM(f.Left, f.Right, opt)
		for j := range fixed.Pix {
			if math.Float32bits(fixed.Pix[j]) != math.Float32bits(float.Pix[j]) {
				t.Fatalf("scene%d sgm: pixel %d: fixed %v != float %v",
					i, j, fixed.Pix[j], float.Pix[j])
			}
		}
	}
}

func TestQuantizedOracleCVF(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := asv.DefaultCVFOptions()
		opt.MaxDisp = 32
		float := asv.CostVolumeFilter(f.Left, f.Right, opt)
		opt.Fixed = true
		fixed := asv.CostVolumeFilter(f.Left, f.Right, opt)
		checkDrift(t, fmt.Sprintf("scene%d cvf", i), fixed, float)
	}
}

func TestQuantizedOracleRefine(t *testing.T) {
	for i, f := range oracleFrames() {
		opt := asv.DefaultBMOptions()
		opt.MaxDisp = 32
		float := asv.GuidedRefine(f.Left, f.Right, f.GT, 3, opt)
		opt.Fixed = true
		fixed := asv.GuidedRefine(f.Left, f.Right, f.GT, 3, opt)
		checkDrift(t, fmt.Sprintf("scene%d refine", i), fixed, float)
	}
}
