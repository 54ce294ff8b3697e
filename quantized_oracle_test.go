package asv_test

// Inert-flag rows of the quantized-oracle suite: BMOptions.Fixed and
// SGMOptions.Fixed select nothing — the SAD kernels run on uint8 samples
// and SGM is integer by construction (DESIGN.md §9) — so each flag on and
// off must give the same bits on the golden-corpus scenes. The drift bound
// of the uint8 kernels against the float reference is internal/stereo's
// quantized-oracle suite.

import (
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

func sameBits(t *testing.T, name string, got, want *imgproc.Image) {
	t.Helper()
	for j := range got.Pix {
		if math.Float32bits(got.Pix[j]) != math.Float32bits(want.Pix[j]) {
			t.Fatalf("%s: pixel %d: fixed %v != default %v", name, j, got.Pix[j], want.Pix[j])
		}
	}
}

// BMOptions.Fixed on the SAD cost, block matching's one cost.
func TestQuantizedOracleCensusBitIdentical(t *testing.T) {
	for _, f := range oracleFrames() {
		opt := asv.DefaultBMOptions()
		opt.MaxDisp = 32
		want := asv.BlockMatch(f.Left, f.Right, opt)
		opt.Fixed = true
		sameBits(t, "block match", asv.BlockMatch(f.Left, f.Right, opt), want)
	}
}

func TestQuantizedOracleSGMBitIdentical(t *testing.T) {
	for _, f := range oracleFrames() {
		opt := asv.DefaultSGMOptions()
		opt.MaxDisp = 32
		want := asv.SGM(f.Left, f.Right, opt)
		opt.Fixed = true
		sameBits(t, "sgm", asv.SGM(f.Left, f.Right, opt), want)
	}
}
