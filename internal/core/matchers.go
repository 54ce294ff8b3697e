package core

import (
	"fmt"
	"math/rand"

	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// SGMMatcher adapts semi-global matching as a key-frame matcher. It is the
// strongest classic algorithm in the repository and serves as the
// "hand-crafted high-accuracy" reference (HH/SGBN-class in Fig. 1).
type SGMMatcher struct {
	Opt stereo.SGMOptions
}

// Match implements KeyMatcher.
func (m SGMMatcher) Match(left, right *imgproc.Image) *imgproc.Image {
	return stereo.SGM(left, right, m.Opt)
}

// MACs implements KeyMatcher.
func (m SGMMatcher) MACs(w, h int) int64 { return stereo.SGMMACs(w, h, m.Opt) }

// Name implements KeyMatcher.
func (m SGMMatcher) Name() string { return fmt.Sprintf("SGM-%dpath", m.Opt.Paths) }

// BMMatcher adapts full-search block matching as a (cheap, less accurate)
// key-frame matcher, the GCSF/ELAS-class point of Fig. 1.
type BMMatcher struct {
	Opt stereo.BMOptions
}

// Match implements KeyMatcher.
func (m BMMatcher) Match(left, right *imgproc.Image) *imgproc.Image {
	return stereo.Match(left, right, m.Opt)
}

// MACs implements KeyMatcher.
func (m BMMatcher) MACs(w, h int) int64 { return stereo.MatchMACs(w, h, m.Opt) }

// Name implements KeyMatcher.
func (m BMMatcher) Name() string { return "BM-full" }

// OracleMatcher emulates a trained stereo DNN for the accuracy experiments
// (substitution documented in DESIGN.md): it returns the scene's ground
// truth corrupted to a target three-pixel error rate, so key frames carry
// exactly the disparity quality the corresponding DNN would deliver. The
// driver must call SetGT with the current frame's ground truth before each
// Match call.
//
// The corruption model draws, for ErrRatePct percent of pixels, a gross
// error uniform in ±[4, 10] pixels (these fail the 3-pixel test), and adds
// sub-threshold Gaussian noise (σ = SubpixelSigma) everywhere else.
type OracleMatcher struct {
	ModelName     string  // which DNN this oracle stands in for
	ErrRatePct    float64 // published three-pixel error rate of that DNN
	SubpixelSigma float64 // benign disparity noise on correct pixels
	MACsPerPixel  float64 // inference cost model of that DNN
	Seed          int64

	gt    *imgproc.Image
	calls int
}

// SetGT provides the ground-truth disparity of the frame about to be
// matched.
func (m *OracleMatcher) SetGT(gt *imgproc.Image) { m.gt = gt }

// Match implements KeyMatcher.
func (m *OracleMatcher) Match(left, right *imgproc.Image) *imgproc.Image {
	if m.gt == nil {
		panic("core: OracleMatcher.Match called before SetGT")
	}
	if m.gt.W != left.W || m.gt.H != left.H {
		panic("core: oracle ground truth size mismatch")
	}
	rng := rand.New(rand.NewSource(m.Seed + int64(m.calls)*7919))
	m.calls++
	out := m.gt.Clone()
	m.gt = nil
	p := m.ErrRatePct / 100
	for i := range out.Pix {
		if out.Pix[i] < 0 {
			continue
		}
		if rng.Float64() < p {
			mag := float32(4 + float64(6*rng.Float64())) // rounded: no fused multiply-add
			// Keep the gross error gross: never clamp it back under the
			// three-pixel threshold.
			if rng.Intn(2) == 0 && out.Pix[i]-mag >= 0 {
				out.Pix[i] -= mag
			} else {
				out.Pix[i] += mag
			}
		} else if m.SubpixelSigma > 0 {
			out.Pix[i] += float32(rng.NormFloat64() * m.SubpixelSigma)
			if out.Pix[i] < 0 {
				out.Pix[i] = 0
			}
		}
	}
	return out
}

// MACs implements KeyMatcher.
func (m *OracleMatcher) MACs(w, h int) int64 {
	return int64(m.MACsPerPixel * float64(w) * float64(h))
}

// Name implements KeyMatcher.
func (m *OracleMatcher) Name() string {
	if m.ModelName != "" {
		return m.ModelName + "-oracle"
	}
	return "dnn-oracle"
}
