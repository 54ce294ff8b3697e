package stereo

import "asv/internal/imgproc"

// Cost-volume filtering: the third classic family in Fig. 1's frontier
// (ELAS-class local methods). A truncated absolute-difference cost is
// computed per (pixel, disparity), each disparity plane is smoothed with a
// box filter (the "aggregation" step), and the disparity is read out by
// winner-take-all with subpixel refinement. Cheaper than SGM (no dynamic
// programming) but better-behaved than raw block matching near
// discontinuities, since aggregation adapts per plane.

// CVFOptions configures the cost-volume-filtering matcher.
type CVFOptions struct {
	MaxDisp  int     // disparity search range [0, MaxDisp]
	AggR     int     // box-aggregation radius per disparity plane
	Truncate float32 // absolute-difference cost cap
	Subpixel bool
}

// DefaultCVFOptions returns the configuration used for the ELAS-class
// point of the Fig. 1 frontier.
func DefaultCVFOptions() CVFOptions {
	return CVFOptions{MaxDisp: 64, AggR: 3, Truncate: 0.12, Subpixel: true}
}

// CostVolumeFilter computes a disparity map by filtered-cost-volume
// winner-take-all. Box aggregation of a per-pixel cost is what the
// sliding-window family (kernels.go) does for block matching, so this is
// Match's search over the truncated-AD cost with AggR as the block radius.
// Planes hold uint16 box sums of uint8 differences, not means: winner-take-all
// and the parabola fit are invariant to the constant (2·AggR+1)² scale.
func CostVolumeFilter(left, right *imgproc.Image, opt CVFOptions) *imgproc.Image {
	if left.W != right.W || left.H != right.H {
		panic("stereo: image sizes differ")
	}
	bm := BMOptions{BlockR: opt.AggR, MaxDisp: opt.MaxDisp, Subpixel: opt.Subpixel}
	return matchAD(left, right, bm, opt.Truncate)
}

// CVFMACs estimates the arithmetic cost: one AD per cost cell, a separable
// box aggregation per plane, and the WTA scan.
func CVFMACs(w, h int, opt CVFOptions) int64 {
	pix := int64(w) * int64(h)
	nd := int64(opt.MaxDisp + 1)
	boxTaps := int64(2*(2*opt.AggR+1)) * 2 // separable, both passes
	return pix*nd + pix*nd*boxTaps + pix*nd
}
