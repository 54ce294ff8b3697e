// Package quality unifies the accuracy/compute knobs that were previously
// scattered across layers — matcher kind in internal/stereo,
// the propagation window in internal/core, per-session configuration in
// internal/serve — into one operating-point abstraction: an ordered Ladder
// of rungs, each trading disparity accuracy for compute.
//
// A rung composes three orthogonal degradations of the ISM pipeline:
//
//   - matcher choice: the server's configured key matcher (typically the
//     accelerator-backed one) versus the cheap classic block matcher;
//   - PW stretch: multiply the session's propagation window (or, under the
//     motion-adaptive schedule, its MaxWindow), amortizing the expensive key
//     matcher over more motion-propagated frames;
//   - pyramid level: match at 1/2^L resolution via the existing pyramid
//     code and upsample the disparity back (values scale by 2^L).
//
// Step is the one executor of a frame at a rung; the key schedule it runs is
// core.Pipeline's (KeyDue), with the rung's stretch as input. The top rung
// (index 0) applies no degradation at all, so Step at rung 0 is
// pipeline.ProcessFrame, bit for bit, static or adaptive schedule alike.
// The serving layer runs every frame through Step — gold sessions at rung
// 0, best-effort sessions at the rung the Controller picks — and the
// offline pricer (see Price) scores every rung through it against the
// dataset oracle into the committed quality_ladder.json.
//
// See DESIGN.md §12 "Operating-point ladder".
package quality

import (
	"fmt"
	"strings"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/metrics"
	"asv/internal/pipeline"
	"asv/internal/stereo"
)

// Class is a session's service-level objective: whether overload may trade
// its accuracy away.
type Class int

const (
	// Gold pins the session to the top rung; under overload it is shed with
	// 429 rather than degraded. The zero value, so untouched callers keep
	// the pre-ladder behavior.
	Gold Class = iota
	// BestEffort lets the server degrade the session to cheaper rungs under
	// load; it is refused only once even the bottom rung cannot meet the
	// session's deadline.
	BestEffort
)

// ParseClass maps the wire names ("", "gold", "besteffort", "best-effort")
// to a Class.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(s) {
	case "", "gold":
		return Gold, nil
	case "besteffort", "best-effort":
		return BestEffort, nil
	}
	return Gold, fmt.Errorf("unknown SLO class %q (gold|besteffort)", s)
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == BestEffort {
		return "besteffort"
	}
	return "gold"
}

// OperatingPoint is one point in the accuracy/compute space.
type OperatingPoint struct {
	// Matcher selects the key-frame matcher: "" inherits the server's
	// configured matcher (required on the top rung so it stays bit-identical
	// to the undegraded path), "bm" builds the classic block matcher.
	Matcher string `json:"matcher,omitempty"`
	// PWStretch multiplies the session's propagation window (1 = no
	// stretch): key frames every basePW*PWStretch frames, or at most
	// MaxWindow*PWStretch apart under the motion-adaptive schedule.
	PWStretch int `json:"pw_stretch"`
	// PyrLevel matches at 1/2^PyrLevel resolution and upsamples the
	// disparity back to full size (0 = full resolution).
	PyrLevel int `json:"pyr_level"`
}

// Rung is a named operating point in a ladder.
type Rung struct {
	Name string         `json:"name"`
	OP   OperatingPoint `json:"op"`
}

// Ladder is an ordered list of rungs, most accurate first. Index 0 is the
// "full" rung every gold session is pinned to; the last index is the
// cheapest rung the controller can fall back to.
type Ladder []Rung

// DefaultLadder returns the committed five-rung ladder: full fidelity, then
// the classic bm key matcher ("fixed", named for the fixed-point kernels it
// once switched to), then progressively stretched windows and halved
// resolutions. Accuracy prices for these rungs live in quality_ladder.json.
func DefaultLadder() Ladder {
	return Ladder{
		{Name: "full", OP: OperatingPoint{PWStretch: 1, PyrLevel: 0}},
		{Name: "fixed", OP: OperatingPoint{Matcher: "bm", PWStretch: 1, PyrLevel: 0}},
		{Name: "stretch2", OP: OperatingPoint{Matcher: "bm", PWStretch: 2, PyrLevel: 0}},
		{Name: "half-res", OP: OperatingPoint{Matcher: "bm", PWStretch: 2, PyrLevel: 1}},
		{Name: "quarter-res", OP: OperatingPoint{Matcher: "bm", PWStretch: 4, PyrLevel: 2}},
	}
}

// Validate checks ladder invariants: at least one rung, unique names, a
// bit-identical top rung, and sane stretch/level values.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("quality: empty ladder")
	}
	if top := l[0].OP; top.Matcher != "" || top.PWStretch != 1 || top.PyrLevel != 0 {
		return fmt.Errorf("quality: top rung %q must be the undegraded operating point", l[0].Name)
	}
	seen := make(map[string]bool, len(l))
	for i, r := range l {
		if r.Name == "" {
			return fmt.Errorf("quality: rung %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("quality: duplicate rung name %q", r.Name)
		}
		seen[r.Name] = true
		if r.OP.PWStretch < 1 {
			return fmt.Errorf("quality: rung %q has PW stretch %d < 1", r.Name, r.OP.PWStretch)
		}
		if r.OP.PyrLevel < 0 || r.OP.PyrLevel > 4 {
			return fmt.Errorf("quality: rung %q pyramid level %d out of [0,4]", r.Name, r.OP.PyrLevel)
		}
		if m := r.OP.Matcher; m != "" && m != "bm" {
			return fmt.Errorf("quality: rung %q has unknown matcher %q", r.Name, m)
		}
	}
	return nil
}

// BuildMatcher resolves the rung's key matcher: top (the caller's configured
// matcher, typically the accelerator-backed one) when the operating point
// inherits, otherwise the classic block matcher sized for the rung's pyramid
// level (the disparity range shrinks with the image).
func (r Rung) BuildMatcher(top core.KeyMatcher) core.KeyMatcher {
	if r.OP.Matcher != "bm" {
		return top
	}
	opt := stereo.DefaultBMOptions()
	opt.MaxDisp = scaledMaxDisp(opt.MaxDisp, r.OP.PyrLevel)
	return core.BMMatcher{Opt: opt}
}

// scaledMaxDisp halves the disparity search range per pyramid level, never
// below 4 (the kernels need some range to search over).
func scaledMaxDisp(maxDisp, level int) int {
	d := maxDisp >> level
	if d < 4 {
		d = 4
	}
	return d
}

// Step advances one frame of a stream operating at rung r: downsample the
// pair to the rung's pyramid level, run it through the one frame executor,
// pipeline.ProcessFrameAs, at the rung's window stretch (the key schedule is
// p's, p.KeyDue), and upsample the disparity back to the input geometry
// with values scaled by 2^level. At the undegraded top
// rung the pair and the disparity pass through untouched, so Step is
// pipeline.ProcessFrame. matcher must be r.BuildMatcher's result for a
// consistent stream. basePW must be p's configured window, p.Config().PW;
// Step panics otherwise.
//
// The caller owns level transitions: the flow kernels require consecutive
// frames to agree in size, so the pipeline must be Reset when the rung's
// pyramid level differs from the previous frame's (the next Step then
// recovers with a key frame at the new resolution).
func Step(p *core.Pipeline, r Rung, basePW int, matcher core.KeyMatcher, left, right *imgproc.Image, m *metrics.Registry) core.Result {
	if pw := p.Config().PW; basePW != pw {
		panic(fmt.Sprintf("quality: Step with base window %d on a pipeline whose PW is %d", basePW, pw))
	}
	level := r.OP.PyrLevel
	l, rt := DownsampleInput(left, level), DownsampleInput(right, level)
	res := pipeline.ProcessFrameAs(p, matcher, l, rt, r.OP.PWStretch, m)
	res.Disparity = UpsampleDisparity(res.Disparity, left.W, left.H, level)
	return res
}

// DownsampleInput returns level `level` of im's Gaussian pyramid (σ = 1 per
// halving); level 0 returns im itself.
func DownsampleInput(im *imgproc.Image, level int) *imgproc.Image {
	return imgproc.Pyramid(im, level+1, 1.0)[level]
}

// UpsampleDisparity lifts a disparity map computed at pyramid level back to
// w×h: nearest-neighbor sampling (bilinear would blend invalid pixels into
// their neighbors) with values scaled by 2^level; invalid entries (<0) stay
// exactly -1. level 0 returns d itself; otherwise the map comes from the
// image pool, and its owner may imgproc.PutImage it when done.
func UpsampleDisparity(d *imgproc.Image, w, h, level int) *imgproc.Image {
	if level == 0 {
		return d
	}
	scale := float32(int(1) << level)
	out := imgproc.GetImage(w, h)
	cols := make([]int, w) // source column of each output column
	for x := range cols {
		cols[x] = x * d.W / w
	}
	for y := 0; y < h; y++ {
		sy := y * d.H / h
		row := out.Pix[y*w:][:w]
		if y > 0 && sy == (y-1)*d.H/h {
			copy(row, out.Pix[(y-1)*w:][:w])
			continue
		}
		src := d.Pix[sy*d.W:][:d.W]
		for x, sx := range cols {
			if v := src[sx]; v < 0 {
				row[x] = -1
			} else {
				row[x] = v * scale
			}
		}
	}
	return out
}
