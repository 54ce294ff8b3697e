// Package quality unifies the accuracy/compute knobs that were previously
// scattered across layers — matcher kind and Fixed flag in internal/stereo,
// the propagation window in internal/core, per-session configuration in
// internal/serve — into one operating-point abstraction: an ordered Ladder
// of rungs, each trading disparity accuracy for compute.
//
// A rung composes four orthogonal degradations of the ISM pipeline:
//
//   - matcher choice: the server's configured key matcher (typically the
//     accelerator-backed one) versus the cheap classic BM/SGM kernels;
//   - float versus the fixed-point kernels (ROADMAP item 2);
//   - PW stretch: multiply the session's propagation window, amortizing the
//     expensive key matcher over more motion-propagated frames;
//   - pyramid level: match at 1/2^L resolution via the existing pyramid
//     code and upsample the disparity back (values scale by 2^L).
//
// The top rung (index 0) is special: it applies no degradation at all, so a
// session pinned there is bit-identical to the pre-ladder serving path. The
// serving layer picks rungs at runtime (see Controller); the offline pricer
// (see Price) scores every rung against the dataset oracle into the
// committed quality_ladder.json.
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
	// to the undegraded path), "bm" and "sgm" build the classic kernels.
	Matcher string `json:"matcher,omitempty"`
	// Fixed runs the SAD kernels (bm key matcher, guided refine) on uint8
	// samples and uint16 costs instead of float32.
	Fixed bool `json:"fixed,omitempty"`
	// PWStretch multiplies the session's propagation window (1 = no
	// stretch): key frames every basePW*PWStretch frames.
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
// fixed-point kernels, then progressively stretched windows and halved
// resolutions. Accuracy prices for these rungs live in quality_ladder.json.
func DefaultLadder() Ladder {
	return Ladder{
		{Name: "full", OP: OperatingPoint{PWStretch: 1, PyrLevel: 0}},
		{Name: "fixed", OP: OperatingPoint{Matcher: "bm", Fixed: true, PWStretch: 1, PyrLevel: 0}},
		{Name: "stretch2", OP: OperatingPoint{Matcher: "bm", Fixed: true, PWStretch: 2, PyrLevel: 0}},
		{Name: "half-res", OP: OperatingPoint{Matcher: "bm", Fixed: true, PWStretch: 2, PyrLevel: 1}},
		{Name: "quarter-res", OP: OperatingPoint{Matcher: "bm", Fixed: true, PWStretch: 4, PyrLevel: 2}},
	}
}

// Validate checks ladder invariants: at least one rung, unique names, a
// bit-identical top rung, and sane stretch/level values.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("quality: empty ladder")
	}
	if top := l[0].OP; top.Matcher != "" || top.Fixed || top.PWStretch != 1 || top.PyrLevel != 0 {
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
		switch r.OP.Matcher {
		case "", "bm", "sgm":
		default:
			return fmt.Errorf("quality: rung %q has unknown matcher %q", r.Name, r.OP.Matcher)
		}
	}
	return nil
}

// BuildMatcher resolves the rung's key matcher: top (the caller's configured
// matcher, typically the accelerator-backed one) when the operating point
// inherits, otherwise a classic kernel sized for the rung's pyramid level
// (the disparity range shrinks with the image).
func (r Rung) BuildMatcher(top core.KeyMatcher) core.KeyMatcher {
	switch r.OP.Matcher {
	case "bm":
		opt := stereo.DefaultBMOptions()
		opt.MaxDisp = scaledMaxDisp(opt.MaxDisp, r.OP.PyrLevel)
		opt.Fixed = r.OP.Fixed
		return core.BMMatcher{Opt: opt}
	case "sgm":
		opt := stereo.DefaultSGMOptions()
		opt.MaxDisp = scaledMaxDisp(opt.MaxDisp, r.OP.PyrLevel)
		return core.SGMMatcher{Opt: opt}
	}
	return top
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

// EffectivePW is the rung's stretched propagation window over a session's
// base window.
func (r Rung) EffectivePW(basePW int) int {
	eff := basePW * r.OP.PWStretch
	if eff < 1 {
		eff = 1
	}
	return eff
}

// NextIsKey decides the key schedule for a stream operating at rung r: a
// key frame when the pipeline has no committed state yet (first frame, or
// just after a pyramid-level Reset) or once the frames since the last key
// reach the stretched window. For PWStretch 1 this is provably the same
// schedule as core's static frameIdx%PW rule (a key commit sets sinceKey to
// 1 and every frame increments it), but unlike the frame-index rule it
// stays coherent when the stretch changes mid-stream.
func NextIsKey(p *core.Pipeline, r Rung, basePW int) bool {
	if left, _ := p.PrevFrames(); left == nil {
		return true
	}
	return p.SinceKey() >= r.EffectivePW(basePW)
}

// Step advances one frame of a stream operating at rung r: downsample the
// pair to the rung's pyramid level, run the key or propagated ISM step
// through the shared pipeline entry point (same kernels, same stage
// metrics), and upsample the disparity back to the input geometry with
// values scaled by 2^level. matcher must be r.BuildMatcher's result for a
// consistent stream.
//
// The caller owns level transitions: the flow kernels require consecutive
// frames to agree in size, so the pipeline must be Reset when the rung's
// pyramid level differs from the previous frame's (the next Step then
// recovers with a key frame at the new resolution).
func Step(p *core.Pipeline, r Rung, basePW int, matcher core.KeyMatcher, left, right *imgproc.Image, m *metrics.Registry) core.Result {
	// A fixed-point rung flips the guided-refine kernels too, not just the
	// key matcher; the pipeline's own configuration is restored before
	// returning so state observed between frames (snapshots) stays at the
	// session's configured fidelity.
	if r.OP.Fixed {
		if cfg := p.Config(); !cfg.BM.Fixed {
			cfg.BM.Fixed = true
			p.SetConfig(cfg)
			defer func() {
				cfg.BM.Fixed = false
				p.SetConfig(cfg)
			}()
		}
	}
	fullW, fullH := left.W, left.H
	level := r.OP.PyrLevel
	l, rt := DownsampleInput(left, level), DownsampleInput(right, level)
	res := pipeline.ProcessFrameAs(p, matcher, l, rt, NextIsKey(p, r, basePW), m)
	if level > 0 {
		res.Disparity = UpsampleDisparity(res.Disparity, fullW, fullH, level)
	}
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
// exactly -1. level 0 returns d itself.
func UpsampleDisparity(d *imgproc.Image, w, h, level int) *imgproc.Image {
	if level == 0 {
		return d
	}
	scale := float32(int(1) << level)
	out := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		sy := y * d.H / h
		row := out.Pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			v := d.At(x*d.W/w, sy)
			if v < 0 {
				row[x] = -1
			} else {
				row[x] = v * scale
			}
		}
	}
	return out
}
