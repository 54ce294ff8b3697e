// Package core implements ASV's primary contribution: the invariant-based
// stereo matching (ISM) algorithm of paper Sec. 3.
//
// ISM exploits the correspondence invariant of stereo imaging — two pixels
// that are projections of the same physical point remain a matched pair in
// every frame, even as their image locations move. The pipeline therefore
// runs an expensive, high-accuracy matcher (a stereo DNN in the paper) only
// on key frames, and on the frames in between:
//
//  1. reconstructs the correspondence pairs from the previous disparity map,
//  2. propagates each pair with dense optical flow computed on the left and
//     right video streams independently, and
//  3. refines the propagated estimate with a cheap 1-D guided block-matching
//     search.
//
// The propagation-window parameter PW selects every PW-th frame as a key
// frame (PW-2 and PW-4 in the paper's Fig. 9).
package core

import (
	"fmt"
	"math"
	"sync"

	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// KeyMatcher produces a disparity map for a key frame. In the paper this is
// a stereo DNN; the reproduction provides an SGM-based matcher and a
// ground-truth oracle calibrated to published DNN error rates (DESIGN.md).
type KeyMatcher interface {
	// Match returns the disparity map of the left image.
	Match(left, right *imgproc.Image) *imgproc.Image
	// MACs returns the arithmetic cost of one Match call on a w×h frame.
	MACs(w, h int) int64
	// Name identifies the matcher in reports.
	Name() string
}

// Config holds the ISM tuning parameters.
type Config struct {
	// PW is the propagation window: a key frame is processed every PW
	// frames. PW=1 disables ISM (every frame is a key frame).
	PW int
	// FlowScale computes optical flow at 1/FlowScale resolution and
	// upsamples the motion vectors; 2 is the default speed/accuracy point.
	FlowScale int
	// Flow configures the Farneback estimator.
	Flow flow.Options
	// RefineR is the ±radius of the guided correspondence search (step 4).
	RefineR int
	// BM configures the SAD block used by the guided search.
	BM stereo.BMOptions
	// Adaptive, when non-nil, replaces the static PW schedule with the
	// motion-triggered key-frame controller (see AdaptiveConfig).
	Adaptive *AdaptiveConfig
	// ME overrides the motion estimator (nil selects FarnebackME with the
	// Flow options and FlowScale above — the paper's choice).
	ME MotionEstimator
	// Postprocess applies a 3×3 validity-aware median to non-key disparity
	// maps, suppressing the isolated propagation errors that occlusion and
	// fast motion produce (the artifacts Sec. 3.2 calls out).
	Postprocess bool
}

// me returns the configured motion estimator.
func (c Config) me() MotionEstimator {
	if c.ME != nil {
		return c.ME
	}
	return FarnebackME{Opt: c.Flow, Scale: c.FlowScale}
}

// MotionSource returns the motion estimator the pipeline will use: Config.ME
// when set, the paper's Farneback estimator otherwise. Callers that run a
// non-key frame's flow themselves, for ProcessNonKeyWith, estimate with it.
func (c Config) MotionSource() MotionEstimator { return c.me() }

// DefaultConfig returns the configuration used in the evaluation: PW-4,
// half-resolution Farneback flow and a ±3 guided search with 5×5 blocks.
func DefaultConfig() Config {
	bm := stereo.DefaultBMOptions()
	bm.BlockR = 2
	return Config{
		PW:        4,
		FlowScale: 2,
		Flow:      flow.DefaultOptions(),
		RefineR:   3,
		BM:        bm,
	}
}

func (c Config) validate() {
	if c.PW < 1 {
		panic(fmt.Sprintf("core: propagation window %d < 1", c.PW))
	}
	if c.FlowScale < 1 {
		panic(fmt.Sprintf("core: flow scale %d < 1", c.FlowScale))
	}
	if c.RefineR < 1 {
		panic(fmt.Sprintf("core: refine radius %d < 1", c.RefineR))
	}
	if c.Adaptive != nil {
		c.Adaptive.validate()
	}
}

// Result reports one processed stereo pair.
type Result struct {
	Disparity *imgproc.Image // disparity map on the left grid
	IsKey     bool           // whether the frame ran the key matcher
	MACs      int64          // arithmetic cost charged for this frame
	// MeanMotionPx is the mean per-pixel motion magnitude measured on a
	// non-key frame (0 on key frames); the adaptive controller keys off it.
	MeanMotionPx float64
}

// Pipeline is the stateful ISM engine. It is not safe for concurrent use;
// process frames of one stream from a single goroutine.
type Pipeline struct {
	cfg     Config
	matcher KeyMatcher

	frameIdx  int
	sinceKey  int
	needKey   bool
	prevLeft  *imgproc.Image
	prevRight *imgproc.Image
	prevDisp  *imgproc.Image

	// carry holds, per eye (left, right), the expansion the last
	// EstimateMotion built of its next frame. It is a cache, not state:
	// never exported or serialized, rebuilt cold whenever it does not match.
	carry [2]motionCarry
}

// New returns a pipeline that calls matcher on key frames. matcher may be
// nil only if the caller always supplies key disparities via ProcessKey.
func New(matcher KeyMatcher, cfg Config) *Pipeline {
	cfg.validate()
	return &Pipeline{cfg: cfg, matcher: matcher}
}

// Config returns the pipeline's (validated) configuration, fixed at New;
// reading it is safe while another goroutine processes frames.
func (p *Pipeline) Config() Config { return p.cfg }

// PrevFrames returns the previous frame's left and right images — the
// reference inputs a motion estimator needs to compute flow to the current
// frame — or nil before the first key frame. Callers that run flow outside
// the pipeline read it to pair frames for ProcessNonKeyWith.
func (p *Pipeline) PrevFrames() (left, right *imgproc.Image) {
	return p.prevLeft, p.prevRight
}

// Reset clears the temporal state, forcing the next frame to be a key frame.
func (p *Pipeline) Reset() {
	p.frameIdx = 0
	p.sinceKey = 0
	p.needKey = false
	p.prevLeft, p.prevRight, p.prevDisp = nil, nil, nil
	p.dropCarry()
}

// NextIsKey reports whether the next Process call will treat its frame as a
// key frame: KeyDue at the configured window.
func (p *Pipeline) NextIsKey() bool { return p.KeyDue(1) }

// KeyDue is the key schedule, the one place that decides whether the next
// frame is a key frame when the propagation window is stretched stretch
// times (the quality ladder's rungs stretch it; 1 is the configured
// window). Before the first key frame, and after a Reset, it always is.
// Under the motion-triggered controller (Config.Adaptive) it is when motion
// asked for one or MaxWindow·stretch frames have passed since the last;
// otherwise every PW·stretch frames. The count is frames since the last key
// frame, not the frame index, so the schedule stays coherent when the
// stretch changes mid-stream; at stretch 1 a stream processed by this
// schedule keys on every PW-th frame.
func (p *Pipeline) KeyDue(stretch int) bool {
	if p.prevDisp == nil {
		return true
	}
	if a := p.cfg.Adaptive; a != nil {
		return p.needKey || p.sinceKey >= a.MaxWindow*stretch
	}
	return p.sinceKey >= p.cfg.PW*stretch
}

// Process consumes the next stereo pair of the stream, deciding key/non-key
// by the propagation-window schedule.
func (p *Pipeline) Process(left, right *imgproc.Image) Result {
	if p.NextIsKey() {
		if p.matcher == nil {
			panic("core: key frame reached with no KeyMatcher; use ProcessKey")
		}
		disp := p.matcher.Match(left, right)
		return p.commitKey(left, right, disp, p.matcher.MACs(left.W, left.H))
	}
	return p.processNonKey(left, right)
}

// ProcessKey consumes the next pair as a key frame with an externally
// computed disparity map (e.g. the DNN oracle), charging cost macs.
func (p *Pipeline) ProcessKey(left, right, disp *imgproc.Image, macs int64) Result {
	return p.commitKey(left, right, disp, macs)
}

// ProcessNonKeyWith consumes the next pair as a non-key frame using
// externally computed motion fields: fl must be the configured estimator's
// flow from the previous left frame to left, and fr likewise for the right
// stream — computed by EstimateMotion, or by the estimator's stateless
// Estimate. The result is bit-identical to Process because the same
// estimator ran on the same inputs. internal/pipeline runs every non-key
// frame as EstimateMotion then ProcessNonKeyWith, so it can time the flow
// and the propagate+refine apart. It panics if no key frame has been
// processed yet.
func (p *Pipeline) ProcessNonKeyWith(left, right *imgproc.Image, fl, fr flow.Field) Result {
	if p.prevDisp == nil {
		panic("core: non-key frame before any key frame")
	}
	return p.propagateRefine(left, right, fl, fr)
}

func (p *Pipeline) commitKey(left, right, disp *imgproc.Image, macs int64) Result {
	// The next frame propagates from this one, whose expansion no
	// EstimateMotion built.
	p.dropCarry()
	p.prevLeft, p.prevRight, p.prevDisp = left, right, disp
	p.frameIdx++
	p.sinceKey = 1
	p.needKey = false
	return Result{Disparity: disp, IsKey: true, MACs: macs}
}

func (p *Pipeline) processNonKey(left, right *imgproc.Image) Result {
	// Step 3: propagate correspondences with per-view motion estimation.
	fl, fr := p.EstimateMotion(left, right)
	return p.propagateRefine(left, right, fl, fr)
}

// EstimateMotion returns the configured estimator's motion fields from the
// previous frame pair (PrevFrames) to left and right, the two eyes
// estimated concurrently, for a ProcessNonKeyWith of the same pair. With
// the paper's Farneback estimator, each eye keeps the expansion it builds
// of its new frame, and the next call uses it as the previous frame's when
// that frame is still PrevFrames' — so in a run of non-key frames each
// frame is expanded once, not twice. Otherwise the expansion is built cold.
// The fields are bit-identical to the estimator's stateless Estimate either
// way. It panics if no key frame has been processed yet.
func (p *Pipeline) EstimateMotion(left, right *imgproc.Image) (fl, fr flow.Field) {
	if p.prevDisp == nil {
		panic("core: non-key frame before any key frame")
	}
	me := p.cfg.me()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr = p.carry[1].estimate(me, p.prevRight, right)
	}()
	fl = p.carry[0].estimate(me, p.prevLeft, left)
	wg.Wait()
	return fl, fr
}

// motionCarry is one eye's expansion of the frame it was built from, under
// the pipeline's Farneback estimator (fixed with its Config at New).
type motionCarry struct {
	src *imgproc.Image
	exp *flow.Expansion
}

// estimate is me.Estimate(prev, next) through the carry: the expansion of
// prev is the carried one when it matches, and next's is kept for the next
// call.
func (c *motionCarry) estimate(me MotionEstimator, prev, next *imgproc.Image) flow.Field {
	fb, ok := me.(FarnebackME)
	if !ok {
		c.drop()
		return me.Estimate(prev, next)
	}
	if c.exp == nil || c.src != prev {
		c.drop()
		c.exp = fb.expand(prev)
	}
	en := fb.expand(next)
	f := fb.estimateExpanded(c.exp, en, prev.W, prev.H)
	c.exp.Put()
	*c = motionCarry{src: next, exp: en}
	return f
}

// drop returns the carried expansion to the image pool.
func (c *motionCarry) drop() {
	if c.exp != nil {
		c.exp.Put()
	}
	*c = motionCarry{}
}

// dropCarry drops both eyes' carried expansions.
func (p *Pipeline) dropCarry() {
	p.carry[0].drop()
	p.carry[1].drop()
}

// propagateRefine runs ISM steps 2–4 on a non-key frame given the two
// motion fields, and commits the frame. It takes ownership of fl and fr.
func (p *Pipeline) propagateRefine(left, right *imgproc.Image, fl, fr flow.Field) Result {
	// Steps 2+3: reconstruct pairs from the previous disparity map and move
	// both endpoints by their motion vectors.
	prop := propagate(p.prevDisp, fl, fr)

	// Step 4: refine with the guided 1-D correspondence search.
	disp := stereo.Refine(left, right, prop, p.cfg.RefineR, p.cfg.BM)
	imgproc.PutImage(prop)
	if p.cfg.Postprocess {
		med := stereo.MedianFilter(disp, 1)
		imgproc.PutImage(disp)
		disp = med
	}

	motion := meanMotion(fl)
	flow.PutField(fl)
	flow.PutField(fr)
	if a := p.cfg.Adaptive; a != nil && motion > a.MotionThresholdPx {
		p.needKey = true
	}

	macs := p.NonKeyMACs(left.W, left.H)
	p.prevLeft, p.prevRight, p.prevDisp = left, right, disp
	p.frameIdx++
	p.sinceKey++
	return Result{Disparity: disp, IsKey: false, MACs: macs, MeanMotionPx: motion}
}

// meanMotion returns the mean per-pixel motion magnitude (L1) of a field.
func meanMotion(f flow.Field) float64 {
	var s float64
	for i := range f.U.Pix {
		u, v := float64(f.U.Pix[i]), float64(f.V.Pix[i])
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		s += u + v
	}
	return s / float64(len(f.U.Pix))
}

// propagate applies the correspondence invariant: each pair
// (PL=(x,y), PR=(x-D,y)) from the previous frame moves to
// (PL+ΔL, PR+ΔR), so the new disparity at PL+ΔL is D + ΔL.u - ΔR.u.
// Collisions keep the nearest surface (largest disparity); holes left by
// disocclusion are filled from valid neighbours. The fields must share
// prevDisp's geometry.
func propagate(prevDisp *imgproc.Image, fl, fr flow.Field) *imgproc.Image {
	w, h := prevDisp.W, prevDisp.H
	for _, im := range []*imgproc.Image{fl.U, fl.V, fr.U} {
		if im.W != w || im.H != h {
			panic(fmt.Sprintf("core: motion field is %dx%d, disparity %dx%d", im.W, im.H, w, h))
		}
	}
	out := imgproc.GetImage(w, h)
	for i := range out.Pix {
		out.Pix[i] = -1
	}
	for y := 0; y < h; y++ {
		row := y * w
		disp, ul, vl, ur := prevDisp.Pix[row:][:w], fl.U.Pix[row:][:w], fl.V.Pix[row:][:w], fr.U.Pix[row:][:w]
		for x, dv := range disp {
			d := float64(dv)
			if d < 0 {
				continue
			}
			u, v := float64(ul[x]), float64(vl[x])
			// x−d <= x, so only the left border can clamp; the right
			// clamp keeps a NaN d, whose conversion Go leaves to the
			// platform, inside the row.
			xr := min(max(int(math.Round(float64(x)-d)), 0), w-1)
			nx := int(math.Round(float64(x) + u))
			ny := int(math.Round(float64(y) + v))
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			nd := float32(d + u - float64(ur[xr]))
			if nd < 0 {
				nd = 0
			}
			if i := ny*w + nx; nd > out.Pix[i] {
				out.Pix[i] = nd
			}
		}
	}
	fillHoles(out)
	return out
}

// fillHoles replaces negative entries with the average of valid neighbours,
// iterating until the map is dense (disocclusions are thin, so a few passes
// suffice; any pathological remainder falls back to 0 = far background).
// Pixels are visited in raster order and filled in place, so a hole sees
// the holes before it already filled; a neighbour outside the map is its
// nearest pixel inside (replicate padding).
func fillHoles(d *imgproc.Image) {
	const maxPasses = 8
	w, h := d.W, d.H
	for pass := 0; pass < maxPasses; pass++ {
		holes := 0
		for y := 0; y < h; y++ {
			up, mid, down := max(y-1, 0)*w, y*w, min(y+1, h-1)*w
			for x := 0; x < w; x++ {
				if d.Pix[mid+x] >= 0 {
					continue
				}
				l, r := max(x-1, 0), min(x+1, w-1)
				var s float32
				var n int
				for _, row := range [3]int{up, mid, down} {
					for _, i := range [3]int{row + l, row + x, row + r} {
						if v := d.Pix[i]; v >= 0 {
							s += v
							n++
						}
					}
				}
				if n > 0 {
					d.Pix[mid+x] = s / float32(n)
				} else {
					holes++
				}
			}
		}
		if holes == 0 {
			break
		}
	}
	for i, v := range d.Pix {
		if v < 0 {
			d.Pix[i] = 0
		}
	}
}

// NonKeyMACs returns the arithmetic cost charged to one non-key frame:
// two dense optical-flow estimations (left and right streams) at the
// configured scale, the guided block-matching refinement, and the pointwise
// propagation work (paper Sec. 3.3: ~87 MOps for a qHD frame).
func (p *Pipeline) NonKeyMACs(w, h int) int64 {
	array, scalar := p.NonKeyBreakdown(w, h)
	return array + scalar
}

// NonKeyBreakdown splits the non-key cost by execution unit, following the
// ASV hardware mapping (Fig. 8): convolution-like work (Gaussian filters,
// polynomial expansion, SAD search) runs on the systolic array; "Compute
// Flow", "Matrix Update" and the correspondence propagation are pointwise
// and run on the scalar unit.
func (p *Pipeline) NonKeyBreakdown(w, h int) (arrayMACs, scalarOps int64) {
	scalarOps = int64(w) * int64(h) * 8 // reconstruct + propagate
	switch me := p.cfg.me().(type) {
	case FarnebackME:
		s := max(me.Scale, 1)
		conv, point := flow.FarnebackOpsSplit(w/s, h/s, me.Opt)
		arrayMACs += 2 * conv
		scalarOps += 2 * point
	default:
		// Block matching (and any SAD-structured estimator) runs entirely
		// on the array.
		arrayMACs += 2 * me.MACs(w, h)
	}
	arrayMACs += stereo.RefineMACs(w, h, p.cfg.RefineR, p.cfg.BM)
	if p.cfg.Postprocess {
		scalarOps += int64(w) * int64(h) * 12 // 3x3 median network
	}
	return arrayMACs, scalarOps
}
