package stereo

import (
	"math"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// The sliding-window kernel family (DESIGN.md §9). Every dense matcher that
// aggregates a per-pixel cost over a square window — SAD block matching and
// cost-volume filtering — is one algorithm: one absolute-difference row per
// (row, disparity), slid horizontally in O(1) per pixel, then slid
// vertically down a strip of rows into a struct-of-arrays cost volume laid
// out [row][disparity][x], read out by one winner-take-all pass. It has one
// numeric type: uint8 samples (quantize8) give uint16 cost cells summed
// exactly in uint32. Stores saturate at limU16.

// limU16 is the largest cost cell, as its uint32 accumulator: the value
// every store saturates at.
const limU16 uint32 = math.MaxUint16

// adRowCost fills dst[x] with the absolute difference of the w-wide uint8
// planes l and r at (x, yy) for disparity d, capped at limit: the SAD cost
// (limit at the sample range) and the truncated-AD cost of cost-volume
// filtering. The right-view column is clamped to the image before shifting
// (clamp-then-shift), the one border rule of the family.
func adRowCost(l, r []uint8, w int, limit uint16, yy, d int, dst []uint16) {
	// Hoisting the row windows pins every slice length to w, so the prove
	// pass drops all per-pixel bounds checks (perf_contract.json holds this
	// function to zero).
	if w <= 0 {
		return
	}
	row := yy * w
	lr := l[row:][:w]
	rr := r[row:][:w]
	dst = dst[:w]
	// Columns with x-d < 0 clamp to the row start. Clamping d once (a no-op
	// for valid disparities) and phrasing the shifted loop as three windows
	// sharing one length lets prove drop the x-d checks.
	if d < 0 {
		d = 0
	}
	if d > w {
		d = w
	}
	// |l-r| is taken in the cell type: min/max of uint8 operands would
	// compile to branches (amd64 has no byte-sized conditional move).
	border := uint16(rr[0])
	db := dst[:d]
	for x, lv := range lr[:d] {
		db[x] = min(max(uint16(lv), border)-min(uint16(lv), border), limit)
	}
	n := w - d
	lo := lr[d:][:n]
	ro := rr[:n]
	do := dst[d:][:n]
	for i, rv := range ro {
		do[i] = min(max(uint16(lo[i]), uint16(rv))-min(uint16(lo[i]), uint16(rv)), limit)
	}
}

// stripRows is the row-band height of the strip-blocked matcher. The
// per-strip working set is the SoA cost volume (stripRows·nd·W cells,
// ~1.3 MiB of uint16 at W=320, nd=65) plus the row-sum ring
// ((stripRows+2r)·W cells), which together stay L2-resident at the frame
// sizes this repo serves while leaving enough strips to parallelize across
// rows.
const stripRows = 32

// matchStrips is the full-search matcher behind Match and CostVolumeFilter:
// per strip of rows, the block-cost volume of the absolute difference of
// the w×h planes l and r capped at limit over a (2·BlockR+1)² window, then
// the winner-take-all readout.
func matchStrips(l, r []uint8, w, h int, limit uint16, opt BMOptions) *imgproc.Image {
	nd, br := opt.MaxDisp+1, opt.BlockR
	out := imgproc.NewImage(w, h)
	par.For((h+stripRows-1)/stripRows, func(s int) {
		y0 := s * stripRows
		y1 := min(y0+stripRows, h)
		rows := y1 - y0
		adBuf := make([]uint16, w)
		rowSum := make([]uint16, (rows+2*br)*w)
		colSum := make([]uint32, w)
		vol := make([]uint16, rows*nd*w)
		blockCostStrip(l, r, limit, w, h, y0, y1, br, nd, adBuf, rowSum, colSum, vol)
		wtaStrip(vol, out, w, y0, y1, nd, opt.Subpixel)
	})
	return out
}

// blockCostStrip fills vol, the strip's struct-of-arrays cost volume
//
//	vol[((y-y0)*nd + d)*w + x] = Σ_{|dy|<=r, |dx|<=r} cost(clamp(x+dx), clamp(y+dy), d)
//
// for rows [y0, y1) of an h-row image, cost the capped absolute difference
// of adRowCost, using one adRowCost row per (row, disparity) and O(1)
// sliding-window updates per pixel. adBuf must
// hold w entries, rowSum (y1-y0+2r)*w entries, and colSum w entries; all are
// scratch owned by the calling strip. The vertical pass walks row-major (one
// wide running sum per column, advanced a full row at a time) so every
// inner loop streams four equal-length row windows — the layout the prove
// pass needs to drop all per-pixel bounds checks, and the one the prefetcher
// likes.
func blockCostStrip(l8, r8 []uint8, limit uint16, w, h, y0, y1, r, nd int, adBuf, rowSum []uint16, colSum []uint32, vol []uint16) {
	rows := y1 - y0
	for d := 0; d < nd; d++ {
		// Row block sums for every image row the vertical window touches,
		// with replicate clamping at the top and bottom borders.
		for yy := y0 - r; yy < y1+r; yy++ {
			adRowCost(l8, r8, w, limit, clampInt(yy, 0, h-1), d, adBuf)
			slideRow(adBuf, w, r, rowSum[(yy-(y0-r))*w:])
		}
		// Vertical sliding window down the strip, exact wide running sums.
		cs := colSum[:w]
		for x := range cs {
			cs[x] = 0
		}
		for dy := 0; dy <= 2*r; dy++ {
			rs := rowSum[dy*w:][:w]
			for x, v := range rs {
				cs[x] += uint32(v)
			}
		}
		out := vol[d*w:][:w]
		for x, s := range cs {
			out[x] = uint16(min(s, limU16))
		}
		for i := 1; i < rows; i++ {
			add := rowSum[(i+2*r)*w:][:w]
			sub := rowSum[(i-1)*w:][:w]
			out := vol[(i*nd+d)*w:][:w]
			for x, s := range cs {
				s += uint32(add[x]) - uint32(sub[x])
				cs[x] = s
				out[x] = uint16(min(s, limU16))
			}
		}
	}
}

// slideRow fills dst[x] with the horizontally clamped window sum
// Σ_{|dx|<=r} src[clamp(x+dx)] via an exact wide running sum, saturated at
// limU16 on store. When the window fits the row it is split into clamped
// borders and a branch-free interior whose three windows are equal-length
// subslices of src and dst — zero bounds checks per pixel (pinned by
// perf_contract.json).
func slideRow(src []uint16, w, r int, dst []uint16) {
	if w <= 0 {
		return
	}
	src = src[:w]
	dst = dst[:w]
	if r <= 0 || w <= 2*r {
		// Degenerate row (or r == 0): every window touches a border, or no
		// window slides at all; fall back to clamped indexing.
		var s uint32
		for dx := -r; dx <= r; dx++ {
			s += uint32(src[clampInt(dx, 0, w-1)])
		}
		dst[0] = uint16(min(s, limU16))
		for x := 1; x < w; x++ {
			s += uint32(src[clampInt(x+r, 0, w-1)]) - uint32(src[clampInt(x-1-r, 0, w-1)])
			dst[x] = uint16(min(s, limU16))
		}
		return
	}
	// x = 0: dx in [-r, 0] all clamp to src[0].
	left := uint32(src[0])
	s := left * uint32(r+1)
	for _, v := range src[1 : r+1] {
		s += uint32(v)
	}
	dst[0] = uint16(min(s, limU16))
	// Left border, x in [1, r]: the outgoing sample clamps to src[0]. The
	// incoming window and the output share one length, so prove elides the
	// per-pixel checks.
	win := src[r+1:][:r]
	outl := dst[1:][:r]
	for i, v := range win {
		s += uint32(v) - left
		outl[i] = uint16(min(s, limU16))
	}
	// Interior, x in [r+1, w-r-1]: no clamping; adds, subs and the output
	// are three subslices sharing one length, so prove elides every check.
	n := w - 2*r - 1
	adds := src[2*r+1:][:n]
	subs := src[:n]
	outi := dst[r+1:][:n]
	for i, a := range adds {
		s += uint32(a) - uint32(subs[i])
		outi[i] = uint16(min(s, limU16))
	}
	// Right border, x in [w-r, w-1]: the incoming sample clamps to src[w-1],
	// the outgoing samples are src[w-2r-1 : w-r-1].
	right := uint32(src[w-1])
	tail := src[w-2*r-1:][:r]
	outr := dst[w-r:][:r]
	for i, v := range tail {
		s += right - uint32(v)
		outr[i] = uint16(min(s, limU16))
	}
}

// wtaStrip reads the strip's SoA cost volume out into disparities:
// winner-take-all restricted to d <= x (a disparity cannot look past the
// left border) and the optional subpixel refinement. Ties keep the smallest
// disparity.
func wtaStrip(vol []uint16, out *imgproc.Image, w, y0, y1, nd int, subpixel bool) {
	bestC := make([]uint16, w)
	bestD := make([]int32, w)
	for y := y0; y < y1; y++ {
		rowBase := (y - y0) * nd * w
		copy(bestC, vol[rowBase:][:w])
		for x := range bestD {
			bestD[x] = 0
		}
		for d := 1; d < min(nd, w); d++ {
			// Columns x >= d as three windows sharing one length, so prove
			// elides the per-pixel checks.
			row := vol[rowBase+d*w+d:][:w-d]
			bc := bestC[d:][:len(row)]
			bd := bestD[d:][:len(row)]
			for i, c := range row {
				if c < bc[i] {
					bc[i] = c
					bd[i] = int32(d)
				}
			}
		}
		for x := 0; x < w; x++ {
			hi := min(nd-1, x)
			bd := int(bestD[x])
			disp := float64(bd)
			if subpixel && bd > 0 && bd < hi {
				disp += subpixelFit(
					float64(vol[rowBase+(bd-1)*w+x]),
					float64(vol[rowBase+bd*w+x]),
					float64(vol[rowBase+(bd+1)*w+x]))
			}
			out.Set(x, y, float32(disp))
		}
	}
}

// The guided refine (ISM step 4) searches each pixel's own window
// [lo, hi] = [g−R, g+R] ∩ [0, x] around its rounded guide g, so the
// sliding windows above do not apply: the band of disparities a strip
// would have to slide over is close to the full search. What does repeat
// is the row sum. A candidate's block cost is
//
//	cost(x, y, d) = Σ_{|dy|<=br} H(x, clamp(y+dy), d)
//	H(x, yy, d)   = Σ_{|dx|<=br} |l(clamp(x+dx), yy) − r(clamp(clamp(x+dx)−d), yy)|
//
// and H(x, yy, d) is shared by every pixel of column x within br rows of yy
// whose window holds d. refineStrip computes each such H once, over the
// union of those windows (the band), and sums 2·br+1 of them per
// candidate. The sums are integers, exact in any order, so the costs are
// the per-candidate reference's in kernels_test.go.

// adRowSums fills the row sums H(x, yy, d) of row yy of the w-wide uint8
// planes l and r for every column x and every d in [lo[x], hi[x]] (none
// when lo[x] > hi[x]), packed into dst column after column in increasing d,
// |l−r| taken in the cell type as in adRowCost. A sum whose taps and
// partners all lie inside the row — x−br ≥ 0, x+br < w and x−br−d ≥ 0 —
// reads a left and a right window of 2·br+1 samples with no clamp and no
// index check; the rest go through adSumClamped.
func adRowSums(l, r []uint8, w, br, yy int, lo, hi []int32, dst []uint32) {
	if w <= 0 {
		return
	}
	row := yy * w
	lr, rr := l[row:][:w], r[row:][:w]
	lo, hi = lo[:w], hi[:w]
	n := 2*br + 1
	for x, b0 := range lo {
		cnt := int(hi[x]) - int(b0) + 1
		if cnt <= 0 {
			continue
		}
		out := dst[:cnt]
		dst = dst[cnt:]
		// The first in candidates read inside the row; candidate i's right
		// window starts at x−br−b0−i. Four candidates at a time keep four
		// sums in flight, each adding its own taps in dx order.
		in := 0
		if x >= br && x+br < w {
			in = max(min(cnt, x-br-int(b0)+1), 0)
		}
		if o := out[:in]; len(o) > 0 {
			lw := lr[x-br:][:n]
			p := x - br - int(b0)
			for ; len(o) >= 4; o, p = o[4:], p-4 {
				r0, r1, r2, r3 := rr[p:][:len(lw)], rr[p-1:][:len(lw)], rr[p-2:][:len(lw)], rr[p-3:][:len(lw)]
				var s0, s1, s2, s3 uint32
				for j, v := range lw {
					a, q0, q1, q2, q3 := uint16(v), uint16(r0[j]), uint16(r1[j]), uint16(r2[j]), uint16(r3[j])
					s0 += uint32(max(a, q0) - min(a, q0))
					s1 += uint32(max(a, q1) - min(a, q1))
					s2 += uint32(max(a, q2) - min(a, q2))
					s3 += uint32(max(a, q3) - min(a, q3))
				}
				o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			}
			for k := range o {
				rw := rr[p-k:][:len(lw)]
				var s uint32
				for j, v := range lw {
					a, b := uint16(v), uint16(rw[j])
					s += uint32(max(a, b) - min(a, b))
				}
				o[k] = s
			}
		}
		border := out[in:]
		for k := range border {
			border[k] = adSumClamped(lr, rr, x, int(b0)+in+k, br)
		}
	}
}

// adSumClamped is H(x, ·, d) of one row pair through the border rule, the
// form for sums that touch the border.
func adSumClamped(lr, rr []uint8, x, d, br int) uint32 {
	w := len(lr)
	var s uint32
	for dx := -br; dx <= br; dx++ {
		xx := clampInt(x+dx, 0, w-1)
		a, b := uint16(lr[xx]), uint16(rr[clampInt(xx-d, 0, w-1)])
		s += uint32(max(a, b) - min(a, b))
	}
	return s
}

// emptyLo, emptyHi is the empty search window: lo > hi, and merged into a
// band with min/max it leaves the band unchanged.
const emptyLo, emptyHi int32 = math.MaxInt32, math.MinInt32

// searchWindow returns the guided window [lo, hi] of the pixel in column x
// whose guide is g, or the empty window. A guide outside (−R−1, x+R+1)
// leaves the window empty however it rounds, so it is tested before the
// conversion to int, whose result Go leaves to the platform for NaN, ±Inf
// and values past the int range: such a pixel comes out 0 everywhere.
func searchWindow(g float32, x, searchR int) (lo, hi int32) {
	v := float64(g)
	if !(v > -float64(searchR+1) && v < float64(x+searchR+1)) {
		return emptyLo, emptyHi
	}
	c := int(math.Round(v))
	l, h := max(c-searchR, 0), min(c+searchR, x)
	if l > h {
		return emptyLo, emptyHi
	}
	return int32(l), int32(h)
}

// refineScratch is one strip's working memory, sized to the strip's bands
// and recycled across strips and calls through refineFree.
type refineScratch struct {
	lo, hi     []int32 // per strip pixel: its search window
	bLo, bHi   []int32 // per column: the band of the row being summed
	ring       []sumRow
	rows       []*sumRow // the ring rows one output row reads, in dy order
	candidates []uint32  // one pixel's candidate costs
}

// sumRow is the packed row sums of one image row: H(x, ·, d) is
// sums[off[x]+d] for every d in column x's band.
type sumRow struct {
	off  []int
	sums []uint32
}

// refineFree holds the scratch of finished strips for the next ones.
var refineFree imgproc.FreeList[refineScratch]

// refineStrip runs the guided search over the SAD cost of the uint8 planes
// l8 and r8 for rows [y0, y1) of init, writing the refined disparities into
// out (pixels with an empty window keep out's 0).
// Per pixel, the candidate with the smallest cost in its window wins, ties
// to the smallest disparity, with the optional parabola fit. The row sums
// of image row r are computed once, when output row r−br is reached, into
// a ring of 2·br+1 rows: output row y reads rows clamp(y±br), the ring's
// whole content.
func refineStrip(l8, r8 []uint8, init, out *imgproc.Image, y0, y1, searchR, br int, subpixel bool, sc *refineScratch) {
	w, h := init.W, init.H
	sc.lo, sc.hi = imgproc.Grow(sc.lo, (y1-y0)*w), imgproc.Grow(sc.hi, (y1-y0)*w)
	for y := y0; y < y1; y++ {
		g := init.Pix[y*w:][:w]
		lo, hi := sc.lo[(y-y0)*w:][:w], sc.hi[(y-y0)*w:][:w]
		for x, v := range g {
			lo[x], hi[x] = searchWindow(v, x, searchR)
		}
	}
	n := 2*br + 1
	sc.bLo, sc.bHi = imgproc.Grow(sc.bLo, w), imgproc.Grow(sc.bHi, w)
	sc.ring, sc.rows = imgproc.Grow(sc.ring, n), imgproc.Grow(sc.rows, n)
	sc.candidates = imgproc.Grow(sc.candidates, 2*searchR+1)
	next := max(y0-br, 0) // the next image row to sum
	for y := y0; y < y1; y++ {
		for ; next <= min(y+br, h-1); next++ {
			sumRowBand(l8, r8, sc, &sc.ring[next%n], next, y0, y1, br)
		}
		for dy := -br; dy <= br; dy++ {
			sc.rows[dy+br] = &sc.ring[clampInt(y+dy, 0, h-1)%n]
		}
		lo, hi := sc.lo[(y-y0)*w:][:w], sc.hi[(y-y0)*w:][:w]
		dst := out.Pix[y*w:][:w]
		for x, l := range lo {
			if l > hi[x] {
				continue
			}
			// The candidates' costs: the column's row sums, added in dy
			// order onto +0.
			c := sc.candidates[:int(hi[x]-l)+1]
			clear(c)
			for _, r := range sc.rows {
				addRowSums(c, r.sums[r.off[x]+int(l):])
			}
			best, bv := 0, c[0]
			for k, v := range c {
				if v < bv {
					best, bv = k, v
				}
			}
			disp := float64(int(l) + best)
			if subpixel && best > 0 && best < len(c)-1 {
				disp += subpixelFit(float64(c[best-1]), float64(c[best]), float64(c[best+1]))
			}
			dst[x] = float32(disp)
		}
	}
}

// sumRowBand fills dst with the row sums of image row r over its bands:
// at column x, the union of the windows of the strip pixels in column x
// within br rows of r — every pixel that reads H(x, r, ·) reads it inside
// its own window.
func sumRowBand(l8, r8 []uint8, sc *refineScratch, dst *sumRow, r, y0, y1, br int) {
	w := len(sc.bLo)
	bLo, bHi := sc.bLo, sc.bHi[:w]
	for x := range bLo {
		bLo[x], bHi[x] = emptyLo, emptyHi
	}
	for y := max(r-br, y0); y <= min(r+br, y1-1); y++ {
		lo, hi := sc.lo[(y-y0)*w:][:w], sc.hi[(y-y0)*w:][:w]
		for x, l := range lo {
			bLo[x], bHi[x] = min(bLo[x], l), max(bHi[x], hi[x])
		}
	}
	dst.off = imgproc.Grow(dst.off, w)
	off := dst.off[:w]
	total := 0
	for x, b0 := range bLo {
		off[x] = total - int(b0)
		if b1 := bHi[x]; b1 >= b0 {
			total += int(b1-b0) + 1
		}
	}
	dst.sums = imgproc.Grow(dst.sums, total)
	adRowSums(l8, r8, w, br, r, bLo, bHi, dst.sums)
}

// addRowSums adds src's leading row sums onto the candidate costs c.
func addRowSums(c, src []uint32) {
	src = src[:len(c)]
	for i, v := range src {
		c[i] += v
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
