package stereo

import (
	"math"
	"math/bits"
	"sync"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// The sliding-window kernel family (DESIGN.md §9). Every dense matcher that
// aggregates a per-pixel cost over a square window — SAD and census block
// matching, cost-volume filtering — is one algorithm: one cost row per
// (row, disparity), slid horizontally in O(1) per pixel, then slid
// vertically down a strip of rows into a struct-of-arrays cost volume laid
// out [row][disparity][x], read out by one winner-take-all pass. The kernels
// are generic over the numeric type only: uint8 samples give uint16 cost
// cells summed exactly in uint32 (BMOptions.Fixed, and census always);
// float32 samples give float32 cells summed in float64. Stores saturate at
// lim, the cell type's largest value, so no kernel switches on its type.

type (
	// sample is a pixel as the cost rows read it.
	sample interface{ uint8 | float32 }
	// cell is a stored matching cost.
	cell interface{ uint16 | float32 }
	// acc is the wide running-sum type of a cell, exact over any window.
	acc interface{ uint32 | float64 }
)

// limU16 and limF32 are the largest cell values, as their accumulator type:
// the lim a kernel instantiation saturates its stores at.
const (
	limU16 uint32  = math.MaxUint16
	limF32 float64 = math.MaxFloat32
)

// rowCoster fills dst[x] with the per-pixel matching cost at (x, yy) for
// disparity d. Implementations clamp the right-view column to the image
// before shifting (clamp-then-shift), the one border rule of the family.
type rowCoster[C cell] func(yy, d int, dst []C)

// adRowCost matches intensities by absolute difference capped at limit: the
// SAD cost (limit at the sample range) and the truncated-AD cost of
// cost-volume filtering.
func adRowCost[S sample, C cell](l, r []S, w int, limit C) rowCoster[C] {
	return func(yy, d int, dst []C) {
		// Hoisting the row windows pins every slice length to w, so the
		// prove pass drops all per-pixel bounds checks (perf_contract.json
		// holds this function to zero).
		if w <= 0 {
			return
		}
		row := yy * w
		lr := l[row:][:w]
		rr := r[row:][:w]
		dst = dst[:w]
		// Columns with x-d < 0 clamp to the row start. Clamping d once (a
		// no-op for valid disparities) and phrasing the shifted loop as
		// three windows sharing one length lets prove drop the x-d checks.
		if d < 0 {
			d = 0
		}
		if d > w {
			d = w
		}
		// |l-r| is taken in the cell type: min/max of uint8 operands would
		// compile to branches (amd64 has no byte-sized conditional move).
		border := C(rr[0])
		db := dst[:d]
		for x, lv := range lr[:d] {
			db[x] = min(max(C(lv), border)-min(C(lv), border), limit)
		}
		n := w - d
		lo := lr[d:][:n]
		ro := rr[:n]
		do := dst[d:][:n]
		for i, rv := range ro {
			do[i] = min(max(C(lo[i]), C(rv))-min(C(lo[i]), C(rv)), limit)
		}
	}
}

// censusRowCost matches precomputed census descriptor planes by Hamming
// distance; the costs are small integers whatever the image type.
func censusRowCost(cl, cr []uint64, w int) rowCoster[uint16] {
	return func(yy, d int, dst []uint16) {
		if w <= 0 {
			return
		}
		row := yy * w
		lr := cl[row:][:w]
		rr := cr[row:][:w]
		dst = dst[:w]
		if d < 0 {
			d = 0
		}
		if d > w {
			d = w
		}
		border := rr[0]
		db := dst[:d]
		for x, lv := range lr[:d] {
			db[x] = uint16(bits.OnesCount64(lv ^ border))
		}
		n := w - d
		lo := lr[d:][:n]
		ro := rr[:n]
		do := dst[d:][:n]
		for i, rv := range ro {
			do[i] = uint16(bits.OnesCount64(lo[i] ^ rv))
		}
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
// per strip of rows, the block-cost volume of cost over a (2·BlockR+1)²
// window, then the winner-take-all readout.
func matchStrips[C cell, A acc](w, h int, opt BMOptions, cost rowCoster[C], lim A) *imgproc.Image {
	nd := opt.MaxDisp + 1
	r := opt.BlockR
	out := imgproc.NewImage(w, h)
	par.For((h+stripRows-1)/stripRows, func(s int) {
		y0 := s * stripRows
		y1 := min(y0+stripRows, h)
		rows := y1 - y0
		adBuf := make([]C, w)
		rowSum := make([]C, (rows+2*r)*w)
		colSum := make([]A, w)
		vol := make([]C, rows*nd*w)
		blockCostStrip(cost, w, h, y0, y1, r, nd, lim, adBuf, rowSum, colSum, vol)
		wtaStrip(vol, out, w, y0, y1, nd, opt)
	})
	return out
}

// blockCostStrip fills vol, the strip's struct-of-arrays cost volume
//
//	vol[((y-y0)*nd + d)*w + x] = Σ_{|dy|<=r, |dx|<=r} cost(clamp(x+dx), clamp(y+dy), d)
//
// for rows [y0, y1) of an h-row image, using one rowCoster evaluation per
// (row, disparity) and O(1) sliding-window updates per pixel. adBuf must
// hold w entries, rowSum (y1-y0+2r)*w entries, and colSum w entries; all are
// scratch owned by the calling strip. The vertical pass walks row-major (one
// wide running sum per column, advanced a full row at a time) so every
// inner loop streams four equal-length row windows — the layout the prove
// pass needs to drop all per-pixel bounds checks, and the one the prefetcher
// likes.
func blockCostStrip[C cell, A acc](cost rowCoster[C], w, h, y0, y1, r, nd int, lim A, adBuf, rowSum []C, colSum []A, vol []C) {
	rows := y1 - y0
	for d := 0; d < nd; d++ {
		// Row block sums for every image row the vertical window touches,
		// with replicate clamping at the top and bottom borders.
		for yy := y0 - r; yy < y1+r; yy++ {
			cost(clampInt(yy, 0, h-1), d, adBuf)
			slideRow(adBuf, w, r, lim, rowSum[(yy-(y0-r))*w:])
		}
		// Vertical sliding window down the strip, exact wide running sums.
		cs := colSum[:w]
		for x := range cs {
			cs[x] = 0
		}
		for dy := 0; dy <= 2*r; dy++ {
			rs := rowSum[dy*w:][:w]
			for x, v := range rs {
				cs[x] += A(v)
			}
		}
		out := vol[d*w:][:w]
		for x, s := range cs {
			out[x] = C(min(s, lim))
		}
		for i := 1; i < rows; i++ {
			add := rowSum[(i+2*r)*w:][:w]
			sub := rowSum[(i-1)*w:][:w]
			out := vol[(i*nd+d)*w:][:w]
			for x, s := range cs {
				s += A(add[x]) - A(sub[x])
				cs[x] = s
				out[x] = C(min(s, lim))
			}
		}
	}
}

// slideRow fills dst[x] with the horizontally clamped window sum
// Σ_{|dx|<=r} src[clamp(x+dx)] via an exact wide running sum, saturated at
// lim on store. When the window fits the row it is split into clamped
// borders and a branch-free interior whose three windows are equal-length
// subslices of src and dst — zero bounds checks per pixel (pinned by
// perf_contract.json).
func slideRow[C cell, A acc](src []C, w, r int, lim A, dst []C) {
	if w <= 0 {
		return
	}
	src = src[:w]
	dst = dst[:w]
	if r <= 0 || w <= 2*r {
		// Degenerate row (or r == 0): every window touches a border, or no
		// window slides at all; fall back to clamped indexing.
		var s A
		for dx := -r; dx <= r; dx++ {
			s += A(src[clampInt(dx, 0, w-1)])
		}
		dst[0] = C(min(s, lim))
		for x := 1; x < w; x++ {
			s += A(src[clampInt(x+r, 0, w-1)]) - A(src[clampInt(x-1-r, 0, w-1)])
			dst[x] = C(min(s, lim))
		}
		return
	}
	// x = 0: dx in [-r, 0] all clamp to src[0].
	left := A(src[0])
	s := left * A(r+1)
	for _, v := range src[1 : r+1] {
		s += A(v)
	}
	dst[0] = C(min(s, lim))
	// Left border, x in [1, r]: the outgoing sample clamps to src[0]. The
	// incoming window and the output share one length, so prove elides the
	// per-pixel checks.
	win := src[r+1:][:r]
	outl := dst[1:][:r]
	for i, v := range win {
		s += A(v) - left
		outl[i] = C(min(s, lim))
	}
	// Interior, x in [r+1, w-r-1]: no clamping; adds, subs and the output
	// are three subslices sharing one length, so prove elides every check.
	n := w - 2*r - 1
	adds := src[2*r+1:][:n]
	subs := src[:n]
	outi := dst[r+1:][:n]
	for i, a := range adds {
		s += A(a) - A(subs[i])
		outi[i] = C(min(s, lim))
	}
	// Right border, x in [w-r, w-1]: the incoming sample clamps to src[w-1],
	// the outgoing samples are src[w-2r-1 : w-r-1].
	right := A(src[w-1])
	tail := src[w-2*r-1:][:r]
	outr := dst[w-r:][:r]
	for i, v := range tail {
		s += right - A(v)
		outr[i] = C(min(s, lim))
	}
}

// wtaStrip reads the strip's SoA cost volume out into disparities:
// winner-take-all restricted to d <= x (a disparity cannot look past the
// left border), the uniqueness test, and subpixel refinement. Ties keep the
// smallest disparity.
func wtaStrip[C cell](vol []C, out *imgproc.Image, w, y0, y1, nd int, opt BMOptions) {
	bestC := make([]C, w)
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
			if opt.UniqRatio > 0 {
				// Runner-up outside the winner's immediate neighbourhood.
				second := math.Inf(1)
				for d := 0; d <= hi; d++ {
					if d >= bd-1 && d <= bd+1 {
						continue
					}
					if c := float64(vol[rowBase+d*w+x]); c < second {
						second = c
					}
				}
				if second < float64(bestC[x])*(1+opt.UniqRatio) {
					out.Set(x, y, -1)
					continue
				}
			}
			disp := float64(bd)
			if opt.Subpixel && bd > 0 && bd < hi {
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
// candidate. Integer sums are exact in any order; the float cost is
// defined in this bracketing — taps summed into a row, rows into the
// block, both in float64 — which the per-candidate reference in
// kernels_test.go follows.

// rowSummer fills the row sums H(x, yy, d) of image row yy for every
// column x and every d in [lo[x], hi[x]] (none when lo[x] > hi[x]), packed
// into dst column after column in increasing d.
type rowSummer[A acc] func(yy int, lo, hi []int32, dst []A)

// adRowSums is the rowSummer of the absolute-difference cost, |l−r| taken
// in the cell type as in adRowCost. A sum whose taps and partners all lie
// inside the row — x−br ≥ 0, x+br < w and x−br−d ≥ 0 — reads a left and a
// right window of 2·br+1 samples with no clamp and no index check; the
// rest go through adSumClamped.
func adRowSums[S sample, C cell, A acc](l, r []S, w, br int) rowSummer[A] {
	return func(yy int, lo, hi []int32, dst []A) {
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
			// The first in candidates read inside the row; candidate i's
			// right window starts at x−br−b0−i. Four candidates at a time
			// keep four sums in flight, each adding its own taps in dx
			// order.
			in := 0
			if x >= br && x+br < w {
				in = max(min(cnt, x-br-int(b0)+1), 0)
			}
			if o := out[:in]; len(o) > 0 {
				lw := lr[x-br:][:n]
				p := x - br - int(b0)
				for ; len(o) >= 4; o, p = o[4:], p-4 {
					r0, r1, r2, r3 := rr[p:][:len(lw)], rr[p-1:][:len(lw)], rr[p-2:][:len(lw)], rr[p-3:][:len(lw)]
					var s0, s1, s2, s3 A
					for j, v := range lw {
						a, q0, q1, q2, q3 := C(v), C(r0[j]), C(r1[j]), C(r2[j]), C(r3[j])
						s0 += A(max(a, q0) - min(a, q0))
						s1 += A(max(a, q1) - min(a, q1))
						s2 += A(max(a, q2) - min(a, q2))
						s3 += A(max(a, q3) - min(a, q3))
					}
					o[0], o[1], o[2], o[3] = s0, s1, s2, s3
				}
				for k := range o {
					rw := rr[p-k:][:len(lw)]
					var s A
					for j, v := range lw {
						a, b := C(v), C(rw[j])
						s += A(max(a, b) - min(a, b))
					}
					o[k] = s
				}
			}
			border := out[in:]
			for k := range border {
				border[k] = adSumClamped[S, C, A](lr, rr, x, int(b0)+in+k, br)
			}
		}
	}
}

// adSumClamped is H(x, ·, d) of one row pair through the border rule, the
// form for sums that touch the border.
func adSumClamped[S sample, C cell, A acc](lr, rr []S, x, d, br int) A {
	w := len(lr)
	var s A
	for dx := -br; dx <= br; dx++ {
		xx := clampInt(x+dx, 0, w-1)
		a, b := C(lr[xx]), C(rr[clampInt(xx-d, 0, w-1)])
		s += A(max(a, b) - min(a, b))
	}
	return s
}

// censusRowSums is adRowSums over census descriptor planes, the cost the
// Hamming distance.
func censusRowSums(cl, cr []uint64, w, br int) rowSummer[uint32] {
	return func(yy int, lo, hi []int32, dst []uint32) {
		if w <= 0 {
			return
		}
		row := yy * w
		lr, rr := cl[row:][:w], cr[row:][:w]
		lo, hi = lo[:w], hi[:w]
		n := 2*br + 1
		for x, b0 := range lo {
			cnt := int(hi[x]) - int(b0) + 1
			if cnt <= 0 {
				continue
			}
			out := dst[:cnt]
			dst = dst[cnt:]
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
						s0 += uint32(bits.OnesCount64(v ^ r0[j]))
						s1 += uint32(bits.OnesCount64(v ^ r1[j]))
						s2 += uint32(bits.OnesCount64(v ^ r2[j]))
						s3 += uint32(bits.OnesCount64(v ^ r3[j]))
					}
					o[0], o[1], o[2], o[3] = s0, s1, s2, s3
				}
				for k := range o {
					rw := rr[p-k:][:len(lw)]
					var s uint32
					for j, v := range lw {
						s += uint32(bits.OnesCount64(v ^ rw[j]))
					}
					o[k] = s
				}
			}
			border := out[in:]
			for k := range border {
				border[k] = hamSumClamped(lr, rr, x, int(b0)+in+k, br)
			}
		}
	}
}

// hamSumClamped is adSumClamped's census counterpart.
func hamSumClamped(lr, rr []uint64, x, d, br int) uint32 {
	w := len(lr)
	var s uint32
	for dx := -br; dx <= br; dx++ {
		xx := clampInt(x+dx, 0, w-1)
		s += uint32(bits.OnesCount64(lr[xx] ^ rr[clampInt(xx-d, 0, w-1)]))
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
type refineScratch[A acc] struct {
	lo, hi     []int32 // per strip pixel: its search window
	bLo, bHi   []int32 // per column: the band of the row being summed
	ring       []sumRow[A]
	rows       []*sumRow[A] // the ring rows one output row reads, in dy order
	candidates []A          // one pixel's candidate costs
}

// sumRow is the packed row sums of one image row: H(x, ·, d) is
// sums[off[x]+d] for every d in column x's band.
type sumRow[A acc] struct {
	off  []int
	sums []A
}

// refineFree holds the scratch of finished strips for the next ones, one
// list per accumulator type. It is a plain free list, not a sync.Pool: a
// pool's per-P slot misses whenever a strip runs on another P than the one
// that put the last scratch back, and the miss reallocates a scratch. The
// lists hold as many scratches as strips ever ran at once.
var refineFree [2]struct {
	sync.Mutex
	list []any
}

// getRefineScratch takes a scratch of the A instantiation off its free
// list, or makes one.
func getRefineScratch[A acc]() *refineScratch[A] {
	l := &refineFree[refineFreeIndex[A]()]
	l.Lock()
	defer l.Unlock()
	if n := len(l.list); n > 0 {
		sc := l.list[n-1].(*refineScratch[A])
		l.list = l.list[:n-1]
		return sc
	}
	return new(refineScratch[A])
}

// putRefineScratch returns a scratch to its free list.
func putRefineScratch[A acc](sc *refineScratch[A]) {
	l := &refineFree[refineFreeIndex[A]()]
	l.Lock()
	l.list = append(l.list, sc)
	l.Unlock()
}

// refineFreeIndex is the index of A's list in refineFree.
func refineFreeIndex[A acc]() int {
	if _, float := any(A(0)).(float64); float {
		return 1
	}
	return 0
}

// grow returns s resliced to n entries. When s is too short it reallocates
// with a quarter more room, so that a band a little wider than any before
// it does not reallocate again.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// refineStrip runs the guided search for rows [y0, y1) of init, writing the
// refined disparities into out (pixels with an empty window keep out's 0).
// Per pixel, the candidate with the smallest cost in its window wins, ties
// to the smallest disparity, with the optional parabola fit. The row sums
// of image row r are computed once, when output row r−br is reached, into
// a ring of 2·br+1 rows: output row y reads rows clamp(y±br), the ring's
// whole content.
func refineStrip[A acc](init, out *imgproc.Image, y0, y1, searchR, br int, subpixel bool, rowSums rowSummer[A], sc *refineScratch[A]) {
	w, h := init.W, init.H
	sc.lo, sc.hi = grow(sc.lo, (y1-y0)*w), grow(sc.hi, (y1-y0)*w)
	for y := y0; y < y1; y++ {
		g := init.Pix[y*w:][:w]
		lo, hi := sc.lo[(y-y0)*w:][:w], sc.hi[(y-y0)*w:][:w]
		for x, v := range g {
			lo[x], hi[x] = searchWindow(v, x, searchR)
		}
	}
	n := 2*br + 1
	sc.bLo, sc.bHi = grow(sc.bLo, w), grow(sc.bHi, w)
	sc.ring, sc.rows = grow(sc.ring, n), grow(sc.rows, n)
	sc.candidates = grow(sc.candidates, 2*searchR+1)
	next := max(y0-br, 0) // the next image row to sum
	for y := y0; y < y1; y++ {
		for ; next <= min(y+br, h-1); next++ {
			sumRowBand(sc, &sc.ring[next%n], next, y0, y1, br, rowSums)
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
func sumRowBand[A acc](sc *refineScratch[A], dst *sumRow[A], r, y0, y1, br int, rowSums rowSummer[A]) {
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
	dst.off = grow(dst.off, w)
	off := dst.off[:w]
	total := 0
	for x, b0 := range bLo {
		off[x] = total - int(b0)
		if b1 := bHi[x]; b1 >= b0 {
			total += int(b1-b0) + 1
		}
	}
	dst.sums = grow(dst.sums, total)
	rowSums(r, bLo, bHi, dst.sums)
}

// addRowSums adds src's leading row sums onto the candidate costs c.
func addRowSums[A acc](c, src []A) {
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
