package stereo

import (
	"math"
	"math/bits"

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

// adBlock returns the block SAD of aligning the block around (x, y) with
// disparity d — the per-candidate cost of the guided refinement, where
// candidate centers vary per pixel and window reuse does not apply. Border
// handling is clamp-then-shift and |l-r| is taken in the cell type C, both
// as in adRowCost. This is the definition, and the form blocks that touch
// the border take; blocks that do not go through adBlockInterior.
func adBlock[S sample, C cell, A acc](l, r []S, w, h, x, y, d, br int) A {
	var s A
	for dy := -br; dy <= br; dy++ {
		// Row windows of length w: the clamped column indexes are provably
		// inside them, so the candidate loop carries no bounds checks.
		row := clampInt(y+dy, 0, h-1) * w
		lrow := l[row:][:w]
		rrow := r[row:][:w]
		for dx := -br; dx <= br; dx++ {
			xx := clampInt(x+dx, 0, w-1)
			lv, rv := C(lrow[xx]), C(rrow[clampInt(xx-d, 0, w-1)])
			s += A(max(lv, rv) - min(lv, rv))
		}
	}
	return s
}

// adBlockInterior is adBlock when neither the block nor its right-view
// counterpart touches the border — rows y±br and columns [x-br-d, x+br]
// are all inside the image — so no tap clamps: each block row is a left and
// a right window of one length, read with no index check. The taps are
// added in adBlock's order, dy outer and dx inner, so the float64 sum of
// the float instantiation has the same bits.
func adBlockInterior[S sample, C cell, A acc](l, r []S, w, x, y, d, br int) A {
	var s A
	n := 2*br + 1
	base := (y-br)*w + x - br
	for dy := 0; dy < n; dy++ {
		lwin := l[base:][:n]
		rwin := r[base-d:][:n]
		for i, v := range lwin {
			lv, rv := C(v), C(rwin[i])
			s += A(max(lv, rv) - min(lv, rv))
		}
		base += w
	}
	return s
}

// hamBlock is adBlock's census counterpart: the block Hamming cost between
// census descriptor planes.
func hamBlock(cl, cr []uint64, w, h, x, y, d, br int) uint32 {
	var s uint32
	for dy := -br; dy <= br; dy++ {
		row := clampInt(y+dy, 0, h-1) * w
		lrow := cl[row:][:w]
		rrow := cr[row:][:w]
		for dx := -br; dx <= br; dx++ {
			xx := clampInt(x+dx, 0, w-1)
			s += uint32(bits.OnesCount64(lrow[xx] ^ rrow[clampInt(xx-d, 0, w-1)]))
		}
	}
	return s
}

// hamBlockInterior is hamBlock under adBlockInterior's condition.
func hamBlockInterior(cl, cr []uint64, w, x, y, d, br int) uint32 {
	var s uint32
	n := 2*br + 1
	base := (y-br)*w + x - br
	for dy := 0; dy < n; dy++ {
		lwin := cl[base:][:n]
		rwin := cr[base-d:][:n]
		for i, v := range lwin {
			s += uint32(bits.OnesCount64(v ^ rwin[i]))
		}
		base += w
	}
	return s
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
