package stereo

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// SGMOptions configures semi-global matching.
//
// Aggregation runs eight disparities to a uint64, in 8-bit lanes whose top
// bit is a guard, and is exact only while every value fits the seven bits
// below it. With M = (2·CensusR+1)²−1, the largest census cost, and P1, P2
// rounded to integers, SGM requires M + P1 + P2 ≤ 127 and panics otherwise;
// the defaults give 24 + 1 + 8 = 33.
type SGMOptions struct {
	MaxDisp  int     // disparity search range [0, MaxDisp]
	CensusR  int     // census-transform window radius (<= 3 for a 64-bit descriptor)
	P1, P2   float32 // small- and large-jump smoothness penalties, rounded to integer cost units
	Paths    int     // 4 or 8 aggregation directions
	Subpixel bool    // parabola subpixel refinement on the aggregated costs
	// Fixed selects nothing: SGM has one implementation, integer by
	// construction (census costs are small integers). The field stays only
	// because the repository benchmark's workload table assigns it.
	Fixed bool
}

// DefaultSGMOptions returns the configuration used for the "HH/SGBN-class"
// classic baseline in the experiments.
func DefaultSGMOptions() SGMOptions {
	return SGMOptions{MaxDisp: 64, CensusR: 2, P1: 1.0, P2: 8.0, Paths: 8, Subpixel: true}
}

// censusBits returns the descriptor length of a census window of radius r,
// which is also the largest census cost, and panics unless it fits 64 bits.
func censusBits(r int) int {
	if r < 1 || (2*r+1)*(2*r+1)-1 > 64 {
		panic(fmt.Sprintf("stereo: census radius %d out of range", r))
	}
	return (2*r+1)*(2*r+1) - 1
}

// census computes the census transform of im with the given radius: each
// pixel becomes a bit-string recording which neighbours are darker than the
// centre. Radius must be <= 3 so the descriptor fits 64 bits.
func census(im *imgproc.Image, r int) []uint64 {
	return censusInto(make([]uint64, im.W*im.H), im, r)
}

// censusInto is census writing into out, of length im.W·im.H. Rows split
// across par.Workers(); interior columns skip the border clamp.
func censusInto(out []uint64, im *imgproc.Image, r int) []uint64 {
	censusBits(r)
	w, h := im.W, im.H
	par.ForChunked(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			// Columns [x0, x1) are the clamp-free interior; empty on a
			// border row or a frame narrower than the window.
			x0, x1 := 0, 0
			if y >= r && y < h-r && w > 2*r {
				x0, x1 = r, w-r
				censusInterior(out[y*w+r:][:w-2*r], im.Pix, w, y, r)
			}
			for x := 0; x < w; x++ {
				if x == x0 {
					x = x1 // skip the interior; x1 < w since r >= 1
				}
				out[y*w+x] = censusClamped(im, x, y, r)
			}
		}
	})
	return out
}

// censusClamped is one pixel's descriptor with replicate padding, taps in
// raster order, centre skipped: the border form and the definition.
func censusClamped(im *imgproc.Image, x, y, r int) uint64 {
	c := im.At(x, y)
	var desc uint64
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			desc <<= 1
			if im.At(x+dx, y+dy) < c {
				desc |= 1
			}
		}
	}
	return desc
}

// censusInterior fills dst, the descriptors of columns [r, w-r) of row y,
// for a row with r rows above and below it. Each tap is one pass over the
// row: the tap's pixels, the centres and dst are windows of one length, so
// the inner loop carries no clamp and no index check.
func censusInterior(dst []uint64, pix []float32, w, y, r int) {
	n := len(dst)
	centre := pix[y*w+r:][:n]
	clear(dst)
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			tap := pix[(y+dy)*w+r+dx:][:n]
			for i, c := range centre {
				d := dst[i] << 1
				if tap[i] < c {
					d |= 1
				}
				dst[i] = d
			}
		}
	}
}

// Packed lanes. One pixel's nd disparities are n = laneWords(nd) words of
// eight 8-bit lanes, and lane l of word k holds disparity l·n + k: the d±1
// neighbours of word k are the whole words k±1, and only words 0 and n−1
// shift a lane across. Bit 7 of every lane is a guard. Every path cost is
// ≤ M + P2, every row minimum ≤ M (the minimum's own lane adds nothing to
// its matching cost) and every intermediate ≤ M + P1 + P2, so under the
// lane bound no add, subtract or minimum carries into the next lane and
// each lane computes exactly what the scalar recurrence does. The pad lanes
// (d ≥ nd) are held at laneMax − P1 ≥ M + P2: never below a real lane, and
// never below the large-jump term as a neighbour.
//
// Aggregation makes two sweeps over the packed cost volume — a forward pass
// (top-down, left-to-right) carrying the paths from W/NW/N/NE and a
// backward pass (bottom-up, right-to-left) carrying those from E/SE/S/SW —
// and each direction keeps only two rolling rows of path costs. Each entry
// of a rolling row is a pixel's n words and one more holding their lane
// minimum, which the next step of the path needs. Two directions' words
// are added in 8-bit lanes (≤ 2·laneMax), widened once into 16-bit lanes
// and accumulated into the sum volume: 2n words per pixel, the even lanes'
// then the odd lanes', ≤ 8·laneMax, so nothing saturates.
const (
	laneMax   = 127                // the largest value a lane may hold
	laneOnes  = 0x0101010101010101 // 1 in every 8-bit lane
	laneGuard = 0x8080808080808080 // the guard bit of every 8-bit lane
	wideMask  = 0x00FF00FF00FF00FF // the even 8-bit lanes, as 16-bit lanes
)

// laneWords is the number of words holding nd disparities: ⌈nd/8⌉, and at
// least two, so that a pixel's first and last words are different words
// and one step shape serves every nd (a smaller nd only has more pads).
func laneWords(nd int) int { return max(2, (nd+7)/8) }

// laneMin is the lane-wise minimum of a and b, whose lanes are ≤ laneMax.
// t holds 128 + a − b per lane without a borrow between lanes, so its guard
// bit is set exactly where a ≥ b; there a − b is subtracted from a.
func laneMin(a, b uint64) uint64 {
	t := (a | laneGuard) - b
	ge := t & laneGuard
	return a - t&(ge-ge>>7)
}

// rowMins returns the smallest lane of a and that of b, each broadcast to
// every lane. After one halving each, a's four candidate lanes and b's
// share a word and halve together: lane 0 ends with a's minimum, and lane 4,
// which only ever reads b's lanes, with b's.
func rowMins(a, b uint64) (uint64, uint64) {
	a = laneMin(a, a>>32)
	b = laneMin(b, b>>32)
	v := a&0xFFFFFFFF | b<<32
	v = laneMin(v, v>>16)
	v = laneMin(v, v>>8)
	return (v & 0xFF) * laneOnes, (v >> 32 & 0xFF) * laneOnes
}

// sgmLanes is one frame's lane constants.
type sgmLanes struct {
	p1, p2 uint64 // the penalties in every lane
	// lo and hi are laneMax−P1 in lane 0 and lane 7: the missing d−1 of
	// d = 0 and d+1 of d = 8n−1, never cheaper than the large jump.
	lo, hi uint64
	pad    []uint64 // per word, the pad lanes
	fill   []uint64 // per word, laneMax−P1 in the pad lanes
	zero   []uint64 // the entry before a path's start: no cost, minimum 0
}

// reset sets the constants for nd disparities and penalties p1, p2.
func (k *sgmLanes) reset(nd int, p1, p2 uint16) {
	n := laneWords(nd)
	far := uint64(laneMax - p1)
	k.p1, k.p2 = uint64(p1)*laneOnes, uint64(p2)*laneOnes
	k.lo, k.hi = far, far<<56
	k.pad, k.fill, k.zero = imgproc.Grow(k.pad, n), imgproc.Grow(k.fill, n), imgproc.Grow(k.zero, n+1)
	clear(k.zero)
	fills := k.fill[:n]
	for w := range k.pad {
		var pad, fill uint64
		for l := 0; l < 8; l++ {
			if l*n+w >= nd {
				pad |= 0xFF << (8 * l)
				fill |= far << (8 * l)
			}
		}
		k.pad[w], fills[w] = pad, fill
	}
}

// relax is one word of one direction's step: the path costs
//
//	C(d) + min(L(d), L(d−1)+P1, L(d+1)+P1, minL+P2) − minL
//
// of matching costs c, from the predecessor's costs p at the same
// disparities and nb, the smaller of its d−1 and d+1 neighbours plus P1,
// with minL in every lane of mp and minL+P2 in jump; the pad lanes then
// take fill.
func relax(c, p, nb, mp, jump, pad, fill uint64) uint64 {
	return (c+(laneMin(laneMin(p, nb), jump)-mp))&^pad | fill
}

// widen adds the eight 8-bit lanes of s into the 16-bit lanes of even (its
// even lanes) and odd (its odd lanes), or stores them there.
func widen(s, even, odd uint64, store bool) (uint64, uint64) {
	if store {
		even, odd = 0, 0
	}
	return even + s&wideMask, odd + s>>8&wideMask
}

// pairStep advances two directions by one pixel: from the predecessor
// entries ap and bp it writes into a and b each direction's path costs of
// the matching costs cost (relax), and their lane minimum, then adds the
// two into the pixel's sums — sum[k] holds the even 16-bit lanes of word k,
// sum[n+k] the odd ones — or, for the pixel's first visitor (store), writes
// them. The zero entry steps to the matching costs, a path's start.
func pairStep(a, ap, b, bp, cost, sum []uint64, k *sgmLanes, store bool) {
	n := len(k.pad)
	p1, p2, lo, hi := k.p1, k.p2, k.lo, k.hi
	a, ap, b, bp, cost = a[:n+1], ap[:n+1], b[:n+1], bp[:n+1], cost[:n]
	am, bm := ap[n], bp[n] // the predecessors' minima
	even, odd := sum[:n], sum[n:][:n]
	pad, fill := k.pad, k.fill[:n]
	// Words 1..n−2 are the interior: every neighbour is a whole word. The
	// taps and outputs are windows of one length, so prove elides every
	// check, and cutting them first proves n >= 2 for the edge words.
	m := n - 2
	apm, apc, app := ap[:m], ap[1:][:m], ap[2:][:m]
	bpm, bpc, bpp := bp[:m], bp[1:][:m], bp[2:][:m]
	ac, bc, pc, fc := a[1:][:m], b[1:][:m], pad[1:][:m], fill[1:][:m]
	cc, ec, oc := cost[1:][:m], even[1:][:m], odd[1:][:m]
	aj, bj := am+p2, bm+p2
	// Word 0: its d−1 neighbours are word n−1's lanes, one lane up.
	av := relax(cost[0], ap[0], laneMin(ap[n-1]<<8|lo, ap[1])+p1, am, aj, pad[0], fill[0])
	bv := relax(cost[0], bp[0], laneMin(bp[n-1]<<8|lo, bp[1])+p1, bm, bj, pad[0], fill[0])
	a[0], b[0] = av, bv
	even[0], odd[0] = widen(av+bv, even[0], odd[0], store)
	aLeast, bLeast := av, bv
	for i, c := range cc {
		av := relax(c, apc[i], laneMin(apm[i], app[i])+p1, am, aj, pc[i], fc[i])
		bv := relax(c, bpc[i], laneMin(bpm[i], bpp[i])+p1, bm, bj, pc[i], fc[i])
		ac[i], bc[i] = av, bv
		ec[i], oc[i] = widen(av+bv, ec[i], oc[i], store)
		aLeast, bLeast = laneMin(aLeast, av), laneMin(bLeast, bv)
	}
	// Word n−1: its d+1 neighbours are word 0's lanes, one lane down.
	av = relax(cost[n-1], ap[n-1], laneMin(ap[n-2], ap[0]>>8|hi)+p1, am, aj, pad[n-1], fill[n-1])
	bv = relax(cost[n-1], bp[n-1], laneMin(bp[n-2], bp[0]>>8|hi)+p1, bm, bj, pad[n-1], fill[n-1])
	a[n-1], b[n-1] = av, bv
	even[n-1], odd[n-1] = widen(av+bv, even[n-1], odd[n-1], store)
	a[n], b[n] = rowMins(laneMin(aLeast, av), laneMin(bLeast, bv))
}

// costVolume writes the packed census-Hamming cost volume into vol, n words
// per pixel in raster order; cells whose right-view column falls outside
// the image get the worst cost, the full descriptor length, and pad lanes 0.
func costVolume(vol, cl, cr []uint64, w, h, nd, censusR int) {
	n := laneWords(nd)
	worst := uint64(censusBits(censusR))
	par.ForChunked(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			crRow := cr[y*w:][:w]
			for x, l := range cl[y*w:][:w] {
				words := vol[(y*w+x)*n:][:n]
				seen := min(nd, x+1) // disparities whose column is in view
				for k := range words {
					var word uint64
					lane, d := 0, k
					for ; d < seen; lane, d = lane+1, d+n {
						word |= uint64(bits.OnesCount64(l^crRow[x-d])) << (8 * lane)
					}
					for ; d < nd; lane, d = lane+1, d+n {
						word |= worst << (8 * lane)
					}
					words[k] = word
				}
			}
		}
	})
}

// sgmDir is one direction's pair of rolling rows of entries.
type sgmDir struct {
	prev, cur []uint64
}

func (s *sgmDir) grow(n int) {
	s.prev, s.cur = imgproc.Grow(s.prev, n), imgproc.Grow(s.cur, n)
}

func (s *sgmDir) swap() { s.prev, s.cur = s.cur, s.prev }

// sgmRows is one sweep's rolling state: the horizontal path needs only the
// previous pixel's entry, the others the previous row's.
type sgmRows struct {
	hor         []uint64 // two entries, alternating
	ver, dl, dr sgmDir
}

// sgmScratch is one key frame's working memory, recycled across frames
// through sgmFree.
type sgmScratch struct {
	cl, cr    []uint64 // census descriptors of the two views
	cost, sum []uint64 // packed cost volume and path-cost sums
	lanes     sgmLanes
	rows      [2]sgmRows // one per sweep
}

// sgmFree holds the scratch of finished frames, as refineFree does the
// refine's: as many as SGM calls ever ran at once.
var sgmFree imgproc.FreeList[sgmScratch]

// aggregate sums the path costs of sc.cost over 4 or 8 directions into
// sc.sum. With a second worker the two sweeps run at once over the one
// volume: each covers its own half of the rows, writing them, they meet
// once, then each adds into the half the other has left, so no cell is
// touched by both at a time. Integer adds that cannot saturate commute, so
// the volume is the serial one bit for bit. A frame of fewer than two rows
// has no two halves — a lone sweep would wait forever — and runs serially.
func (sc *sgmScratch) aggregate(w, h, nd, paths int, p1, p2 uint16) {
	n := laneWords(nd)
	sc.lanes.reset(nd, p1, p2)
	sc.sum = imgproc.Grow(sc.sum, 2*w*h*n)
	diag := paths == 8
	for i := range sc.rows {
		r := &sc.rows[i]
		r.hor = imgproc.Grow(r.hor, 2*(n+1))
		r.ver.grow(w * (n + 1))
		if diag {
			r.dl.grow(w * (n + 1))
			r.dr.grow(w * (n + 1))
		}
	}
	if h < 2 || par.Workers() < 2 {
		sgmSweep(sc, &sc.rows[0], w, h, diag, +1, h, nil)
		sgmSweep(sc, &sc.rows[1], w, h, diag, -1, 0, nil)
		return
	}
	var met, done sync.WaitGroup
	met.Add(2)
	done.Add(1)
	go func() {
		defer done.Done()
		sgmSweep(sc, &sc.rows[1], w, h, diag, -1, h-h/2, &met)
	}()
	sgmSweep(sc, &sc.rows[0], w, h, diag, +1, h/2, &met)
	done.Wait()
}

// sgmSweep makes one raster pass over the volume — top-down, left-to-right
// for step +1, the mirror image for step -1 — and accumulates into sc.sum
// the path costs of the directions whose predecessor that order has already
// visited: the horizontal one (x-step, y), the vertical one (x, y-step) and,
// with diag, both diagonals (x∓1, y-step). Its first `first` rows are those
// it reaches before the opposite sweep: it writes their sums rather than
// adding to them. A non-nil met is the rendezvous with the opposite sweep
// (h >= 2), reached after those rows.
func sgmSweep(sc *sgmScratch, r *sgmRows, w, h int, diag bool, step, first int, met *sync.WaitGroup) {
	k := &sc.lanes
	n := len(k.pad)
	e := n + 1
	zero := k.zero[:e]
	x0, y0 := 0, 0
	if step < 0 {
		x0, y0 = w-1, h-1
	}
	for i, y := 0, y0; i < h; i, y = i+1, y+step {
		if met != nil && i == first {
			met.Done()
			met.Wait()
		}
		store := i < first
		r.ver.swap()
		if diag {
			r.dl.swap()
			r.dr.swap()
		}
		hor := zero
		for j, x := 0, x0; j < w; j, x = j+1, x+step {
			p := y*w + x
			cost := sc.cost[p*n:][:n]
			sum := sc.sum[2*p*n:][:2*n]
			b := x * e
			hCur := r.hor[(j&1)*e:][:e]
			ver := zero
			if i > 0 {
				ver = r.ver.prev[b:][:e]
			}
			pairStep(hCur, hor, r.ver.cur[b:][:e], ver, cost, sum, k, store)
			hor = hCur
			if diag {
				dl, dr := zero, zero
				if x > 0 && i > 0 {
					dl = r.dl.prev[b-e:][:e]
				}
				if x+1 < w && i > 0 {
					dr = r.dr.prev[b+e:][:e]
				}
				pairStep(r.dl.cur[b:][:e], dl, r.dr.cur[b:][:e], dr, cost, sum, k, false)
			}
		}
	}
}

// SGM computes a disparity map with semi-global matching: census costs
// aggregated along opt.Paths directions with penalties P1/P2, followed by
// winner-take-all and optional subpixel refinement. It panics on options
// outside the lane bound (see SGMOptions).
func SGM(left, right *imgproc.Image, opt SGMOptions) *imgproc.Image {
	if left.W != right.W || left.H != right.H {
		panic("stereo: image sizes differ")
	}
	if opt.Paths != 4 && opt.Paths != 8 {
		panic(fmt.Sprintf("stereo: SGM paths must be 4 or 8, got %d", opt.Paths))
	}
	if opt.MaxDisp < 0 {
		panic(fmt.Sprintf("stereo: SGM MaxDisp %d is negative", opt.MaxDisp))
	}
	worst := censusBits(opt.CensusR)
	p1, p2 := roundPenalty(opt.P1), roundPenalty(opt.P2)
	if worst+int(p1)+int(p2) > laneMax {
		panic(fmt.Sprintf("stereo: SGM census cost %d + P1 %d + P2 %d exceeds the lane bound %d", worst, p1, p2, laneMax))
	}
	w, h, nd := left.W, left.H, opt.MaxDisp+1
	sc := sgmFree.Get()
	defer sgmFree.Put(sc)
	sc.cl = censusInto(imgproc.Grow(sc.cl, w*h), left, opt.CensusR)
	sc.cr = censusInto(imgproc.Grow(sc.cr, w*h), right, opt.CensusR)
	sc.cost = imgproc.Grow(sc.cost, w*h*laneWords(nd))
	costVolume(sc.cost, sc.cl, sc.cr, w, h, nd, opt.CensusR)
	sc.aggregate(w, h, nd, opt.Paths, p1, p2)
	return wtaVolume(sc.sum, w, h, nd, opt.Subpixel)
}

// wtaVolume reads a packed sum volume out into disparities: winner-take-all
// restricted to d <= x with optional subpixel refinement.
func wtaVolume(sum []uint64, w, h, nd int, subpixel bool) *imgproc.Image {
	n := laneWords(nd)
	out := imgproc.NewImage(w, h)
	par.ForChunked(h, func(y0, y1 int) {
		for p := y0 * w; p < y1*w; p++ {
			out.Pix[p] = readout(sum[2*p*n:][:2*n], n, min(nd-1, p%w), subpixel)
		}
	})
	return out
}

// readout picks a disparity from one pixel's packed sums: the first
// minimum over d <= hi, with the optional parabola fit.
func readout(sum []uint64, n, hi int, subpixel bool) float32 {
	best, bestD := uint64(math.MaxUint64), 0
	for l := 0; l < 8 && l*n <= hi; l++ {
		words := sum[(l&1)*n:][:min(n, hi-l*n+1)]
		shift := 16 * (l >> 1)
		for k, word := range words {
			if c := word >> shift & 0xFFFF; c < best {
				best, bestD = c, l*n+k
			}
		}
	}
	disp := float64(bestD)
	if subpixel && bestD > 0 && bestD < hi {
		disp += subpixelFit(float64(laneSum(sum, n, bestD-1)), float64(best), float64(laneSum(sum, n, bestD+1)))
	}
	return float32(disp)
}

// laneSum is disparity d's sum in one pixel's packed sums.
func laneSum(sum []uint64, n, d int) uint64 {
	l := d / n
	return sum[(l&1)*n+d-l*n] >> (16 * (l >> 1)) & 0xFFFF
}

// SGMMACs estimates the arithmetic cost of SGM on a w×h frame: census
// construction, cost-volume Hamming distances, and per-path DP updates.
func SGMMACs(w, h int, opt SGMOptions) int64 {
	pix := int64(w) * int64(h)
	nd := int64(opt.MaxDisp + 1)
	censusTaps := int64((2*opt.CensusR+1)*(2*opt.CensusR+1) - 1)
	costOps := pix * nd // one Hamming distance per cell
	dpOps := pix * nd * int64(opt.Paths) * 4
	return 2*pix*censusTaps + costOps + dpOps
}
