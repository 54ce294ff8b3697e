package stereo

import (
	"fmt"
	"math/bits"
	"sync"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// SGMOptions configures semi-global matching.
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

// census computes the census transform of im with the given radius: each
// pixel becomes a bit-string recording which neighbours are darker than the
// centre. Radius must be <= 3 so the descriptor fits 64 bits. Rows split
// across par.Workers(); interior columns skip the border clamp.
func census(im *imgproc.Image, r int) []uint64 {
	if r < 1 || (2*r+1)*(2*r+1)-1 > 64 {
		panic(fmt.Sprintf("stereo: census radius %d out of range", r))
	}
	w, h := im.W, im.H
	out := make([]uint64, w*h)
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

// Aggregation makes two sweeps over the uint8 census-cost volume — a forward
// pass (top-down, left-to-right) carrying the paths from W/NW/N/NE and a
// backward pass (bottom-up, right-to-left) carrying those from E/SE/S/SW —
// and each direction keeps only two rolling rows of uint16 path costs
// (2·W·D cells).
// Path costs are accumulated into one uint16 sum volume with saturating adds
// as they are produced, so the working set per row is a few hundred KiB
// instead of one full volume per direction.

// costVolume builds the uint8 census-Hamming cost volume
// C[(y*W+x)*(D+1)+d]; cells whose right-view column falls outside the image
// get the worst cost, the full descriptor length.
func costVolume(cl, cr []uint64, w, h, nd, censusR int) []uint8 {
	maxCost := uint8((2*censusR+1)*(2*censusR+1) - 1)
	vol := make([]uint8, w*h*nd)
	par.For(h, func(y int) {
		row := y * w
		clRow := cl[row:][:w]
		crRow := cr[row:][:w]
		for x := 0; x < w; x++ {
			cells := vol[(row+x)*nd:][:nd]
			l := clRow[x]
			hi := min(nd, x+1)
			for d := 0; d < hi; d++ {
				cells[d] = uint8(bits.OnesCount64(l ^ crRow[x-d]))
			}
			for d := hi; d < nd; d++ {
				cells[d] = maxCost
			}
		}
	})
	return vol
}

// sgmStep computes one pixel's path costs dst[0:nd] along a direction
// from the predecessor's costs prev (nil at a path start, where dst is a
// copy of the matching costs), then accumulates dst into sum with saturating
// adds. The d loop is peeled at both ends so the interior is branch-free:
// per disparity it is two saturating adds, three mins and a subtraction, the
// form that maps onto conditional moves.
func sgmStep(dst, prev, sum []uint16, costRow []uint8, nd int, p1, p2 uint16) {
	if nd <= 0 {
		return
	}
	// Pinning every slice length to nd (and branching on nd < 2, so the
	// tail below runs with nd >= 2 proven) lets prove drop all per-disparity
	// bounds checks; perf_contract.json holds this function to zero.
	dst = dst[:nd]
	sum = sum[:nd]
	costRow = costRow[:nd]
	if prev == nil {
		for d := 0; d < nd; d++ {
			c := uint16(costRow[d])
			dst[d] = c
			sum[d] = satAdd16(sum[d], c)
		}
		return
	}
	prev = prev[:nd]
	minPrev := prev[0]
	for d := 1; d < nd; d++ {
		minPrev = min(minPrev, prev[d])
	}
	jump := satAdd16(minPrev, p2)
	if nd < 2 {
		v := satAdd16(uint16(costRow[0]), min(prev[0], jump)-minPrev)
		dst[0] = v
		sum[0] = satAdd16(sum[0], v)
		return
	}
	// d = 0: no d-1 neighbour.
	best := min(min(prev[0], satAdd16(prev[1], p1)), jump)
	v := satAdd16(uint16(costRow[0]), best-minPrev)
	dst[0] = v
	sum[0] = satAdd16(sum[0], v)
	// Interior, d in [1, nd-2]: the three prev taps and the three outputs
	// are windows sharing one length, so prove elides every check.
	n := nd - 2
	pm := prev[:n]
	pc := prev[1:][:n]
	pp := prev[2:][:n]
	dc := dst[1:][:n]
	sc := sum[1:][:n]
	cc := costRow[1:][:n]
	for i, pcv := range pc {
		best = min(min(pcv, jump), satAdd16(min(pm[i], pp[i]), p1))
		v = satAdd16(uint16(cc[i]), best-minPrev)
		dc[i] = v
		sc[i] = satAdd16(sc[i], v)
	}
	// d = nd-1: no d+1 neighbour.
	best = min(min(prev[nd-1], satAdd16(prev[nd-2], p1)), jump)
	v = satAdd16(uint16(costRow[nd-1]), best-minPrev)
	dst[nd-1] = v
	sum[nd-1] = satAdd16(sum[nd-1], v)
}

// sgmRolling is one direction's pair of rolling Lr rows.
type sgmRolling struct {
	prev, cur []uint16 // w*nd path costs of the previous and current row
}

func newSGMRolling(w, nd int) *sgmRolling {
	return &sgmRolling{prev: make([]uint16, w*nd), cur: make([]uint16, w*nd)}
}

func (s *sgmRolling) swap() { s.prev, s.cur = s.cur, s.prev }

// aggregate sums the SGM path costs over 4 or 8 directions into a uint16
// volume with the same layout as cost. With a second worker the two sweeps
// run at once over the one volume: each covers its own half of the rows,
// they meet once, then each finishes in the half the other has left, so no
// cell is touched by both at a time. Saturating adds of non-negative costs
// commute and associate (a cell is min(total, 65535) in any order), so the
// volume is the serial one bit for bit. A frame of fewer than two rows has
// no two halves — a lone sweep would wait forever — and runs serially.
func aggregate(cost []uint8, w, h, nd, paths int, p1, p2 uint16) []uint16 {
	sum := make([]uint16, w*h*nd)
	diag := paths == 8
	if h < 2 || par.Workers() < 2 {
		sgmSweep(cost, sum, w, h, nd, diag, +1, nil, p1, p2)
		sgmSweep(cost, sum, w, h, nd, diag, -1, nil, p1, p2)
		return sum
	}
	var met, done sync.WaitGroup
	met.Add(2)
	done.Add(1)
	go func() {
		defer done.Done()
		sgmSweep(cost, sum, w, h, nd, diag, -1, &met, p1, p2)
	}()
	sgmSweep(cost, sum, w, h, nd, diag, +1, &met, p1, p2)
	done.Wait()
	return sum
}

// sgmSweep makes one raster pass over the volume — top-down, left-to-right
// for step +1, the mirror image for step -1 — and accumulates into sum the
// path costs of the directions whose predecessor that order has already
// visited: the horizontal one (x-step, y), the vertical one (x, y-step) and,
// with diag, both diagonals (x∓1, y-step). A non-nil met is the rendezvous
// with the opposite sweep (h >= 2): until both arrive the forward sweep
// stays in rows [0, h/2) and the backward sweep in [h/2, h).
func sgmSweep(cost []uint8, sum []uint16, w, h, nd int, diag bool, step int, met *sync.WaitGroup, p1, p2 uint16) {
	hor, ver := newSGMRolling(w, nd), newSGMRolling(w, nd)
	var dl, dr *sgmRolling
	if diag {
		dl, dr = newSGMRolling(w, nd), newSGMRolling(w, nd)
	}
	x0, y0, meet := 0, 0, h/2
	if step < 0 {
		x0, y0, meet = w-1, h-1, h-h/2
	}
	for i, y := 0, y0; i < h; i, y = i+1, y+step {
		if met != nil && i == meet {
			met.Done()
			met.Wait()
		}
		hor.swap()
		ver.swap()
		if diag {
			dl.swap()
			dr.swap()
		}
		rowBase := y * w * nd
		for j, x := 0, x0; j < w; j, x = j+1, x+step {
			b := x * nd
			costRow := cost[rowBase+b : rowBase+b+nd]
			sumRow := sum[rowBase+b : rowBase+b+nd]
			var pHor, pVer []uint16
			if j > 0 {
				pHor = hor.cur[b-step*nd:][:nd]
			}
			if i > 0 {
				pVer = ver.prev[b : b+nd]
			}
			sgmStep(hor.cur[b:b+nd], pHor, sumRow, costRow, nd, p1, p2)
			sgmStep(ver.cur[b:b+nd], pVer, sumRow, costRow, nd, p1, p2)
			if diag {
				var pDL, pDR []uint16
				if x > 0 && i > 0 {
					pDL = dl.prev[b-nd : b]
				}
				if x+1 < w && i > 0 {
					pDR = dr.prev[b+nd : b+2*nd]
				}
				sgmStep(dl.cur[b:b+nd], pDL, sumRow, costRow, nd, p1, p2)
				sgmStep(dr.cur[b:b+nd], pDR, sumRow, costRow, nd, p1, p2)
			}
		}
	}
}

// SGM computes a disparity map with semi-global matching: census costs
// aggregated along opt.Paths directions with penalties P1/P2, followed by
// winner-take-all and optional subpixel refinement.
func SGM(left, right *imgproc.Image, opt SGMOptions) *imgproc.Image {
	if left.W != right.W || left.H != right.H {
		panic("stereo: image sizes differ")
	}
	if opt.Paths != 4 && opt.Paths != 8 {
		panic(fmt.Sprintf("stereo: SGM paths must be 4 or 8, got %d", opt.Paths))
	}
	w, h, nd := left.W, left.H, opt.MaxDisp+1
	cost := costVolume(census(left, opt.CensusR), census(right, opt.CensusR), w, h, nd, opt.CensusR)
	sum := aggregate(cost, w, h, nd, opt.Paths, roundPenalty(opt.P1), roundPenalty(opt.P2))
	return wtaVolume(sum, w, h, nd, opt.Subpixel)
}

// wtaVolume reads a summed cost volume (pixel-major, disparity innermost)
// out into disparities: winner-take-all restricted to d <= x with optional
// subpixel refinement.
func wtaVolume(sum []uint16, w, h, nd int, subpixel bool) *imgproc.Image {
	out := imgproc.NewImage(w, h)
	par.For(h, func(y int) {
		for x := 0; x < w; x++ {
			cells := sum[(y*w+x)*nd:][:nd]
			bestD := 0
			hi := min(nd-1, x)
			for d := 1; d <= hi; d++ {
				if cells[d] < cells[bestD] {
					bestD = d
				}
			}
			disp := float64(bestD)
			if subpixel && bestD > 0 && bestD < hi {
				disp += subpixelFit(float64(cells[bestD-1]), float64(cells[bestD]), float64(cells[bestD+1]))
			}
			out.Set(x, y, float32(disp))
		}
	})
	return out
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
