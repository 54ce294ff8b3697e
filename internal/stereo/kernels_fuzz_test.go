package stereo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"asv/internal/imgproc"
)

// FuzzLaneMin holds the packed minimum to the scalar one in every lane, for
// lanes within laneMax. Run via `make fuzz-smoke` or `go test
// -fuzz=FuzzLaneMin ./internal/stereo`.
func FuzzLaneMin(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0x7F007F007F007F00), uint64(0x007F007F007F007F))
	f.Add(uint64(0x0102030405060708), uint64(0x0807060504030201))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		a, b = a&^laneGuard, b&^laneGuard
		got := laneMin(a, b)
		for l := 0; l < 64; l += 8 {
			if x, y, g := uint8(a>>l), uint8(b>>l), uint8(got>>l); g != min(x, y) {
				t.Fatalf("laneMin(%#x, %#x) lane %d = %d, want min(%d, %d)", a, b, l/8, g, x, y)
			}
		}
	})
}

// FuzzPackedStepMatchesScalar holds one packed pixel step to the scalar
// recurrence: any census radius, penalties within the lane bound, nd from
// one lane to nine words, and two directions, the first from a predecessor
// whose costs a path could have reached (each ≤ M + P2, the least ≤ M), the
// second from another or, with start, from a path's start. Every real lane,
// every pad lane and the carried minimum of both must come out as the
// scalar step's, and so must the pixel's sums, written or added to.
func FuzzPackedStepMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(1), uint8(1), uint8(8), false)
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(3), uint8(40), uint8(2), uint8(100), uint8(3), false)
	f.Add(int64(4), uint8(8), uint8(0), uint8(0), uint8(118), true)
	f.Fuzz(func(t *testing.T, seed int64, nd8, r8, p18, p28 uint8, start bool) {
		rng := rand.New(rand.NewSource(seed))
		nd, m := 1+int(nd8)%72, censusBits(1+int(r8)%3)
		p1 := int(p18) % (laneMax - m + 1)
		p2 := int(p28) % (laneMax - m - p1 + 1)
		n := laneWords(nd)
		var k sgmLanes
		k.reset(nd, uint16(p1), uint16(p2))
		// pack lays v out in lanes, pad in the pad lanes, least in the
		// entry's last word.
		pack := func(v []int, pad, least int) []uint64 {
			words := make([]uint64, n+1)
			for i := 0; i < 8*n; i++ {
				c := pad
				if i < nd {
					c = v[i]
				}
				words[i%n] |= uint64(c) << (8 * (i / n))
			}
			words[n] = uint64(least) * laneOnes
			return words
		}
		cost := make([]int, nd)
		for d := range cost {
			cost[d] = rng.Intn(m + 1)
		}
		var in, want [2][]uint64
		var path [2][]int
		for dir := range in {
			prev := make([]int, nd)
			if dir == 0 || !start {
				for d := range prev {
					prev[d] = rng.Intn(m + p2 + 1)
				}
				prev[rng.Intn(nd)] = rng.Intn(m + 1)
			}
			least := slices.Min(prev)
			path[dir] = make([]int, nd)
			for d := range prev {
				best := min(prev[d], least+p2)
				if d > 0 {
					best = min(best, prev[d-1]+p1)
				}
				if d+1 < nd {
					best = min(best, prev[d+1]+p1)
				}
				path[dir][d] = cost[d] + best - least
			}
			in[dir] = pack(prev, laneMax-p1, least)
			if dir == 1 && start {
				in[dir] = k.zero
			}
			want[dir] = pack(path[dir], laneMax-p1, slices.Min(path[dir]))
		}
		// The sums hold a first visitor's four paths or nothing yet.
		store := rng.Intn(2) == 0
		before := make([]int, 8*n)
		for i := range before {
			before[i] = rng.Intn(4*laneMax + 1)
		}
		sum := make([]uint64, 2*n)
		for i, v := range before {
			sum[(i/n)%2*n+i%n] |= uint64(v) << (16 * (i / n / 2))
		}
		out := [2][]uint64{make([]uint64, n+1), make([]uint64, n+1)}
		pairStep(out[0], in[0], out[1], in[1], pack(cost, 0, 0)[:n], sum, &k, store)
		name := fmt.Sprintf("nd=%d M=%d P1=%d P2=%d start=%v store=%v", nd, m, p1, p2, start, store)
		for dir := range out {
			if i := firstDiff(out[dir], want[dir]); i >= 0 {
				t.Fatalf("%s: direction %d word %d = %#x, want %#x", name, dir, i, out[dir][i], want[dir][i])
			}
		}
		for d := 0; d < nd; d++ {
			w := path[0][d] + path[1][d]
			if !store {
				w += before[d]
			}
			if got := laneSum(sum, n, d); got != uint64(w) {
				t.Fatalf("%s: sum at d=%d is %d, want %d", name, d, got, w)
			}
		}
	})
}

// FuzzRefineMatchesReference holds the row-sum refine to the per-candidate
// reference on arbitrary frames: sizes from one pixel to two strips and
// more, block radii 0–3, search radii 0–4, [0,1] samples (dyadic or not,
// with flat patches for ties), and guides that run off both ends of the
// row or are not finite. The SAD and census costs are integers, exact in
// any order, so every output must match in bits.
func FuzzRefineMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(23), uint8(17), uint8(2), uint8(3), uint8(12), false)
	f.Add(int64(2), uint8(6), uint8(40), uint8(3), uint8(1), uint8(3), true)
	f.Add(int64(3), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(4), uint8(40), uint8(3), uint8(1), uint8(4), uint8(40), false)
	f.Fuzz(func(t *testing.T, seed int64, w8, h8, br8, r8, span8 uint8, dyadic bool) {
		w, h := 1+int(w8)%48, 1+int(h8)%72
		br, searchR, span := int(br8)%4, int(r8)%5, 1+int(span8)%48
		rng := rand.New(rand.NewSource(seed))
		left, right := randPair(rng, w, h, dyadic)
		init := imgproc.NewImage(w, h)
		odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30, -1e30}
		for i := range init.Pix {
			init.Pix[i] = float32(rng.Float64()*float64(span) - float64(searchR+1))
			if rng.Intn(50) == 0 {
				init.Pix[i] = odd[rng.Intn(len(odd))]
			}
		}
		for _, cen := range []int{0, 2} {
			opt := BMOptions{BlockR: br, Subpixel: true, Census: cen}
			want := naiveRefine(refPixelCost(left, right, true, cen, math.Inf(1)), init, searchR, opt)
			sameImage(t, fmt.Sprintf("%dx%d br=%d R=%d census=%d", w, h, br, searchR, cen),
				Refine(left, right, init, searchR, opt), want)
		}
	})
}
