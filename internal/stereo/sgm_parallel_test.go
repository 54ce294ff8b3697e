package stereo

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"asv/internal/imgproc"
	"asv/internal/testkit"
)

// The key frame's two parallel stages are held, cell for cell, to serial
// references: aggregate to naiveAggregate's per-direction volumes, census to
// naiveCensus. Heights 1..3 put the meeting row on the first, the last or no
// row of a sweep; widths 1 and 7 are narrower than a census window.
var (
	parallelHeights = []int{1, 2, 3, 19, 96}
	parallelWidths  = []int{1, 7, 37, 160}
	parallelWorkers = []string{"1", "2", "3"}
)

// within runs f and fails the test if it has not returned after a few
// seconds: a sweep that never reaches the rendezvous must read as a lost
// rendezvous, not as the package timeout ten minutes later.
func within(t *testing.T, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no result after 10s — a sweep is waiting at a rendezvous the other never reaches", name)
	}
}

// aggregate runs the packed kernel on a cost volume in the references'
// layout — uint8 cells, pixel-major, disparity innermost — and returns its
// sums in that layout as uint16 cells.
func aggregate(cost []uint8, w, h, nd, paths int, p1, p2 uint16) []uint16 {
	n := laneWords(nd)
	sc := new(sgmScratch)
	sc.cost = make([]uint64, w*h*n)
	for p := 0; p < w*h; p++ {
		for d := 0; d < nd; d++ {
			sc.cost[p*n+d%n] |= uint64(cost[p*nd+d]) << (8 * (d / n))
		}
	}
	sc.aggregate(w, h, nd, paths, p1, p2)
	sum := make([]uint16, w*h*nd)
	for p := 0; p < w*h; p++ {
		for d := 0; d < nd; d++ {
			sum[p*nd+d] = uint16(laneSum(sc.sum[2*p*n:][:2*n], n, d))
		}
	}
	return sum
}

// Every lane-boundary case of nd (one word, a full word, one lane into the
// next, ...) meets the heights and widths in turn, under the default
// penalties and under penalties at the lane bound for each census radius,
// where path costs reach laneMax − P1 and every lane is one step from its
// guard bit.
func TestAggregateSweepsMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	nds := []int{1, 2, 7, 8, 9, 16, 17, 33, 41}
	penalties := []struct {
		r      int // census radius: costs in [0, M]
		p1, p2 uint16
	}{
		{2, 1, 8},   // the defaults
		{1, 1, 118}, // M + P1 + P2 = 127 from here on
		{2, 40, 63},
		{3, 60, 19},
	}
	combo := 0
	for _, h := range parallelHeights {
		for _, w := range parallelWidths {
			nd := nds[combo%len(nds)]
			combo++
			for _, pen := range penalties {
				m := censusBits(pen.r)
				// Worst-cost runs and free cells make long jumps: the path
				// costs climb to M + P2 and the minimum drops to 0.
				cost := make([]uint8, w*h*nd)
				for i := range cost {
					switch c := rng.Intn(8); {
					case c < 3:
						cost[i] = uint8(m)
					case c == 3:
						cost[i] = 0
					default:
						cost[i] = uint8(rng.Intn(m + 1))
					}
				}
				for _, paths := range []int{4, 8} {
					want := naiveAggregate[uint16](cost, w, h, nd, paths, pen.p1, pen.p2)
					for _, workers := range parallelWorkers {
						t.Setenv("ASV_WORKERS", workers)
						name := fmt.Sprintf("%dx%dx%d paths=%d M=%d P1=%d P2=%d workers=%s", w, h, nd, paths, m, pen.p1, pen.p2, workers)
						var got []uint16
						within(t, name, func() { got = aggregate(cost, w, h, nd, paths, pen.p1, pen.p2) })
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("%s: cell %d (row %d): got %d, the reference gives %d", name, i, i/(w*nd), got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// SGM refuses penalties whose path costs could overflow a lane, naming the
// bound, and runs at the bound itself.
func TestSGMRejectsPenaltiesBeyondLaneBound(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	left, right := randPair(rng, 23, 11, false)
	opt := SGMOptions{MaxDisp: 9, CensusR: 2, P1: 1, P2: 103, Paths: 8, Subpixel: true} // 24 + 1 + 103 = 128
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "lane bound 127") {
				t.Fatalf("M + P1 + P2 = 128: panic %q, want one naming the lane bound 127", msg)
			}
		}()
		SGM(left, right, opt)
	}()
	opt.P2 = 102
	sameImage(t, "M + P1 + P2 = 127", SGM(left, right, opt), naiveSGM(left, right, opt))
}

// census is censusInto on a fresh slice.
func census(im *imgproc.Image, r int) []uint64 {
	return censusInto(make([]uint64, im.W*im.H), im, r)
}

func TestCensusMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, h := range parallelHeights {
		for _, w := range parallelWidths {
			im := randImage(rng, w, h, false)
			for r := 1; r <= 3; r++ {
				want := naiveCensus(im, r)
				for _, workers := range parallelWorkers {
					t.Setenv("ASV_WORKERS", workers)
					if i := firstDiff(census(im, r), want); i >= 0 {
						t.Fatalf("%dx%d r=%d workers=%s: pixel (%d,%d) differs from the all-At reference", w, h, r, workers, i%w, i/w)
					}
				}
			}
		}
	}
}

// firstDiff returns the first index at which the equal-length a and b
// differ, -1 if none.
func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// BenchmarkSGMStages times three stages of a key frame's SGM apart, each in
// ns per output pixel: the census transform of both views, the path
// aggregation and the winner-take-all readout.
func BenchmarkSGMStages(b *testing.B) {
	const w, h = 160, 96
	left, right, _ := constPair(w, h, 8)
	opt := DefaultSGMOptions()
	opt.MaxDisp = 32
	nd, p1, p2 := opt.MaxDisp+1, roundPenalty(opt.P1), roundPenalty(opt.P2)
	sc := &sgmScratch{cl: census(left, opt.CensusR), cr: census(right, opt.CensusR),
		cost: make([]uint64, w*h*laneWords(nd))}
	costVolume(sc.cost, sc.cl, sc.cr, w, h, nd, opt.CensusR)
	sc.aggregate(w, h, nd, opt.Paths, p1, p2)
	for _, stage := range []struct {
		name string
		run  func()
	}{
		{"census-transform", func() { censusInto(sc.cl, left, opt.CensusR); censusInto(sc.cr, right, opt.CensusR) }},
		{"sgm-aggregate", func() { sc.aggregate(w, h, nd, opt.Paths, p1, p2) }},
		{"wta", func() { wtaVolume(sc.sum, w, h, nd, opt.Subpixel) }},
	} {
		b.Run(stage.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stage.run()
			}
			testkit.ReportNsPerPx(b, w*h)
		})
	}
}
