package stereo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The key frame's two parallel stages are held, cell for cell, to serial
// references: aggregate to the two sweeps run back to back with no
// rendezvous, census to naiveCensus. Heights 1..3 put the meeting row on the
// first, the last or no row of a sweep; widths 1 and 7 are narrower than a
// census window.
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

func TestAggregateMatchesSerialSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	saturated := false
	for _, h := range parallelHeights {
		for wi, w := range parallelWidths {
			nd := []int{1, 2, 7, 9}[wi] // 1 and 2 are sgmStep's peeled cases
			cost := make([]uint8, w*h*nd)
			// Disparity 0 is cheap and the rest dear, so under penalties too
			// large to switch the others' path costs grow by ~220 a pixel
			// and the eight-path sum of a mid-frame cell passes 65535.
			for i := range cost {
				cost[i] = uint8(200 + rng.Intn(56))
				if i%nd == 0 {
					cost[i] = uint8(rng.Intn(16))
				}
			}
			for _, paths := range []int{4, 8} {
				for _, pen := range [][2]uint16{{1, 8}, {4000, 20000}} {
					t.Setenv("ASV_WORKERS", "1")
					want := make([]uint16, w*h*nd)
					sgmSweep(cost, want, w, h, nd, paths == 8, +1, nil, pen[0], pen[1])
					sgmSweep(cost, want, w, h, nd, paths == 8, -1, nil, pen[0], pen[1])
					saturated = saturated || slices.Contains(want, 65535)
					for _, workers := range parallelWorkers {
						t.Setenv("ASV_WORKERS", workers)
						name := fmt.Sprintf("%dx%dx%d paths=%d P1=%d P2=%d workers=%s", w, h, nd, paths, pen[0], pen[1], workers)
						var got []uint16
						within(t, name, func() { got = aggregate(cost, w, h, nd, paths, pen[0], pen[1]) })
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("%s: cell %d (row %d): got %d, serial sweeps give %d", name, i, i/(w*nd), got[i], want[i])
						}
					}
				}
			}
		}
	}
	if !saturated {
		t.Fatal("no case saturated a cell: the penalties no longer exercise the saturating add")
	}
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
