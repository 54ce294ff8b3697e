package stereo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"asv/internal/imgproc"
)

// FuzzSatAdd checks the saturating add and the absolute-difference cost row
// against wide-integer references on arbitrary inputs. Run via `make
// fuzz-smoke` or `go test -fuzz=FuzzSatAdd ./internal/stereo`.
func FuzzSatAdd(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint16(65535), uint16(1), uint8(255), uint8(0))
	f.Add(uint16(32768), uint16(32767), uint8(7), uint8(200))
	f.Fuzz(func(t *testing.T, a, b uint16, p, q uint8) {
		wide := min(uint32(a)+uint32(b), 65535)
		if got := satAdd16(a, b); uint32(got) != wide {
			t.Fatalf("satAdd16(%d,%d) = %d, want %d", a, b, got, wide)
		}
		if satAdd16(a, b) != satAdd16(b, a) {
			t.Fatalf("satAdd16 not commutative on (%d,%d)", a, b)
		}
		diff := int(p) - int(q)
		if diff < 0 {
			diff = -diff
		}
		var got [1]uint16
		adRowCost([]uint8{p}, []uint8{q}, 1, uint16(255))(0, 0, got[:])
		if int(got[0]) != diff {
			t.Fatalf("adRowCost(%d,%d) = %d, want %d", p, q, got[0], diff)
		}
	})
}

// FuzzSatAddAssoc pins the algebra the shared SGM sum volume rests on: a
// chain of saturating adds is min(total, 65535) however it is bracketed, so
// with FuzzSatAdd's commutativity a cell's value does not depend on the
// order in which the two concurrent sweeps reach it.
func FuzzSatAddAssoc(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0))
	f.Add(uint16(65535), uint16(1), uint16(65535))
	f.Add(uint16(40000), uint16(20000), uint16(10000))
	f.Add(uint16(30000), uint16(30000), uint16(5535))
	f.Fuzz(func(t *testing.T, a, b, c uint16) {
		wide := uint16(min(uint32(a)+uint32(b)+uint32(c), 65535))
		left, right := satAdd16(satAdd16(a, b), c), satAdd16(a, satAdd16(b, c))
		if left != wide || right != wide {
			t.Fatalf("(%d+%d)+%d = %d, %d+(%d+%d) = %d, want %d", a, b, c, left, a, b, c, right, wide)
		}
	})
}

// FuzzRefineMatchesReference holds the row-sum refine to the per-candidate
// reference on arbitrary frames: sizes from one pixel to two strips and
// more, block radii 0–3, search radii 0–4, [0,1] samples (dyadic or not,
// with flat patches for ties), and guides that run off both ends of the
// row or are not finite. Integer and census costs are exact, and the float
// cost follows the reference's bracketing, so every output must match in
// bits.
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
			for _, fixed := range []bool{false, true} {
				opt := BMOptions{BlockR: br, Subpixel: true, Fixed: fixed, Census: cen}
				want := naiveRefine(refPixelCost(left, right, fixed, cen, math.Inf(1)), init, searchR, opt, refBlockRows)
				sameImage(t, fmt.Sprintf("%dx%d br=%d R=%d fixed=%v census=%d", w, h, br, searchR, fixed, cen),
					Refine(left, right, init, searchR, opt), want)
			}
		}
	})
}
