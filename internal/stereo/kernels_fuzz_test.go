package stereo

import "testing"

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
