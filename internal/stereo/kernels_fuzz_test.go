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
