package tensor

import (
	"math"
	"testing"
)

func TestTanhOddFunction(t *testing.T) {
	in := fromSlice([]float32{-1.5, 1.5}, 2)
	out := Tanh(in)
	if math.Abs(float64(out.At(0)+out.At(1))) > 1e-6 {
		t.Fatalf("tanh not odd: %v", out.Data())
	}
}
