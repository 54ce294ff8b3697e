package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeRoundTripBound(t *testing.T) {
	a := Rand(1, 3, 8, 8)
	q := Quantize(a, 12)
	back := dequantize(q)
	// Error bounded by half a quantization step.
	step := 1 / float64(int64(1)<<q.FracBits)
	if d := maxAbsDiff(a, back); d > step/2+1e-9 {
		t.Fatalf("quantization error %v exceeds half-step %v", d, step/2)
	}
}

func TestQuantizeSaturates(t *testing.T) {
	a := fromSlice([]float32{100, -100}, 2)
	q := Quantize(a, 12)
	if q.Data()[0] != math.MaxInt16 || q.Data()[1] != math.MinInt16 {
		t.Fatalf("saturation failed: %v", q.Data())
	}
}

func TestQuantizePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantize(New(2), MaxFracBits+1)
}

func TestFixedConv2DMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randTensor(rng, 3, 10, 10)
	w := randTensor(rng, 4, 3, 3, 3)
	want := Conv2D(in, w, 1, 1)
	got := FixedConv2D(Quantize(in, 12), Quantize(w, 12), 1, 1)
	// Each tap contributes up to ~(|w|+|x|)·step error; 27 taps with
	// step 2^-12 keeps the total well under 2e-2.
	if d := maxAbsDiff(want, got); d > 2e-2 {
		t.Fatalf("fixed conv diverges from float by %v", d)
	}
}

func TestFixedConv2DIsExactForRepresentableValues(t *testing.T) {
	// Values on the quantization grid convolve exactly.
	in := fromSlice([]float32{0.5, 0.25, -0.75, 1}, 1, 2, 2)
	w := fromSlice([]float32{0.5}, 1, 1, 1, 1)
	got := FixedConv2D(Quantize(in, 8), Quantize(w, 8), 1, 0)
	want := Conv2D(in, w, 1, 0)
	if maxAbsDiff(got, want) != 0 {
		t.Fatalf("grid-representable conv not exact: %v vs %v", got.Data(), want.Data())
	}
}

// Property: more fractional bits never increase quantization error.
func TestQuickMoreBitsMorePrecision(t *testing.T) {
	f := func(seed int64) bool {
		a := Rand(seed, 4, 4)
		lo := maxAbsDiff(a, dequantize(Quantize(a, 6)))
		hi := maxAbsDiff(a, dequantize(Quantize(a, 12)))
		return hi <= lo+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: fixed conv error shrinks roughly with the quantization step.
func TestQuickFixedConvErrorScales(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randTensor(rng, 2, 6, 6)
		w := randTensor(rng, 2, 2, 3, 3)
		ref := Conv2D(in, w, 1, 0)
		e8 := maxAbsDiff(ref, FixedConv2D(Quantize(in, 8), Quantize(w, 8), 1, 0))
		e13 := maxAbsDiff(ref, FixedConv2D(Quantize(in, 13), Quantize(w, 13), 1, 0))
		return e13 <= e8+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// dequantize converts f back to float32.
func dequantize(f *Fixed) *Tensor {
	t := New(f.shape...)
	for i, q := range f.data {
		t.data[i] = float32(q) / float32(int64(1)<<f.FracBits)
	}
	return t
}
