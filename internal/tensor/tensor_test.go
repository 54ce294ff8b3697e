package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	for i, v := range tt.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if tt.Rank() != 3 || tt.Dim(0) != 2 || tt.Dim(1) != 3 || tt.Dim(2) != 4 {
		t.Fatalf("bad shape %v", tt.Shape())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3, 4)
	want := float32(0)
	for c := 0; c < 2; c++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 4; x++ {
				want++
				tt.Set(want, c, y, x)
				if got := tt.At(c, y, x); got != want {
					t.Fatalf("At(%d,%d,%d) = %v, want %v", c, y, x, got, want)
				}
				if got := tt.At3(c, y, x); got != want {
					t.Fatalf("At3(%d,%d,%d) = %v, want %v", c, y, x, got, want)
				}
			}
		}
	}
}

func TestAt4Set4(t *testing.T) {
	tt := New(2, 2, 3, 3)
	tt.Set4(7, 1, 0, 2, 1)
	if got := tt.At(1, 0, 2, 1); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	if got := tt.At4(1, 0, 2, 1); got != 7 {
		t.Fatalf("At4 = %v, want 7", got)
	}
}

func TestRowMajorLayout(t *testing.T) {
	tt := New(2, 2)
	tt.Set(1, 0, 0)
	tt.Set(2, 0, 1)
	tt.Set(3, 1, 0)
	tt.Set(4, 1, 1)
	want := []float32{1, 2, 3, 4}
	for i, v := range tt.Data() {
		if v != want[i] {
			t.Fatalf("Data = %v, want %v", tt.Data(), want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := fromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !SameShape(a, b) {
		t.Fatal("Clone changed shape")
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestApplyScale(t *testing.T) {
	tt := filled(2, 3)
	tt.Apply(func(v float32) float32 { return v + 1 })
	tt.Scale(2)
	for _, v := range tt.Data() {
		if v != 6 {
			t.Fatalf("got %v, want 6", v)
		}
	}
}

func TestSum(t *testing.T) {
	if a := fromSlice([]float32{1, -5, 3}, 3); a.Sum() != -1 {
		t.Fatalf("Sum = %v, want -1", a.Sum())
	}
}

func TestRandDeterministic(t *testing.T) {
	a := seededTensor(42, 4, 4)
	b := seededTensor(42, 4, 4)
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("Rand with same seed differs")
	}
	c := seededTensor(43, 4, 4)
	if maxAbsDiff(a, c) == 0 {
		t.Fatal("Rand with different seeds identical")
	}
}

// Property: Sum(a) + Sum(b) == Sum(a+b) within float tolerance.
func TestQuickAddSumLinear(t *testing.T) {
	f := func(seed int64) bool {
		a := seededTensor(seed, 3, 5)
		b := seededTensor(seed+1, 3, 5)
		want := a.Sum() + b.Sum()
		got := add(a, b).Sum()
		return abs64(want-got) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling by s multiplies the sum by s.
func TestQuickScaleSum(t *testing.T) {
	f := func(seed int64, s8 int8) bool {
		s := float32(s8) / 16
		a := seededTensor(seed, 4, 4)
		want := a.Sum() * float64(s)
		got := a.Clone().Scale(s).Sum()
		return abs64(want-got) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	return RandFill(New(shape...), rng)
}

// fromSlice wraps data (copied) as a tensor of the given shape.
func fromSlice(data []float32, shape ...int) *Tensor {
	t := New(shape...)
	if len(data) != len(t.data) {
		panic("fromSlice: data length does not match shape")
	}
	copy(t.data, data)
	return t
}

// filled returns a tensor of the given shape with every element v.
func filled(v float32, shape ...int) *Tensor {
	return New(shape...).Apply(func(float32) float32 { return v })
}

// add returns a+b element-wise.
func add(a, b *Tensor) *Tensor {
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// maxAbsDiff is the largest element-wise |a−b| of two same-shape tensors.
// (testkit.DiffTensors is the cross-package form; testkit imports this
// package.)
func maxAbsDiff(a, b *Tensor) float64 {
	if !SameShape(a, b) {
		panic("maxAbsDiff: shape mismatch")
	}
	var m float64
	for i := range a.data {
		m = max(m, math.Abs(float64(a.data[i])-float64(b.data[i])))
	}
	return m
}

// randTensor returns a tensor of the given shape filled by RandFill from a
// generator seeded with seed.
func seededTensor(seed int64, shape ...int) *Tensor {
	return RandFill(New(shape...), rand.New(rand.NewSource(seed)))
}
