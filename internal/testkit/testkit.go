// Package testkit is the shared verification toolkit behind the repo's
// differential oracles, fuzz targets and golden regression corpus (see
// DESIGN.md, "Verification strategy"). It provides
//
//   - deterministic per-test randomness (NewRand) with an env override for
//     exploratory soak runs,
//   - random tensor/image generators for property-based differential tests,
//   - tolerance-aware diffing with first-mismatch reporting (DiffTensors,
//     DiffImages),
//   - stable content checksums plus a key→value golden store with an
//     `-update` flag (golden.go), so any change to numerical behaviour has
//     to be committed explicitly, and
//   - a goroutine-leak check for a package's TestMain (MainNoLeaks, leak.go).
//
// The package may be imported only from test files. It depends on the leaf
// packages imgproc and tensor; tests inside those two packages must use an
// external (_test) package to avoid an import cycle.
package testkit

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"asv/internal/imgproc"
	"asv/internal/tensor"
)

// SeedEnv is the environment variable that overrides every test's RNG seed,
// turning the deterministic differential tests into a soak tool:
//
//	ASV_TEST_SEED=$RANDOM go test ./internal/deconv -run Differential
const SeedEnv = "ASV_TEST_SEED"

// Seed returns the deterministic RNG seed for the named test: the FNV hash
// of the test name, unless SeedEnv overrides it. Deriving the seed from the
// name keeps sibling subtests decorrelated while making every failure
// reproducible from the test name alone.
func Seed(t testing.TB) int64 {
	if s := os.Getenv(SeedEnv); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("testkit: bad %s=%q: %v", SeedEnv, s, err)
		}
		return v
	}
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	return int64(h.Sum64() & (1<<62 - 1))
}

// NewRand returns a rand.Rand seeded by Seed(t) and logs the seed so any
// failure can be replayed with SeedEnv.
func NewRand(t testing.TB) *rand.Rand {
	seed := Seed(t)
	t.Logf("testkit: %s seed %d (override with %s)", t.Name(), seed, SeedEnv)
	return rand.New(rand.NewSource(seed))
}

// RandTensor returns a tensor of the given shape with i.i.d. values uniform
// in [-1, 1).
func RandTensor(r *rand.Rand, shape ...int) *tensor.Tensor {
	out := tensor.New(shape...)
	d := out.Data()
	for i := range d {
		d[i] = float32(r.Float64()*2 - 1)
	}
	return out
}

// RandImage returns a w×h image with i.i.d. pixel values uniform in [0, 1).
func RandImage(r *rand.Rand, w, h int) *imgproc.Image {
	im := imgproc.NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = r.Float32()
	}
	return im
}

// RandDim returns a random dimension in [lo, hi].
func RandDim(r *rand.Rand, lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("testkit: RandDim bounds [%d, %d]", lo, hi))
	}
	return lo + r.Intn(hi-lo+1)
}

// Mismatch describes the first out-of-tolerance element of a diff, plus
// summary statistics over the whole volume.
type Mismatch struct {
	Index   []int   // multi-index of the first mismatching element
	Flat    int     // flat index of the same element
	Got     float64 // value in the tensor/image under test
	Want    float64 // value in the reference
	Count   int     // number of out-of-tolerance elements
	MaxAbs  float64 // largest absolute difference anywhere
	MaxFlat int     // flat index of the largest difference
}

// String formats the mismatch for test failure messages.
func (m *Mismatch) String() string {
	return fmt.Sprintf("first mismatch at %v (flat %d): got %v want %v (|Δ|=%.3g); %d elements out of tolerance, max |Δ|=%.3g at flat %d",
		m.Index, m.Flat, m.Got, m.Want, absDiff(m.Got, m.Want), m.Count, m.MaxAbs, m.MaxFlat)
}

func absDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}

// unflatten converts a flat row-major index into a multi-index for shape.
func unflatten(flat int, shape []int) []int {
	idx := make([]int, len(shape))
	for i := len(shape) - 1; i >= 0; i-- {
		if shape[i] > 0 {
			idx[i] = flat % shape[i]
			flat /= shape[i]
		}
	}
	return idx
}

// diffFloats reports the first element pair differing by more than tol.
func diffFloats(got, want []float32, tol float64, shape []int) *Mismatch {
	var m *Mismatch
	for i := range got {
		d := absDiff(float64(got[i]), float64(want[i]))
		if d <= tol {
			continue
		}
		if m == nil {
			m = &Mismatch{
				Index: unflatten(i, shape),
				Flat:  i,
				Got:   float64(got[i]),
				Want:  float64(want[i]),
			}
		}
		m.Count++
		if d > m.MaxAbs {
			m.MaxAbs = d
			m.MaxFlat = i
		}
	}
	return m
}

// DiffTensors compares got against want element-wise and returns nil when
// every element matches within absolute tolerance tol, or a Mismatch
// pinpointing the first offending element. Shape mismatches are reported as
// a Mismatch with Index nil.
func DiffTensors(got, want *tensor.Tensor, tol float64) *Mismatch {
	if !tensor.SameShape(got, want) {
		return &Mismatch{Got: float64(got.Len()), Want: float64(want.Len()), Count: -1}
	}
	return diffFloats(got.Data(), want.Data(), tol, got.Shape())
}

// DiffImages is DiffTensors for images; Index is [y, x].
func DiffImages(got, want *imgproc.Image, tol float64) *Mismatch {
	if got.W != want.W || got.H != want.H {
		return &Mismatch{Got: float64(got.W * got.H), Want: float64(want.W * want.H), Count: -1}
	}
	return diffFloats(got.Pix, want.Pix, tol, []int{got.H, got.W})
}

// MustEqualTensors fails the test with a first-mismatch report when got and
// want differ beyond tol. The label names the comparison in the failure.
func MustEqualTensors(t testing.TB, label string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape mismatch got %v want %v", label, got.Shape(), want.Shape())
	}
	if m := DiffTensors(got, want, tol); m != nil {
		t.Fatalf("%s: %s", label, m)
	}
}

// MustEqualImages is MustEqualTensors for images.
func MustEqualImages(t testing.TB, label string, got, want *imgproc.Image, tol float64) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size mismatch got %dx%d want %dx%d", label, got.W, got.H, want.W, want.H)
	}
	if m := DiffImages(got, want, tol); m != nil {
		t.Fatalf("%s: %s", label, m)
	}
}
