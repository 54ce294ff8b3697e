package tensor

import (
	"math"
	"math/rand"
)

// Tanh applies the hyperbolic tangent element-wise and returns a new tensor.
func Tanh(t *Tensor) *Tensor {
	return t.Clone().Apply(func(v float32) float32 {
		return float32(math.Tanh(float64(v)))
	})
}

// RandFill fills t with uniform values in [-1, 1) drawn from rng and
// returns t.
func RandFill(t *Tensor, rng *rand.Rand) *Tensor {
	for i := range t.data {
		t.data[i] = rng.Float32()*2 - 1
	}
	return t
}

// Rand returns a new tensor of the given shape filled with uniform values in
// [-1, 1) drawn from a deterministic generator with the given seed.
func Rand(seed int64, shape ...int) *Tensor {
	return RandFill(New(shape...), rand.New(rand.NewSource(seed)))
}
