package tensor

import "math/rand"

// RandFill fills t with uniform values in [-1, 1) drawn from rng and
// returns t.
func RandFill(t *Tensor, rng *rand.Rand) *Tensor {
	for i := range t.data {
		t.data[i] = rng.Float32()*2 - 1
	}
	return t
}
