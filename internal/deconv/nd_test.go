package deconv

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"asv/internal/tensor"
	"asv/internal/testkit"
)

// decomposeND is the general Appendix A construction, the oracle that
// Decompose2D and the 3-D construction are checked against: a kernel with
// n trailing spatial dimensions decomposes into 2^n sub-kernels, where
// sub-kernel k takes element (i₀,…,i_{n-1}) from kernel element
// (2i₀+δ₀, …, 2i_{n-1}+δ_{n-1}) with δⱼ = (k >> j) & 1.
//
// w's leading dimensions (filters, channels) are preserved; spatialDims
// counts the trailing dimensions to decompose. Sub-kernels with an empty
// dimension are nil. decomposeND generalizes Decompose2D/decompose3D to
// any rank (the paper states the formulation for N-dimensional kernels).
//
// Note the δ-to-dimension assignment: δⱼ selects the parity of the j-th
// *spatial* dimension counted from the slowest-varying one, so for 2-D
// kernels decomposeND's sub-kernel order matches Decompose2D's (S0..S3)
// up to the documented index mapping below.
func decomposeND(w *tensor.Tensor, spatialDims int) []*tensor.Tensor {
	if spatialDims < 1 || spatialDims > w.Rank() {
		panic(fmt.Sprintf("deconv: spatialDims %d out of range for rank %d", spatialDims, w.Rank()))
	}
	lead := w.Rank() - spatialDims
	shape := w.Shape()
	n := spatialDims
	out := make([]*tensor.Tensor, 1<<n)

	for k := 0; k < 1<<n; k++ {
		deltas := make([]int, n)
		subShape := append([]int(nil), shape[:lead]...)
		empty := false
		for j := 0; j < n; j++ {
			deltas[j] = (k >> j) & 1
			ext := subExtent(shape[lead+j], deltas[j])
			if ext == 0 {
				empty = true
			}
			subShape = append(subShape, ext)
		}
		if empty {
			continue
		}
		sub := tensor.New(subShape...)
		// Walk every element of the sub-kernel and copy from the source.
		srcIdx := make([]int, w.Rank())
		dstIdx := make([]int, w.Rank())
		var fill func(dim int)
		fill = func(dim int) {
			if dim == len(subShape) {
				sub.Set(w.At(srcIdx...), dstIdx...)
				return
			}
			for i := 0; i < subShape[dim]; i++ {
				dstIdx[dim] = i
				if dim < lead {
					srcIdx[dim] = i
				} else {
					srcIdx[dim] = 2*i + deltas[dim-lead]
				}
				fill(dim + 1)
			}
		}
		fill(0)
		out[k] = sub
	}
	return out
}

func TestDecomposeNDMatchesDecompose2D(t *testing.T) {
	w := tensor.Rand(11, 2, 3, 5, 4)
	nd := decomposeND(w, 2)
	d2 := Decompose2D(w)
	if len(nd) != 4 {
		t.Fatalf("expected 4 sub-kernels, got %d", len(nd))
	}
	for k := range nd {
		if (nd[k] == nil) != (d2[k] == nil) {
			t.Fatalf("sub %d nil mismatch", k)
		}
		if nd[k] == nil {
			continue
		}
		if testkit.DiffTensors(nd[k], d2[k], 0) != nil {
			t.Fatalf("sub %d differs between decomposeND and Decompose2D", k)
		}
	}
}

// signature summarizes a sub-kernel set independent of index ordering.
func signature(subs []*tensor.Tensor) []string {
	var sig []string
	for _, s := range subs {
		if s == nil {
			continue
		}
		sig = append(sig, fmt.Sprintf("%v|%.4f", s.Shape(), s.Sum()))
	}
	sort.Strings(sig)
	return sig
}

func TestDecomposeNDMatchesDecompose3DUpToOrder(t *testing.T) {
	w := tensor.Rand(13, 2, 2, 3, 3, 3)
	nd := decomposeND(w, 3)
	d3 := decompose3D(w)
	a := signature(nd)
	b := signature(d3[:])
	if len(a) != len(b) {
		t.Fatalf("sub-kernel counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sub-kernel multiset differs:\n%v\n%v", a, b)
		}
	}
}

func TestDecomposeND1D(t *testing.T) {
	// A 1-D kernel [F=1, C=1, K=5] splits into even taps (3) and odd (2).
	w := tensor.New(1, 1, 5)
	copy(w.Data(), []float32{1, 2, 3, 4, 5})
	subs := decomposeND(w, 1)
	if len(subs) != 2 {
		t.Fatalf("expected 2 sub-kernels, got %d", len(subs))
	}
	even, odd := subs[0], subs[1]
	wantEven := []float32{1, 3, 5}
	wantOdd := []float32{2, 4}
	for i, v := range wantEven {
		if even.Data()[i] != v {
			t.Fatalf("even sub = %v, want %v", even.Data(), wantEven)
		}
	}
	for i, v := range wantOdd {
		if odd.Data()[i] != v {
			t.Fatalf("odd sub = %v, want %v", odd.Data(), wantOdd)
		}
	}
}

func TestDecomposeND4D(t *testing.T) {
	// 4 spatial dimensions -> 16 sub-kernels; elements still partition.
	w := tensor.Rand(17, 1, 2, 3, 3, 2, 3)
	subs := decomposeND(w, 4)
	if len(subs) != 16 {
		t.Fatalf("expected 16 sub-kernels, got %d", len(subs))
	}
	var total int
	for _, s := range subs {
		if s != nil {
			total += s.Len()
		}
	}
	if total != w.Len() {
		t.Fatalf("elements not partitioned: %d vs %d", total, w.Len())
	}
}

func TestDecomposeNDBadArgsPanics(t *testing.T) {
	w := tensor.Rand(1, 2, 3, 3)
	for _, dims := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spatialDims=%d should panic", dims)
				}
			}()
			decomposeND(w, dims)
		}()
	}
}

// Property: for any kernel shape, the ND decomposition partitions both the
// element count and the element sum.
func TestQuickDecomposeNDPartition(t *testing.T) {
	f := func(seed int64, k1Raw, k2Raw, k3Raw uint8) bool {
		k1 := int(k1Raw)%4 + 1
		k2 := int(k2Raw)%4 + 1
		k3 := int(k3Raw)%4 + 1
		w := tensor.Rand(seed, 2, 2, k1, k2, k3)
		subs := decomposeND(w, 3)
		var total int
		var sum float64
		for _, s := range subs {
			if s == nil {
				continue
			}
			total += s.Len()
			sum += s.Sum()
		}
		return total == w.Len() && abs(sum-w.Sum()) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
