package deconv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"asv/internal/nn"
	"asv/internal/tensor"
	"asv/internal/testkit"
)

func TestDecompose2DShapesFor3x3(t *testing.T) {
	w := testkit.SeededTensor(1, 2, 3, 3, 3)
	subs := Decompose2D(w)
	// Paper Sec. 4.1: a 3x3 kernel yields sub-kernels 2x2, 1x2, 2x1, 1x1.
	wantH := []int{2, 1, 2, 1}
	wantW := []int{2, 2, 1, 1}
	for k, s := range subs {
		if s == nil {
			t.Fatalf("sub-kernel %d is nil", k)
		}
		if s.Dim(2) != wantH[k] || s.Dim(3) != wantW[k] {
			t.Fatalf("sub %d shape %dx%d, want %dx%d", k, s.Dim(2), s.Dim(3), wantH[k], wantW[k])
		}
	}
}

func TestDecompose2DValuesFor3x3(t *testing.T) {
	// Kernel a..i = 1..9 laid out row-major; check the exact Fig. 6 split:
	// S0 (even,even) = [a c; g i], S1 = [d f], S2 = [b; h], S3 = [e].
	w := tensor.New(1, 1, 3, 3)
	copy(w.Data(), []float32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	subs := Decompose2D(w)
	check := func(s *tensor.Tensor, want []float32) {
		t.Helper()
		for i, v := range want {
			if s.Data()[i] != v {
				t.Fatalf("sub data %v, want %v", s.Data(), want)
			}
		}
	}
	check(subs[0], []float32{1, 3, 7, 9}) // a c g i
	check(subs[1], []float32{4, 6})       // d f
	check(subs[2], []float32{2, 8})       // b h
	check(subs[3], []float32{5})          // e
}

func TestDecomposePartitionsKernel(t *testing.T) {
	// Every original kernel element appears in exactly one sub-kernel.
	f := func(seed int64, khRaw, kwRaw uint8) bool {
		kh := int(khRaw)%5 + 1
		kw := int(kwRaw)%5 + 1
		w := testkit.SeededTensor(seed, 2, 3, kh, kw)
		subs := Decompose2D(w)
		var total int
		var sum float64
		for _, s := range subs {
			if s == nil {
				continue
			}
			total += s.Len()
			sum += s.Sum()
		}
		return total == w.Len() && math.Abs(sum-w.Sum()) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompose3DPartitionsKernel(t *testing.T) {
	w := testkit.SeededTensor(3, 2, 2, 3, 3, 3)
	subs := decompose3D(w)
	var total int
	for _, s := range subs {
		if s == nil {
			continue
		}
		total += s.Len()
	}
	if total != w.Len() {
		t.Fatalf("sub-kernels hold %d elements, kernel has %d", total, w.Len())
	}
}

func TestDecompose1x1HasEmptySubs(t *testing.T) {
	w := testkit.SeededTensor(1, 1, 1, 1, 1)
	subs := Decompose2D(w)
	if subs[0] == nil || subs[1] != nil || subs[2] != nil || subs[3] != nil {
		t.Fatal("1x1 kernel should decompose into a single 1x1 sub-kernel")
	}
}

// The central correctness claim of Sec. 4.1: the transformed execution is
// bit-for-bit the same ofmap as the standard (sparse) deconvolution.
func TestTransformed2DEqualsReference(t *testing.T) {
	f := func(seed int64, hRaw, kRaw, pRaw uint8) bool {
		h := int(hRaw)%6 + 2 // 2..7
		k := int(kRaw)%5 + 1 // 1..5
		p := int(pRaw) % (k + 1)
		if tensor.DeconvOut(h, k, 2, p) <= 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		in := tensor.RandFill(tensor.New(3, h, h), rng)
		w := tensor.RandFill(tensor.New(2, 3, k, k), rng)
		ref := tensor.Deconv2D(in, w, 2, p)
		got := Transformed2D(in, w, p)
		return testkit.DiffTensors(got, ref, 1e-4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformed3DEqualsReference(t *testing.T) {
	f := func(seed int64, hRaw, kRaw uint8) bool {
		h := int(hRaw)%3 + 2 // 2..4
		k := int(kRaw)%3 + 2 // 2..4
		p := 1
		if tensor.DeconvOut(h, k, 2, p) <= 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		in := tensor.RandFill(tensor.New(2, h, h, h), rng)
		w := tensor.RandFill(tensor.New(2, 2, k, k, k), rng)
		ref := deconv3DRef(in, w, p)
		got := transformed3D(in, w, p)
		return testkit.DiffTensors(got, ref, 1e-4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformConvIsIdentity(t *testing.T) {
	l := nn.Layer{Name: "c", Kind: nn.KindConv, InC: 8, InD: 1, InH: 16, InW: 16,
		OutC: 4, KD: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	subs := Transform(l)
	if len(subs) != 1 {
		t.Fatalf("conv transformed into %d sub-layers", len(subs))
	}
	if EffectiveMACs(l) != l.MACs() {
		t.Fatal("conv effective MACs should equal naive MACs")
	}
}

func deconv2DLayer(inC, inH, inW, outC, k int) nn.Layer {
	return nn.Layer{Name: "d", Kind: nn.KindDeconv, InC: inC, InD: 1,
		InH: inH, InW: inW, OutC: outC, KD: 1, KH: k, KW: k,
		Stride: 2, Pad: k - 1 - 1} // transposed pad 1
}

func TestTransformDeconv2DSubLayerCount(t *testing.T) {
	subs := Transform(deconv2DLayer(8, 16, 16, 4, 4))
	if len(subs) != 4 {
		t.Fatalf("2-D deconv should yield 4 sub-layers, got %d", len(subs))
	}
}

func TestTransformDeconv3DSubLayerCount(t *testing.T) {
	l := nn.Layer{Name: "d3", Kind: nn.KindDeconv, InC: 8, InD: 8, InH: 16, InW: 16,
		OutC: 4, KD: 3, KH: 3, KW: 3, Stride: 2, Pad: 1}
	subs := Transform(l)
	if len(subs) != 8 {
		t.Fatalf("3-D deconv should yield 8 sub-layers, got %d", len(subs))
	}
}

func TestGatherCoversOfmapExactlyOnce(t *testing.T) {
	l := deconv2DLayer(8, 17, 13, 4, 4)
	_, oh, ow := l.OutDims()
	var positions int64
	for _, s := range Transform(l) {
		positions += s.OutElemsPerFilter()
	}
	if positions != int64(oh)*int64(ow) {
		t.Fatalf("sub-layers cover %d positions, ofmap has %d", positions, int64(oh)*int64(ow))
	}
}

func TestSubKernelTapsPartitionKernel(t *testing.T) {
	l := deconv2DLayer(8, 16, 16, 4, 5)
	var taps int64
	for _, s := range Transform(l) {
		taps += s.Taps()
	}
	if taps != int64(l.KH*l.KW) {
		t.Fatalf("sub-kernel taps sum to %d, kernel has %d", taps, l.KH*l.KW)
	}
}

func TestRedundancyRatio2DApproaches75(t *testing.T) {
	l := deconv2DLayer(16, 64, 64, 16, 4)
	r := redundancyRatio(l)
	if r < 0.70 || r > 0.80 {
		t.Fatalf("2-D stride-2 redundancy = %.1f%%, want ~75%%", 100*r)
	}
}

func TestRedundancyRatio3DApproaches87(t *testing.T) {
	l := nn.Layer{Name: "d3", Kind: nn.KindDeconv, InC: 16, InD: 32, InH: 32, InW: 32,
		OutC: 16, KD: 3, KH: 3, KW: 3, Stride: 2, Pad: 1}
	r := redundancyRatio(l)
	if r < 0.82 || r > 0.92 {
		t.Fatalf("3-D stride-2 redundancy = %.1f%%, want ~87.5%%", 100*r)
	}
}

func TestNetworkEffectiveMACsShrink(t *testing.T) {
	for _, n := range nn.StereoZoo(270, 480) {
		eff := networkEffectiveMACs(n)
		naive := n.TotalMACs()
		if eff >= naive {
			t.Fatalf("%s: transformation did not reduce MACs (%d >= %d)", n.Name, eff, naive)
		}
		// Only deconv layers shrink, so the reduction equals the deconv
		// redundancy share.
		savings := float64(naive-eff) / float64(naive)
		if savings < 0.1 {
			t.Fatalf("%s: savings %.1f%% too small", n.Name, 100*savings)
		}
	}
}

// Property: effective MACs are invariant to which valid transposed padding
// is used, per unit ofmap element (sanity of the position accounting).
func TestQuickEffectiveMACsPositive(t *testing.T) {
	f := func(kRaw, hRaw uint8) bool {
		k := int(kRaw)%4 + 2
		h := int(hRaw)%14 + 4
		l := deconv2DLayer(4, h, h, 4, k)
		if l.Pad < 0 {
			return true
		}
		eff := EffectiveMACs(l)
		return eff > 0 && eff < l.MACs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
