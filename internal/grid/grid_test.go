package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"asv/internal/deconv"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/schedule"
	"asv/internal/tensor"
	"asv/internal/testkit"
)

func refMatMul(a, w [][]float32) [][]float32 {
	m, k := len(a), len(a[0])
	n := len(w[0])
	out := mat(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for x := 0; x < k; x++ {
				s += float64(a[i][x]) * float64(w[x][j])
			}
			out[i][j] = float32(s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) [][]float32 {
	m := mat(r, c)
	for i := range m {
		for j := range m[i] {
			m[i][j] = rng.Float32()*2 - 1
		}
	}
	return m
}

func maxDiff(a, b [][]float32) float64 {
	var d float64
	for i := range a {
		for j := range a[i] {
			x := float64(a[i][j] - b[i][j])
			if x < 0 {
				x = -x
			}
			if x > d {
				d = x
			}
		}
	}
	return d
}

func TestGridMatMulSmallExact(t *testing.T) {
	// 2x2 array, 2x2 matrices: hand-checkable.
	g := NewGrid(2, 2)
	a := [][]float32{{1, 2}, {3, 4}}
	w := [][]float32{{5, 6}, {7, 8}}
	got := g.MatMul(a, w)
	want := [][]float32{{19, 22}, {43, 50}}
	if maxDiff(got, want) != 0 {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestGridMatMulTiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// k and n deliberately exceed the 4x3 array so tiling engages.
	a := randMat(rng, 7, 10)
	w := randMat(rng, 10, 8)
	g := NewGrid(4, 3)
	got := g.MatMul(a, w)
	want := refMatMul(a, w)
	if d := maxDiff(got, want); d > 1e-4 {
		t.Fatalf("tiled systolic MatMul diverges by %v", d)
	}
}

// Property: the simulated dataflow equals reference matmul for random
// shapes that exercise partial edge tiles.
func TestQuickGridMatMul(t *testing.T) {
	f := func(seed int64, mRaw, kRaw, nRaw, rRaw, cRaw uint8) bool {
		m := int(mRaw)%6 + 1
		k := int(kRaw)%7 + 1
		n := int(nRaw)%6 + 1
		rows := int(rRaw)%4 + 1
		cols := int(cRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, m, k)
		w := randMat(rng, k, n)
		got := NewGrid(rows, cols).MatMul(a, w)
		return maxDiff(got, refMatMul(a, w)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGridConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := tensor.RandFill(tensor.New(3, 8, 8), rng)
	w := tensor.RandFill(tensor.New(5, 3, 3, 3), rng)
	g := NewGrid(8, 4)
	got := g.Conv2D(in, w, 1, 1)
	want := tensor.Conv2D(in, w, 1, 1)
	testkit.MustEqualTensors(t, "systolic Conv2D", got, want, 1e-4)
}

func TestGridConv2DStride2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := tensor.RandFill(tensor.New(2, 9, 9), rng)
	w := tensor.RandFill(tensor.New(3, 2, 3, 3), rng)
	g := NewGrid(6, 3)
	got := g.Conv2D(in, w, 2, 1)
	want := tensor.Conv2D(in, w, 2, 1)
	testkit.MustEqualTensors(t, "stride-2 systolic Conv2D", got, want, 1e-4)
}

// The end-to-end hardware/software story: a transformed deconvolution's
// sub-convolutions executed on the simulated array, gathered, must equal
// the reference sparse deconvolution. This is the full ASV execution path
// in miniature.
func TestGridExecutesTransformedDeconv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := tensor.RandFill(tensor.New(2, 5, 5), rng)
	w := tensor.RandFill(tensor.New(3, 2, 4, 4), rng)
	const pad = 2 // transposed padding 1 for k=4

	want := tensor.Deconv2D(in, w, 2, pad)

	// Execute each sub-kernel as a dense convolution on the array, then
	// gather by parity, exactly as the transformed schedule does.
	subs := deconv.Decompose2D(w)
	oh, ow := want.Dim(1), want.Dim(2)
	got := tensor.New(want.Shape()...)
	g := NewGrid(8, 3)
	for k, s := range subs {
		if s == nil {
			continue
		}
		dy := k & 1
		dx := (k >> 1) & 1
		// Compute the sub-convolution over the whole padded input range the
		// gather needs, via direct evaluation on the array at offset grid
		// positions: pad the input so every (ay, ax) is in range.
		sh, sw := s.Dim(2), s.Dim(3)
		// Build a padded copy of the input.
		padN := 4
		padded := tensor.New(in.Dim(0), in.Dim(1)+2*padN, in.Dim(2)+2*padN)
		for c := 0; c < in.Dim(0); c++ {
			for y := 0; y < in.Dim(1); y++ {
				for x := 0; x < in.Dim(2); x++ {
					padded.Set3(in.At3(c, y, x), c, y+padN, x+padN)
				}
			}
		}
		conv := g.Conv2D(padded, s, 1, 0)
		for u := 0; u < oh; u++ {
			if (mod2(pad-u) != dy) || (u-pad+dy)%2 != 0 {
				continue
			}
			ay := (u - pad + dy) / 2
			for v := 0; v < ow; v++ {
				if mod2(pad-v) != dx {
					continue
				}
				ax := (v - pad + dx) / 2
				cy, cx := ay+padN, ax+padN
				if cy < 0 || cx < 0 || cy >= conv.Dim(1)-sh+1+0 || cx >= conv.Dim(2)-sw+1+0 {
					continue
				}
				for f := 0; f < want.Dim(0); f++ {
					got.Set3(conv.At3(f, cy, cx), f, u, v)
				}
			}
		}
	}
	testkit.MustEqualTensors(t, "array-executed transformed deconvolution", got, want, 1e-4)
}

func mod2(x int) int {
	m := x % 2
	if m < 0 {
		m += 2
	}
	return m
}

func TestGridCycleAccounting(t *testing.T) {
	g := NewGrid(4, 4)
	m, k, n := 10, 4, 4 // single tile
	rng := rand.New(rand.NewSource(11))
	g.MatMul(randMat(rng, m, k), randMat(rng, k, n))
	// The weight load plus the skewed stream and drain of one tile pass.
	want := int64(g.Rows) + int64(m+g.Rows+g.Cols-1)
	if g.Cycles() != want {
		t.Fatalf("cycles = %d, want %d (load %d + stream %d)",
			g.Cycles(), want, g.Rows, m+g.Rows+g.Cols-1)
	}
}

func TestGridCyclesApproachAnalyticModel(t *testing.T) {
	// For m >> rows+cols, cycles/tile-pass ~ m, so total cycles approach
	// MACs / (rows*cols) — the analytic model's compute roofline.
	g := NewGrid(8, 8)
	m, k, n := 512, 8, 8
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, m, k)
	w := randMat(rng, k, n)
	g.MatMul(a, w)
	roof := float64(m*k*n) / float64(g.Rows*g.Cols)
	ratio := float64(g.Cycles()) / roof
	if ratio < 1.0 || ratio > 1.1 {
		t.Fatalf("measured/analytic cycle ratio = %.3f, want within 10%% of 1", ratio)
	}
}

func TestGridMACCount(t *testing.T) {
	g := NewGrid(2, 2)
	a := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	w := [][]float32{{1, 1}, {1, 1}}
	g.MatMul(a, w)
	// Every operand is nonzero: exactly m*k*n genuine MACs.
	if g.MACs() != 3*2*2 {
		t.Fatalf("MACs = %d, want 12", g.MACs())
	}
}

func TestNewGridPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(0, 4)
}

func TestGridSADModeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := tensor.RandFill(tensor.New(9, 9), rng)
	block := tensor.RandFill(tensor.New(3, 3), rng)
	g := NewGrid(6, 2)
	testkit.MustEqualTensors(t, "array SAD", g.sadWindow2D(in, block), sadWindowRef(in, block), 1e-4)
}

// Property: the SAD-mode array equals the reference across random shapes —
// the Sec. 5.2 claim that block matching shares the convolution dataflow.
func TestQuickGridSAD(t *testing.T) {
	f := func(seed int64, hRaw, kRaw, rRaw uint8) bool {
		h := int(hRaw)%6 + 4
		k := int(kRaw)%3 + 2
		rows := int(rRaw)%5 + 1
		if k > h {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		in := tensor.RandFill(tensor.New(h, h), rng)
		block := tensor.RandFill(tensor.New(k, k), rng)
		g := NewGrid(rows, 2)
		return testkit.DiffTensors(g.sadWindow2D(in, block), sadWindowRef(in, block), 1e-4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Cross-validation of the two performance models in this package: the
// analytic round model (schedule.Evaluate) and the functional cycle-stepped
// grid must agree on a layer sized to fill the array exactly.
func TestAnalyticModelMatchesFunctionalGrid(t *testing.T) {
	const (
		rows, cols = 16, 8
		inC, k     = 4, 2 // contraction = 4*2*2 = 16 = rows
		outC       = 8    // = cols
		inH, inW   = 18, 18
	)
	l := nn.Layer{Name: "x", Kind: nn.KindConv, InC: inC, InD: 1,
		InH: inH, InW: inW, OutC: outC, KD: 1, KH: k, KW: k, Stride: 1, Pad: 0}

	// Functional measurement.
	rng := rand.New(rand.NewSource(33))
	in := tensor.RandFill(tensor.New(inC, inH, inW), rng)
	w := tensor.RandFill(tensor.New(outC, inC, k, k), rng)
	g := NewGrid(rows, cols)
	g.Conv2D(in, w, 1, 0)
	measured := g.Cycles()

	// Analytic prediction with matching resources and ample memory (the
	// grid does not model DRAM).
	cfg := hw.Default()
	cfg.PEsX, cfg.PEsY = rows, cols
	cfg.BWBytesSec = 1e15
	r := schedule.Evaluate(schedule.NaiveSpec(l), cfg, schedule.Options{})

	ratio := float64(measured) / float64(r.Cycles)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("functional %d vs analytic %d cycles (ratio %.2f), want within 25%%",
			measured, r.Cycles, ratio)
	}
}
