// Package grid is the functional systolic-array simulator.
//
// While the analytic model (systolic.RunNetwork) predicts performance, this
// package actually *executes* the weight-stationary dataflow cycle by cycle
// on a simulated PE grid: activations enter skewed from the left and hop one
// PE per cycle; partial sums flow down the columns; each PE performs one MAC
// per cycle against its resident weight. Convolutions run as implicit-GEMM
// (the contraction dimension C·KH·KW maps to rows, filters map to columns,
// output pixels stream through), tiled to the array size with partial sums
// accumulated across contraction tiles — the same execution the analytic
// round model charges for.
//
// Tests verify the simulated array is bit-equivalent to the reference
// convolution and that its measured cycle count matches the fill/stream/
// drain formula the analytic model assumes. The package is deliberately
// independent of the cost models, so it does not count as a "concrete model
// package" for the archlayer rule.
package grid

import (
	"fmt"

	"asv/internal/tensor"
)

// Mode selects the PE arithmetic: MAC for convolution, SAD for the
// accumulate-absolute-difference extension ASV adds for block matching
// (Sec. 5.2: a ← a + |b−c|).
type Mode int

// PE modes.
const (
	ModeMAC Mode = iota
	ModeSAD
)

// Grid is a weight-stationary systolic array of Rows×Cols PEs.
type Grid struct {
	Rows, Cols int
	Mode       Mode
	weight     [][]float32
	active     [][]bool // SAD mode: which PEs hold real taps
	act        [][]float32
	psum       [][]float32
	cycles     int64
	macs       int64
}

// NewGrid returns an idle array.
func NewGrid(rows, cols int) *Grid {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("grid: invalid grid %dx%d", rows, cols))
	}
	g := &Grid{Rows: rows, Cols: cols}
	g.weight = mat(rows, cols)
	g.act = mat(rows, cols)
	g.psum = mat(rows, cols)
	g.active = make([][]bool, rows)
	for i := range g.active {
		g.active[i] = make([]bool, cols)
	}
	return g
}

func mat(r, c int) [][]float32 {
	m := make([][]float32, r)
	backing := make([]float32, r*c)
	for i := range m {
		m[i], backing = backing[:c:c], backing[c:]
	}
	return m
}

// Cycles returns the total simulated cycles (including weight loads).
func (g *Grid) Cycles() int64 { return g.cycles }

// MACs returns the number of genuine multiply-accumulates performed.
func (g *Grid) MACs() int64 { return g.macs }

// LoadWeights makes w (rows×cols, possibly smaller than the array) resident,
// zero-filling unused PEs. Loading streams one row per cycle.
func (g *Grid) LoadWeights(w [][]float32) {
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			g.weight[r][c] = 0
			g.active[r][c] = false
		}
	}
	for r := range w {
		if r >= g.Rows {
			panic("grid: weight tile taller than array")
		}
		for c := range w[r] {
			if c >= g.Cols {
				panic("grid: weight tile wider than array")
			}
			g.weight[r][c] = w[r][c]
			g.active[r][c] = true
		}
	}
	g.cycles += int64(g.Rows) // weights shift down one row per cycle
	// Flush in-flight state from the previous tile.
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			g.act[r][c] = 0
			g.psum[r][c] = 0
		}
	}
}

// step advances one clock: actIn[r] enters row r from the left; the
// bottom-row partial sums *after* this cycle are returned.
func (g *Grid) step(actIn []float32) []float32 {
	g.cycles++
	// Walk right-to-left and bottom-to-top so reads see last cycle's
	// registers.
	for c := g.Cols - 1; c >= 0; c-- {
		for r := g.Rows - 1; r >= 0; r-- {
			var a float32
			if c == 0 {
				a = actIn[r]
			} else {
				a = g.act[r][c-1]
			}
			var up float32
			if r > 0 {
				up = g.psum[r-1][c]
			}
			g.act[r][c] = a
			switch g.Mode {
			case ModeSAD:
				// The ASV PE extension: accumulate |weight − activation|,
				// but only on PEs holding a real tap (an idle PE must not
				// add |w−0|).
				if g.active[r][c] {
					d := g.weight[r][c] - a
					if d < 0 {
						d = -d
					}
					g.psum[r][c] = up + d
					g.macs++
				} else {
					g.psum[r][c] = up
				}
			default:
				g.psum[r][c] = up + g.weight[r][c]*a
				if g.weight[r][c] != 0 && a != 0 {
					g.macs++
				}
			}
		}
	}
	out := make([]float32, g.Cols)
	copy(out, g.psum[g.Rows-1])
	return out
}

// MatMul streams A (m×k) against the resident weights interpretation
// W (k×n), tiling k over rows and n over columns. In ModeMAC the result is
// A·W; in ModeSAD element (m, n) is Σ_k |A[m][k] − W[k][n]| — the same
// dataflow with the PE's reduction swapped, which is exactly how ASV maps
// block matching onto the array.
func (g *Grid) MatMul(a [][]float32, w [][]float32) [][]float32 {
	m := len(a)
	if m == 0 {
		return nil
	}
	k := len(a[0])
	if len(w) != k {
		panic(fmt.Sprintf("grid: inner dims %d vs %d", k, len(w)))
	}
	n := len(w[0])
	out := mat(m, n)

	for k0 := 0; k0 < k; k0 += g.Rows {
		kt := min(g.Rows, k-k0)
		for n0 := 0; n0 < n; n0 += g.Cols {
			nt := min(g.Cols, n-n0)
			// Resident tile.
			tile := make([][]float32, kt)
			for r := 0; r < kt; r++ {
				tile[r] = w[k0+r][n0 : n0+nt]
			}
			g.LoadWeights(tile)
			g.streamTile(a, out, k0, kt, n0, nt)
		}
	}
	return out
}

// streamTile pushes all m input rows through the loaded tile with the
// canonical skew (row r delayed r cycles) and accumulates the column
// outputs into out.
func (g *Grid) streamTile(a [][]float32, out [][]float32, k0, kt, n0, nt int) {
	m := len(a)
	total := m + g.Rows + g.Cols - 1 // stream + skew drain
	actIn := make([]float32, g.Rows)
	for t := 0; t < total; t++ {
		for r := 0; r < g.Rows; r++ {
			idx := t - r // row r is skewed by r cycles
			if r < kt && idx >= 0 && idx < m {
				actIn[r] = a[idx][k0+r]
			} else {
				actIn[r] = 0
			}
		}
		bottom := g.step(actIn)
		// The result for input row idx appears at the bottom of column c at
		// cycle idx + (Rows-1) + c  (using the full physical array height).
		for c := 0; c < nt; c++ {
			idx := t - (g.Rows - 1) - c
			if idx >= 0 && idx < m {
				out[idx][n0+c] += bottom[c]
			}
		}
	}
}

// Conv2D executes the convolution of in [C,H,W] with w [F,C,KH,KW]
// (stride/pad as in tensor.Conv2D) on the simulated array via implicit
// GEMM, returning [F,OH,OW]. The result is numerically identical to
// tensor.Conv2D up to float summation order.
func (g *Grid) Conv2D(in, w *tensor.Tensor, stride, pad int) *tensor.Tensor {
	cIn, h, wd := in.Dim(0), in.Dim(1), in.Dim(2)
	f, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh := tensor.ConvOut(h, kh, stride, pad)
	ow := tensor.ConvOut(wd, kw, stride, pad)

	// im2col: A is (OH*OW) x (C*KH*KW).
	k := cIn * kh * kw
	a := mat(oh*ow, k)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := a[oy*ow+ox]
			i := 0
			for ci := 0; ci < cIn; ci++ {
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < h && ix >= 0 && ix < wd {
							row[i] = in.At3(ci, iy, ix)
						}
						i++
					}
				}
			}
		}
	}
	// Weight matrix is k x F.
	wm := mat(k, f)
	for fi := 0; fi < f; fi++ {
		i := 0
		for ci := 0; ci < cIn; ci++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					wm[i][fi] = w.At4(fi, ci, ky, kx)
					i++
				}
			}
		}
	}

	res := g.MatMul(a, wm)
	out := tensor.New(f, oh, ow)
	for fi := 0; fi < f; fi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				out.Set3(res[oy*ow+ox][fi], fi, oy, ox)
			}
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
