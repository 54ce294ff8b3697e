package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asv"
)

func point(kernel, variant string, w, h int, ns float64) asv.KernelPoint {
	return asv.KernelPoint{Kernel: kernel, Variant: variant, W: w, H: h, MaxDisp: 48, NsPerPixel: ns}
}

func TestGateKernels(t *testing.T) {
	committed := []asv.KernelPoint{
		point("cvf", "fixed", 128, 80, 100),
		point("sad", "fixed", 128, 80, 40),
		point("sgm-aggregate", "fixed", 128, 80, 130),
		point("refine", "fixed", 128, 80, 90),
	}
	// scaled is committed measured on a host slower by factor, with row i
	// slower by extra[i] on top.
	scaled := func(factor float64, extra map[int]float64) []asv.KernelPoint {
		out := make([]asv.KernelPoint, len(committed))
		for i, c := range committed {
			out[i] = c
			out[i].NsPerPixel = c.NsPerPixel * factor
			if x, ok := extra[i]; ok {
				out[i].NsPerPixel *= x
			}
		}
		return out
	}

	t.Run("pass within factor", func(t *testing.T) {
		fresh := append(scaled(1, map[int]float64{0: 2.4}), // 2.4x the median row, inside the 2.5x bound
			point("wta", "fixed", 128, 80, 5)) // fresh-only rows are allowed
		if err := gateKernels(fresh, committed); err != nil {
			t.Fatalf("unexpected gate failure: %v", err)
		}
	})

	t.Run("fail on regression", func(t *testing.T) {
		fresh := scaled(1, map[int]float64{1: 2.525}) // 101 ns/px against the committed 40
		err := gateKernels(fresh, committed)
		if err == nil || !strings.Contains(err.Error(), "sad|fixed|128x80") {
			t.Fatalf("want sad|fixed regression failure, got %v", err)
		}
	})

	t.Run("every row 3x slower passes", func(t *testing.T) {
		if err := gateKernels(scaled(3, nil), committed); err != nil {
			t.Fatalf("a uniformly slower host failed the gate: %v", err)
		}
	})

	t.Run("one row 3x slower than the rest fails", func(t *testing.T) {
		fresh := scaled(2, map[int]float64{2: 3}) // a 2x slower host, sgm-aggregate 3x on top
		err := gateKernels(fresh, committed)
		if err == nil || !strings.Contains(err.Error(), "sgm-aggregate|fixed|128x80") || strings.Contains(err.Error(), "sad|") {
			t.Fatalf("want exactly the sgm-aggregate|fixed failure, got %v", err)
		}
	})

	t.Run("fail on missing row", func(t *testing.T) {
		fresh := []asv.KernelPoint{point("cvf", "fixed", 128, 80, 100)}
		err := gateKernels(fresh, committed)
		if err == nil || !strings.Contains(err.Error(), "missing from fresh run") {
			t.Fatalf("want missing-row failure, got %v", err)
		}
	})
}

func TestRunKernelsGateReadsBaseline(t *testing.T) {
	doc := asv.KernelsBenchDoc{Points: []asv.KernelPoint{point("sad", "fixed", 64, 48, 50)}}
	path := filepath.Join(t.TempDir(), "baseline.json")
	buf, err := json.Marshal(asv.KernelsBenchDoc{Points: []asv.KernelPoint{point("sad", "fixed", 64, 48, 60)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runKernelsGate(doc, path); err != nil {
		t.Fatalf("gate against readable baseline: %v", err)
	}
	if err := runKernelsGate(doc, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("want error for missing baseline file")
	}
}

// The gate passes fresh-only rows, so a kernel added to the harness is
// ungated until the committed baseline is regenerated with it. Pin the two
// to each other: every (kernel, variant) a run measures — census-transform
// and sgm-aggregate, the key frame's two parallel stages, among them — has a
// committed row at both gated sizes.
func TestCommittedBaselineCoversEveryKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness, skipped in -short")
	}
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed asv.KernelsBenchDoc
	if err := json.Unmarshal(buf, &committed); err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, p := range committed.Points {
		rows[p.Kernel+"|"+p.Variant]++
	}
	for _, p := range asv.MeasureKernelBench([][2]int{{32, 24}}, 8, 1).Points {
		if rows[p.Kernel+"|"+p.Variant] != 2 {
			t.Errorf("%s|%s: %d committed rows, want one per gated size (run `make kernels-json`)",
				p.Kernel, p.Variant, rows[p.Kernel+"|"+p.Variant])
		}
	}
}
