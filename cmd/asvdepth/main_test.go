package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestRunSerialSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-frames", "4", "-w", "64", "-h", "48", "-pw", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"PW-2", "KEY", "non-key", "mean three-pixel error", "arithmetic saving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// -metrics must fill the stage table: the frame loop once handed its
// registry to nothing and printed the header alone. The frame stage spans a
// frame's key match or flow as well as its refine: a cross-frame runtime
// once recorded only the latter under it.
func TestRunMetricsFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-frames", "4", "-w", "64", "-h", "48", "-metrics"}, &b); err != nil {
		t.Fatal(err)
	}
	_, dump, found := strings.Cut(b.String(), "per-stage metrics:\n")
	if !found {
		t.Fatalf("no metrics dump:\n%s", b.String())
	}
	for _, want := range []string{"\nkeymatch ", "\nflow ", "\npropagate+refine ", "\nframe ", "pool"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, dump)
		}
	}
	// Each total is printed to 0.1 ms, so three of them may be off by
	// 0.15 ms between them.
	frame, firstHalves := totalMs(t, dump, "frame"), totalMs(t, dump, "keymatch")+totalMs(t, dump, "flow")
	if frame < firstHalves-0.15 {
		t.Fatalf("frame total %.1f ms < keymatch + flow totals %.1f ms:\n%s", frame, firstHalves, dump)
	}
}

// totalMs reads the total-ms column, the last, of stage's row in dump.
func totalMs(t *testing.T, dump, stage string) float64 {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == stage {
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				t.Fatalf("stage %s: total %q: %v", stage, f[len(f)-1], err)
			}
			return v
		}
	}
	t.Fatalf("no %s row in:\n%s", stage, dump)
	return 0
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-frames", "notanumber"}, &b); err == nil {
		t.Fatal("bad -frames value accepted")
	}
	if err := run([]string{"-nonsense"}, &b); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
