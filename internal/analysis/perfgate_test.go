package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoContract loads the committed contract of one gated package, named by
// its directory under internal/.
func repoContract(t *testing.T, pkg string) (string, *PerfContract) {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadPerfContract(filepath.Join(root, "internal", pkg, "perf_contract.json"))
	if err != nil {
		t.Fatal(err)
	}
	return root, c
}

// The committed contract must hold against a fresh build: this is the same
// check `make perf-gate` runs, kept as a test so `go test ./...` catches a
// kernel perf regression even where the Makefile isn't used. Skipped in
// -short runs (shells out to go build; warm caches make it cheap, cold ones
// don't).
func TestPerfGateRepoContractClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiler-diagnostics build skipped in -short mode (covered by make perf-gate)")
	}
	// The central guarantee: the sliding-window and SGM kernels, the guided
	// refine's row sums and the vertical sums of its candidates, the
	// interior passes of the separable filter and Farneback's two per-pixel
	// solves carry zero per-element bounds checks in every instantiation (a
	// check in either numeric type's copy of a generic kernel is reported at
	// the shared source line). If a contract ever relaxes these to nonzero,
	// this test — not just the JSON — has to change.
	for pkg, zero := range map[string]map[string][]string{
		"stereo": {
			"kernels.go": {"blockCostStrip", "adRowCost", "censusRowCost", "adRowSums", "censusRowSums", "addRowSums"},
			"sgm.go":     {"pairStep", "sgmSweep", "censusInterior"},
		},
		"imgproc": {
			"filter.go": {"rowInterior", "filterCols"},
		},
		"flow": {
			"farneback.go": {"polySolve", "solveFlow"},
		},
	} {
		root, c := repoContract(t, pkg)
		rep, err := RunPerfGate(root, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("%s perf contract violated:\n%s", pkg, strings.Join(rep.Violations, "\n"))
		}
		for _, name := range c.MustInline {
			if !rep.Inlinable[name] {
				t.Errorf("%s: %s is not reported inlinable", pkg, name)
			}
		}
		for file, fns := range zero {
			for _, fn := range fns {
				if _, ok := c.Files[file][fn]; !ok {
					t.Errorf("%s/%s: contract has no entry for %s", pkg, file, fn)
				}
				if got := rep.Measured[file][fn].IndexChecks; got != 0 {
					t.Errorf("%s/%s: %s has %d per-element bounds checks, want 0", pkg, file, fn, got)
				}
				if got := c.Files[file][fn].IndexChecks; got != 0 {
					t.Errorf("%s/%s: contract allows %s %d per-element bounds checks, want 0", pkg, file, fn, got)
				}
			}
		}
	}
}

// Tightening a budget below the measured count must produce a violation —
// the failure path a real regression would take.
func TestPerfGateDetectsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("compiler-diagnostics build skipped in -short mode")
	}
	root, c := repoContract(t, "stereo")
	budget := c.Files["kernels.go"]["slideRow"]
	if budget.IndexChecks == 0 {
		t.Skip("slideRow's degenerate path lost its residual checks; pick another probe")
	}
	budget.IndexChecks = 0
	c.Files["kernels.go"]["slideRow"] = budget
	c.Files["sgm.go"]["noSuchKernel"] = PerfCounts{}
	rep, err := RunPerfGate(root, c)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Violations, "\n")
	if !strings.Contains(joined, "slideRow gained per-element bounds checks") {
		t.Errorf("tightened slideRow budget not reported:\n%s", joined)
	}
	if !strings.Contains(joined, "noSuchKernel but no such function exists") {
		t.Errorf("stale contract entry not reported:\n%s", joined)
	}
}

func TestFileFuncSpans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	src := `package x

func a() int {
	return 1
}

type s struct{}

func (p *s) m() {
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	spans, err := fileFuncSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].name != "a" || spans[1].name != "s.m" {
		t.Fatalf("spans = %+v", spans)
	}
	if !spans[0].contains(4) || spans[0].contains(6) {
		t.Fatalf("span lines wrong: %+v", spans[0])
	}
}
