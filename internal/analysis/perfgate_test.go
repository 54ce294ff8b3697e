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
	// interior passes of the separable filter, Farneback's polynomial solve
	// and the row pass of its iteration carry zero per-element bounds
	// checks in every instantiation (a check in either numeric type's copy
	// of a generic kernel is reported at the shared source line). If a
	// contract ever relaxes these to nonzero, this test — not just the
	// JSON — has to change.
	for pkg, zero := range map[string]map[string][]string{
		"stereo": {
			"kernels.go": {"blockCostStrip", "adRowCost", "adRowSums", "addRowSums"},
			"sgm.go":     {"pairStep", "sgmSweep", "censusInterior"},
		},
		"imgproc": {
			"filter.go": {"rowInterior", "filterCols"},
		},
		"flow": {
			"farneback.go": {"polySolve", "blurRow"},
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

type g[T any] struct{}

func (g[T]) n() {}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	spans, err := fileFuncSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 || spans[0].name != "a" || spans[1].name != "s.m" || spans[2].name != "g.n" {
		t.Fatalf("spans = %+v", spans)
	}
	if !spans[0].contains(4) || spans[0].contains(6) {
		t.Fatalf("span lines wrong: %+v", spans[0])
	}
}

// A generic helper's diagnostics are reported at the helper's own source
// line but come from the build of the package that instantiates it, so the
// instantiating package's contract gates them through a path that leaves
// its directory. A new escape in the helper must fail that gate.
func TestPerfGateGatesGenericHelperInInstantiatingPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("compiler-diagnostics build skipped in -short mode")
	}
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.21\n")
	write("pool/pool.go", `package pool

type List[T any] struct{ free []*T }

func (l *List[T]) Get() *T {
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	return new(T)
}
`)
	write("kern/kern.go", `package kern

import "m/pool"

var scratch pool.List[[64]int]

func Sum() int {
	s := 0
	for _, v := range scratch.Get() {
		s += v
	}
	return s
}
`)
	c := &PerfContract{Package: "./kern", Files: map[string]map[string]PerfCounts{
		"kern.go":         {"Sum": {}},
		"../pool/pool.go": {"List.Get": {}},
	}}
	rep, err := RunPerfGate(root, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Measured["../pool/pool.go"]["List.Get"].Escapes; got == 0 {
		t.Fatalf("no escape attributed to the instantiated helper; diags %+v", rep.Diags)
	}
	if joined := strings.Join(rep.Violations, "\n"); !strings.Contains(joined, "../pool/pool.go: List.Get gained heap escapes") {
		t.Fatalf("helper escape not gated in the instantiating package:\n%s", joined)
	}
	// Pinned at the measured count, the same build passes.
	one := rep.Measured["../pool/pool.go"]["List.Get"]
	c.Files["../pool/pool.go"]["List.Get"] = one
	if rep, err = RunPerfGate(root, c); err != nil || len(rep.Violations) != 0 {
		t.Fatalf("pinned helper still fails: %v %v", err, rep.Violations)
	}

	// A second instantiation prints the helper's diagnostic lines again,
	// byte for byte. Each copy is compiled code, so each one counts, and the
	// contract pinned at one instantiation fails.
	write("kern/kern2.go", `package kern

import "m/pool"

var scratch2 pool.List[[32]int]

func Sum2() int {
	s := 0
	for _, v := range scratch2.Get() {
		s += v
	}
	return s
}
`)
	c.Files["kern2.go"] = map[string]PerfCounts{"Sum2": {}}
	if rep, err = RunPerfGate(root, c); err != nil {
		t.Fatal(err)
	}
	if got := rep.Measured["../pool/pool.go"]["List.Get"].Escapes; got != 2*one.Escapes {
		t.Fatalf("two instantiations count %d escapes, want %d; diags %+v", got, 2*one.Escapes, rep.Diags)
	}
	if joined := strings.Join(rep.Violations, "\n"); !strings.Contains(joined, "../pool/pool.go: List.Get gained heap escapes") {
		t.Fatalf("a second instantiation passed the gate pinned at one:\n%s", joined)
	}
}
