package analysis

// Compiler-diagnostics perf gate (stdlib-only). The matching kernels earn
// their speed from three compiler behaviours that ordinary tests cannot
// observe: the prove pass eliding per-element bounds checks
// from the sliding-window inner loops, escape analysis keeping kernel state
// off the heap, and the inliner absorbing the saturating-math leaf helpers.
// All three silently regress under innocent-looking edits. The gate makes
// them contractual: it rebuilds the kernel package with
//
//	go build -gcflags='-m -d=ssa/check_bce/debug=1'
//
// parses the escape/inline/bounds-check diagnostics the compiler emits,
// attributes each one to its enclosing function, and compares the per-
// function counts against a committed contract (perf_contract.json). A
// kernel that gains a heap escape, a non-inlined leaf call or a bounds
// check fails `make perf-gate` with a diff against the contract, exactly
// like a golden test. Warm builds replay diagnostics from the build cache,
// so the gate costs well under a second after the first run.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// PerfCounts is one function's diagnostic budget: per-element index checks
// (Found IsInBounds), slice-expression checks (Found IsSliceInBounds) and
// heap escapes ("escapes to heap" / "moved to heap"). The committed contract
// stores the allowed maxima; the gate compares them against fresh counts.
type PerfCounts struct {
	IndexChecks int `json:"index_checks"`
	SliceChecks int `json:"slice_checks"`
	Escapes     int `json:"escapes"`
}

// PerfContract is the committed shape of perf_contract.json.
type PerfContract struct {
	// Package is the package pattern handed to go build, relative to the
	// module root (e.g. "./internal/stereo").
	Package string `json:"package"`
	// MustInline lists leaf helpers that must stay inlinable: the gate
	// fails if the compiler reports "cannot inline <name>", or stops
	// reporting "can inline <name>" (a rename or removal would otherwise
	// silently drop the guarantee).
	MustInline []string `json:"must_inline"`
	// Files maps base file names to their per-function budgets. Only
	// diagnostics in these files are gated; a function that appears in a
	// gated file but not in its budget map is a violation, so new kernels
	// must declare their counts explicitly.
	Files map[string]map[string]PerfCounts `json:"files"`
}

// PerfDiag is one parsed compiler diagnostic attributed to a function.
type PerfDiag struct {
	File string `json:"file"` // base name, e.g. "kernels.go"
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Func string `json:"func"` // enclosing function, or "(top-level)"
	Kind string `json:"kind"` // "index-check" | "slice-check" | "escape"
	Msg  string `json:"msg"`
}

// PerfReport is the gate's full result, serialized by cmd/asvlint -perf-json
// for CI artifacts.
type PerfReport struct {
	Package    string                           `json:"package"`
	Measured   map[string]map[string]PerfCounts `json:"measured"`
	Inlinable  map[string]bool                  `json:"inlinable"`
	Diags      []PerfDiag                       `json:"diags"`
	Violations []string                         `json:"violations"`
}

// LoadPerfContract reads and validates a committed contract file.
func LoadPerfContract(path string) (*PerfContract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c PerfContract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if c.Package == "" || len(c.Files) == 0 {
		return nil, fmt.Errorf("%s: contract needs a package and at least one file", path)
	}
	return &c, nil
}

// diagLine matches the compiler's "file:line:col: message" diagnostics.
var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// perfBuildOutput recompiles pkg with escape/inline/BCE diagnostics enabled
// and returns the raw compiler output. The build runs from the module root;
// warm build caches replay the diagnostics without recompiling.
func perfBuildOutput(root, pkg string) (string, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m -d=ssa/check_bce/debug=1", pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
	}
	return string(out), nil
}

// funcSpans maps every function declaration in a file to its line range so
// diagnostics can be attributed. Methods are named "Type.method"; function
// literals attribute to the declaration that encloses them.
type funcSpan struct {
	name       string
	start, end int
}

func fileFuncSpans(path string) ([]funcSpan, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var spans []funcSpan
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		spans = append(spans, funcSpan{name, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line})
	}
	return spans, nil
}

func (s funcSpan) contains(line int) bool { return line >= s.start && line <= s.end }

// RunPerfGate executes the gate: build with diagnostics, attribute, compare
// against the contract. The returned report always carries the measured
// counts; a non-empty Violations list means the gate failed.
func RunPerfGate(root string, c *PerfContract) (*PerfReport, error) {
	out, err := perfBuildOutput(root, c.Package)
	if err != nil {
		return nil, err
	}
	pkgDir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(c.Package, "./")))
	spans := map[string][]funcSpan{}
	for base := range c.Files {
		sp, err := fileFuncSpans(filepath.Join(pkgDir, base))
		if err != nil {
			return nil, fmt.Errorf("contract file: %v", err)
		}
		spans[base] = sp
	}

	rep := &PerfReport{
		Package:   c.Package,
		Measured:  map[string]map[string]PerfCounts{},
		Inlinable: map[string]bool{},
	}
	for _, name := range c.MustInline {
		rep.Inlinable[name] = false
	}
	cannotInline := map[string]string{}
	seen := map[string]bool{} // dedupe identical diagnostic lines
	for _, line := range strings.Split(out, "\n") {
		m := diagLine.FindStringSubmatch(line)
		if m == nil || seen[line] {
			continue
		}
		seen[line] = true
		msg := m[4]
		// Inline verdicts are package-wide, not limited to gated files.
		if name, ok := strings.CutPrefix(msg, "can inline "); ok {
			if _, tracked := rep.Inlinable[name]; tracked {
				rep.Inlinable[name] = true
			}
			continue
		}
		if rest, ok := strings.CutPrefix(msg, "cannot inline "); ok {
			name, reason, _ := strings.Cut(rest, ":")
			if _, tracked := rep.Inlinable[name]; tracked {
				cannotInline[name] = strings.TrimSpace(reason)
			}
			continue
		}
		var kind string
		switch {
		case msg == "Found IsInBounds":
			kind = "index-check"
		case msg == "Found IsSliceInBounds":
			kind = "slice-check"
		case strings.Contains(msg, "escapes to heap"), strings.Contains(msg, "moved to heap"):
			kind = "escape"
		default:
			continue
		}
		base := filepath.Base(m[1])
		sp, gated := spans[base]
		if !gated {
			continue
		}
		//asvlint:ignore droppederr the diagLine regexp only captures digit runs
		lineNo, _ := strconv.Atoi(m[2])
		//asvlint:ignore droppederr the diagLine regexp only captures digit runs
		col, _ := strconv.Atoi(m[3])
		fn := "(top-level)"
		for _, s := range sp {
			if s.contains(lineNo) {
				fn = s.name
				break
			}
		}
		rep.Diags = append(rep.Diags, PerfDiag{File: base, Line: lineNo, Col: col, Func: fn, Kind: kind, Msg: msg})
		funcs := rep.Measured[base]
		if funcs == nil {
			funcs = map[string]PerfCounts{}
			rep.Measured[base] = funcs
		}
		counts := funcs[fn]
		switch kind {
		case "index-check":
			counts.IndexChecks++
		case "slice-check":
			counts.SliceChecks++
		case "escape":
			counts.Escapes++
		}
		funcs[fn] = counts
	}
	sort.Slice(rep.Diags, func(i, j int) bool {
		a, b := rep.Diags[i], rep.Diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})

	// Compare against the contract.
	for _, name := range c.MustInline {
		if reason, bad := cannotInline[name]; bad {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s: must stay inlinable but the compiler reports: cannot inline: %s", name, reason))
		} else if !rep.Inlinable[name] {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s: listed in must_inline but no \"can inline\" diagnostic was seen — renamed or removed?", name))
		}
	}
	files := make([]string, 0, len(c.Files))
	for base := range c.Files {
		files = append(files, base)
	}
	sort.Strings(files)
	for _, base := range files {
		budget := c.Files[base]
		measured := rep.Measured[base]
		names := make([]string, 0, len(budget)+len(measured))
		for fn := range budget {
			names = append(names, fn)
		}
		for fn := range measured {
			if _, ok := budget[fn]; !ok {
				names = append(names, fn)
			}
		}
		sort.Strings(names)
		declared := map[string]bool{}
		for _, s := range spans[base] {
			declared[s.name] = true
		}
		for _, fn := range names {
			limit, inBudget := budget[fn]
			got := measured[fn]
			switch {
			case !inBudget:
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"%s: %s has diagnostics (%d index, %d slice, %d escape) but no budget in the contract — add an entry with justified counts",
					base, fn, got.IndexChecks, got.SliceChecks, got.Escapes))
			case fn != "(top-level)" && !declared[fn]:
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"%s: contract budgets %s but no such function exists — stale contract entry", base, fn))
			default:
				if got.IndexChecks > limit.IndexChecks {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"%s: %s gained per-element bounds checks: %d > %d allowed (the prove pass stopped eliding an inner-loop check)",
						base, fn, got.IndexChecks, limit.IndexChecks))
				}
				if got.SliceChecks > limit.SliceChecks {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"%s: %s gained slice-expression checks: %d > %d allowed",
						base, fn, got.SliceChecks, limit.SliceChecks))
				}
				if got.Escapes > limit.Escapes {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"%s: %s gained heap escapes: %d > %d allowed",
						base, fn, got.Escapes, limit.Escapes))
				}
			}
		}
	}
	return rep, nil
}

// ContractFromReport rebuilds a contract pinning exactly the measured
// counts — the maintenance path (asvlint -perf -perf-update) after an
// intentional kernel change. Gated files keep their file set; functions
// with no diagnostics get explicit zero budgets so the contract documents
// the guarantee, not just the exceptions.
func ContractFromReport(old *PerfContract, rep *PerfReport, root string) (*PerfContract, error) {
	c := &PerfContract{Package: old.Package, MustInline: old.MustInline, Files: map[string]map[string]PerfCounts{}}
	pkgDir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(old.Package, "./")))
	for base := range old.Files {
		sp, err := fileFuncSpans(filepath.Join(pkgDir, base))
		if err != nil {
			return nil, err
		}
		funcs := map[string]PerfCounts{}
		for _, s := range sp {
			funcs[s.name] = rep.Measured[base][s.name]
		}
		for fn, counts := range rep.Measured[base] {
			funcs[fn] = counts
		}
		c.Files[base] = funcs
	}
	return c, nil
}

// WritePerfContract writes a contract as stable, diff-friendly JSON.
func WritePerfContract(path string, c *PerfContract) error {
	raw, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
