// Package analysis is a stdlib-only static-analysis engine for the two
// project invariants go vet cannot know and that have a record of firing:
// errors must not be silently dropped (droppederr), and only the
// internal/backend subtree may import a concrete accelerator model
// (archlayer). It also holds the compiler-diagnostics perf gate
// (perfgate.go). It deliberately uses only go/parser, go/ast and go/types
// (with go/importer's source importer), preserving the repo's
// no-external-dependency constraint. DESIGN.md §7 records which bug
// classes are left to go vet and to test oracles instead, and why.
//
// Each analyzer is a pure function over one loaded package (a Pass) that
// returns diagnostics; cmd/asvlint drives them over every package in the
// module. A finding can be suppressed with a justification comment on the
// same line or the line above:
//
//	//asvlint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory: bare ignores are themselves a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pass is one type-checked package presented to the analyzers.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path (e.g. "asv/internal/serve"); the
	// rules that only apply to certain subsystems key off it.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Diagnostic is one finding, formatted as "file:line:col: [rule] message".
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// analyzers are the rules asvlint ships; every one runs on every pass.
var analyzers = []func(p *Pass) []Diagnostic{runDroppedErr, runArchLayer}

// Run applies the analyzers to the pass, filters findings suppressed by
// //asvlint:ignore directives, and returns the remainder sorted by position.
// A directive that suppressed nothing is itself reported (rule
// "staleignore") — stale suppressions otherwise outlive the code they
// excused and silently mask the next real finding on that line.
func Run(p *Pass) []Diagnostic {
	ign, bad := ignoreIndex(p)
	var out []Diagnostic
	out = append(out, bad...)
	for _, run := range analyzers {
		for _, d := range run(p) {
			if ign.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, dir := range ign.directives {
		if !dir.hit {
			out = append(out, Diagnostic{Pos: dir.pos, Rule: "staleignore",
				Msg: fmt.Sprintf("ignore directive for %s suppresses nothing; remove it or tighten its rule list", dir.ruleList)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// diag is a convenience constructor used by the analyzers.
func (p *Pass) diag(pos token.Pos, rule, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// ignoreDirective is one //asvlint:ignore comment. A directive on line N
// suppresses matching findings on lines N and N+1, so it can sit on its own
// line above the flagged statement or at the end of it; hit records whether
// it ever suppressed anything, feeding the staleignore check.
type ignoreDirective struct {
	pos      token.Position
	rules    map[string]bool
	ruleList string // the literal rule list, for the staleignore message
	hit      bool
}

// ignores indexes the pass's directives by file and line for suppression
// lookups, keeping the flat directive list for the staleness sweep.
type ignores struct {
	byLine     map[string]map[int][]*ignoreDirective
	directives []*ignoreDirective
}

func (ig *ignores) suppressed(d Diagnostic) bool {
	lines := ig.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	ok := false
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[ln] {
			if dir.rules[d.Rule] || dir.rules["*"] {
				dir.hit = true
				ok = true
			}
		}
	}
	return ok
}

const ignorePrefix = "//asvlint:ignore"

// ignoreIndex scans the pass's comments for //asvlint:ignore directives.
// Directives without a rule list or without a reason are reported as
// findings themselves (rule "directive") so suppressions stay auditable.
func ignoreIndex(p *Pass) (*ignores, []Diagnostic) {
	ig := &ignores{byLine: map[string]map[int][]*ignoreDirective{}}
	var bad []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, p.diag(c.Pos(), "directive",
						"malformed ignore directive: want %q", ignorePrefix+" <rule>[,<rule>] <reason>"))
					continue
				}
				pos := p.Fset.Position(c.Pos())
				dir := &ignoreDirective{pos: pos, rules: map[string]bool{}, ruleList: fields[0]}
				for _, r := range strings.Split(fields[0], ",") {
					dir.rules[strings.TrimSpace(r)] = true
				}
				lines := ig.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*ignoreDirective{}
					ig.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], dir)
				ig.directives = append(ig.directives, dir)
			}
		}
	}
	return ig, bad
}

// --- type helpers for droppederr ---

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for calls through function values, conversions and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// resultErrorIndexes returns the positions of results of type error in the
// call's result tuple (empty when the call returns no error).
func resultErrorIndexes(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	var out []int
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				out = append(out, i)
			}
		}
	default:
		if t != nil && types.Identical(t, errorType) {
			out = append(out, 0)
		}
	}
	return out
}

// namedFrom reports whether t (after unwrapping pointers and aliases) is a
// named type declared in the package with the given import path.
func namedFrom(t types.Type, pkgPath string) (*types.Named, bool) {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, false
	}
	return named, named.Obj().Pkg().Path() == pkgPath
}
