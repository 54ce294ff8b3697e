// Package analysis is a stdlib-only static-analysis engine encoding the
// project invariants that keep ASV's concurrent runtime correct: pooled
// buffers must be released, goroutines must be joinable, errors must not be
// silently dropped, golden-corpus packages must stay bit-deterministic, and
// lock- or atomic-bearing structs must not be copied. It deliberately uses
// only go/parser, go/ast and go/types (with go/importer's source importer),
// preserving the repo's no-external-dependency constraint.
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
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
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

// jsonDiagnostic is the stable machine-readable finding shape emitted by
// asvlint -json: {file,line,col,rule,msg}, one object per finding. Field
// names are part of the tool's interface; extend, don't rename.
type jsonDiagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// WriteJSON writes findings as an indented JSON array (never null: zero
// findings encode as []), in the order given.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Msg: d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Analyzer names one rule and the function that checks it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass) []Diagnostic
}

// All returns every analyzer the project ships, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerPoolPair,
		AnalyzerGoLocked,
		AnalyzerDroppedErr,
		AnalyzerDetGolden,
		AnalyzerMutexCopy,
		AnalyzerAtomicAlign,
		AnalyzerArchLayer,
		AnalyzerLockBalance,
		AnalyzerWGBalance,
	}
}

// ByName resolves a comma-separated rule list to analyzers, erroring on
// unknown names.
func ByName(list string) ([]*Analyzer, error) {
	want := strings.Split(list, ",")
	var out []*Analyzer
	for _, name := range want {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
	}
	return out, nil
}

// Run applies the analyzers to the pass, filters findings suppressed by
// //asvlint:ignore directives, and returns the remainder sorted by position.
// A directive that suppressed nothing is itself reported (rule
// "staleignore") when every rule it names was among the analyzers run —
// stale suppressions otherwise outlive the code they excused and silently
// mask the next real finding on that line.
func Run(p *Pass, analyzers []*Analyzer) []Diagnostic {
	ign, bad := ignoreIndex(p)
	var out []Diagnostic
	out = append(out, bad...)
	for _, a := range analyzers {
		for _, d := range a.Run(p) {
			if ign.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	wildcardOK := len(analyzers) >= len(All())
	for _, dir := range ign.directives {
		if dir.hit {
			continue
		}
		checkable := true
		for r := range dir.rules {
			if r == "*" {
				checkable = checkable && wildcardOK
			} else {
				checkable = checkable && ran[r]
			}
		}
		if checkable {
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

// --- shared type helpers used by several analyzers ---

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

// isPkgFunc reports whether fn is the named package-level function of the
// given import path.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
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

// funcScopeBody returns the body of the function declaration or literal a
// node belongs to; used to keep analyses function-local.
func forEachFuncBody(files []*ast.File, fn func(name string, decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd.Name.Name, fd, fd.Body)
			}
		}
	}
}
