package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expected-diagnostic regexes from fixture comments of
// the form: // want `regex` [`regex` ...]
var wantRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// testLoader is shared by every test in the package (none runs in
// parallel), so the source importer type-checks the standard library and the
// module's own packages once per test binary rather than once per test.
var testLoader = NewLoader()

// runFixture loads the fixture directory under the given synthetic import
// path (both rules key off the package path), runs the analyzers, and
// matches every diagnostic against the fixture's `// want` annotations: each
// annotation must fire, and no unannotated diagnostic may appear.
func runFixture(t *testing.T, dir, importPath string) {
	t.Helper()
	pass, err := testLoader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if pass == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}

	var wants []*expectation
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				matches := wantRe.FindAllStringSubmatch(rest, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q (expected backquoted regexes)", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	diags := Run(pass)
	for _, d := range diags {
		rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Msg)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(rendered) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q did not fire", w.file, w.line, w.re)
		}
	}
}

func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return dir
}

// Both analyzers run over both fixtures: this proves each rule fires on its
// seeded violations and that neither false-positives on the other fixture's
// clean code.
func TestDroppedErrFixture(t *testing.T) {
	runFixture(t, fixtureDir(t, "droppederr"), "asv/internal/analysis/testdata/droppederr")
}

func TestArchLayerFixture(t *testing.T) {
	// Loaded under a neutral path, so the layering rule applies.
	runFixture(t, fixtureDir(t, "archlayer"), "asv/internal/analysis/testdata/archlayer")
}

// The archlayer rule must not fire inside the one subtree that is allowed
// to import the concrete models: the same fixture loaded as an
// internal/backend package produces no findings.
func TestArchLayerSilentInsideBackendSubtree(t *testing.T) {
	for _, path := range []string{"asv/internal/backend", "asv/internal/backend/backends"} {
		pass, err := testLoader.LoadDir(fixtureDir(t, "archlayer"), path)
		if err != nil {
			t.Fatalf("loading archlayer fixture as %s: %v", path, err)
		}
		if diags := Run(pass); len(diags) != 0 {
			t.Errorf("archlayer fired inside %s: %v", path, diags)
		}
	}
}

// droppederr's scope is every package except examples/: the same fixture
// loaded under an examples path produces none of its findings.
func TestPackageScopedRulesAreSilentElsewhere(t *testing.T) {
	pass, err := testLoader.LoadDir(fixtureDir(t, "droppederr"), "asv/examples/droppederr")
	if err != nil {
		t.Fatalf("loading droppederr fixture: %v", err)
	}
	for _, d := range Run(pass) {
		// Under this deliberately exempt import path the fixture's own
		// ignore directive legitimately suppresses nothing, so the
		// staleignore sweep fires on it; only the scoped rule itself must
		// stay silent.
		if d.Rule != "staleignore" {
			t.Errorf("droppederr fired inside examples/: %v", d)
		}
	}
}

// parseSnippet type-checks an in-memory file for directive unit tests.
func parseSnippet(t *testing.T, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: nil, Error: func(error) {}}
	pkg, _ := conf.Check("snippet", fset, []*ast.File{f}, info)
	return &Pass{Fset: fset, Path: "snippet", Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

func TestMalformedIgnoreDirectiveIsAFinding(t *testing.T) {
	p := parseSnippet(t, "package snippet\n\nfunc f() {\n\t//asvlint:ignore\n}\n")
	diags := Run(p)
	if len(diags) != 1 || diags[0].Rule != "directive" {
		t.Fatalf("want one directive finding, got %v", diags)
	}
	p = parseSnippet(t, "package snippet\n\nfunc f() {\n\t//asvlint:ignore droppederr\n}\n")
	diags = Run(p)
	if len(diags) != 1 || diags[0].Rule != "directive" {
		t.Fatalf("reason-less directive should be a finding, got %v", diags)
	}
}

func TestStaleIgnoreDirectiveIsAFinding(t *testing.T) {
	const src = "package snippet\n\nfunc f() int {\n\t//asvlint:ignore droppederr nothing here returns an error\n\treturn 1\n}\n"
	diags := Run(parseSnippet(t, src))
	if len(diags) != 1 || diags[0].Rule != "staleignore" || diags[0].Pos.Line != 4 {
		t.Fatalf("want one staleignore finding at line 4, got %v", diags)
	}

	const wild = "package snippet\n\nfunc f() int {\n\t//asvlint:ignore * transitional suppression\n\treturn 1\n}\n"
	if diags := Run(parseSnippet(t, wild)); len(diags) != 1 || diags[0].Rule != "staleignore" {
		t.Fatalf("want one staleignore finding for the wildcard, got %v", diags)
	}
}

func TestLiveIgnoreDirectiveIsNotStale(t *testing.T) {
	const src = "package snippet\n\n" +
		"func mk() error { return nil }\n\n" +
		"func f() {\n" +
		"\t//asvlint:ignore droppederr the result is irrelevant in this test helper\n" +
		"\tmk()\n" +
		"}\n"
	if diags := Run(parseSnippet(t, src)); len(diags) != 0 {
		t.Fatalf("directive suppressing a real finding was reported: %v", diags)
	}
}

// The linter must hold its own repo to zero findings. This is the one test
// in tier-1 that loads and type-checks the whole module (~11 s through the
// source importer); cmd/asvlint's tests drive run() over a throwaway module
// instead. Skipped in -short runs; `make lint` and CI run the full binary.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint run skipped in -short mode (covered by make lint)")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	passes, err := testLoader.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 20 {
		t.Fatalf("expected to load the whole module, got %d packages", len(passes))
	}
	for _, p := range passes {
		for _, d := range Run(p) {
			t.Errorf("%s", d)
		}
	}
}
