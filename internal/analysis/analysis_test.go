package analysis

import (
	"bytes"
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

// runFixture loads the fixture directory under the given synthetic import
// path (several rules key off the package path), runs the analyzers, and
// matches every diagnostic against the fixture's `// want` annotations: each
// annotation must fire, and no unannotated diagnostic may appear.
func runFixture(t *testing.T, dir, importPath string, analyzers []*Analyzer) {
	t.Helper()
	loader := NewLoader()
	pass, err := loader.LoadDir(dir, importPath)
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

	diags := Run(pass, analyzers)
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

// Every analyzer runs over every fixture: this both proves each rule fires
// on its seeded violations and that no rule false-positives on the other
// fixtures' clean code.
func TestPoolPairFixture(t *testing.T) {
	runFixture(t, fixtureDir(t, "poolpair"), "asv/internal/analysis/testdata/poolpair", All())
}

func TestGoLockedFixture(t *testing.T) {
	// Loaded as internal/pipeline so the package-scoped rule applies.
	runFixture(t, fixtureDir(t, "golocked"), "asv/internal/pipeline", All())
}

func TestDroppedErrFixture(t *testing.T) {
	runFixture(t, fixtureDir(t, "droppederr"), "asv/internal/analysis/testdata/droppederr", All())
}

func TestDetGoldenFixture(t *testing.T) {
	// Loaded as internal/stereo so the golden-corpus rule applies.
	runFixture(t, fixtureDir(t, "detgolden"), "asv/internal/stereo", All())
}

func TestMutexCopyFixture(t *testing.T) {
	runFixture(t, fixtureDir(t, "mutexcopy"), "asv/internal/analysis/testdata/mutexcopy", All())
}

func TestArchLayerFixture(t *testing.T) {
	// Loaded under a neutral path, so the layering rule applies.
	runFixture(t, fixtureDir(t, "archlayer"), "asv/internal/analysis/testdata/archlayer", All())
}

func TestLockBalanceFixture(t *testing.T) {
	// Loaded as internal/cluster so the package-scoped rule applies.
	runFixture(t, fixtureDir(t, "lockbalance"), "asv/internal/cluster", All())
}

func TestWGBalanceFixture(t *testing.T) {
	runFixture(t, fixtureDir(t, "wgbalance"), "asv/internal/analysis/testdata/wgbalance", All())
}

// The archlayer rule must not fire inside the one subtree that is allowed
// to import the concrete models: the same fixture loaded as an
// internal/backend package produces no findings.
func TestArchLayerSilentInsideBackendSubtree(t *testing.T) {
	loader := NewLoader()
	for _, path := range []string{"asv/internal/backend", "asv/internal/backend/backends"} {
		pass, err := loader.LoadDir(fixtureDir(t, "archlayer"), path)
		if err != nil {
			t.Fatalf("loading archlayer fixture as %s: %v", path, err)
		}
		if diags := Run(pass, []*Analyzer{AnalyzerArchLayer}); len(diags) != 0 {
			t.Errorf("archlayer fired inside %s: %v", path, diags)
		}
	}
}

// The detgolden and golocked rules must stay silent outside their target
// packages: the same fixtures loaded under a neutral path produce none of
// their findings.
func TestPackageScopedRulesAreSilentElsewhere(t *testing.T) {
	loader := NewLoader()
	for _, tc := range []struct {
		fixture string
		rules   []*Analyzer
	}{
		{"golocked", []*Analyzer{AnalyzerGoLocked}},
		{"detgolden", []*Analyzer{AnalyzerDetGolden}},
		{"lockbalance", []*Analyzer{AnalyzerLockBalance}},
	} {
		pass, err := loader.LoadDir(fixtureDir(t, tc.fixture), "asv/internal/analysis/testdata/"+tc.fixture)
		if err != nil {
			t.Fatalf("loading %s: %v", tc.fixture, err)
		}
		var diags []Diagnostic
		for _, d := range Run(pass, tc.rules) {
			// Under this deliberately wrong import path the fixture's own
			// ignore directives legitimately suppress nothing, so the
			// staleignore sweep fires on them; only the scoped rule itself
			// must stay silent.
			if d.Rule != "staleignore" {
				diags = append(diags, d)
			}
		}
		if len(diags) != 0 {
			t.Errorf("%s fired outside its target packages: %v", tc.fixture, diags)
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
	diags := Run(p, nil)
	if len(diags) != 1 || diags[0].Rule != "directive" {
		t.Fatalf("want one directive finding, got %v", diags)
	}
	p = parseSnippet(t, "package snippet\n\nfunc f() {\n\t//asvlint:ignore droppederr\n}\n")
	diags = Run(p, nil)
	if len(diags) != 1 || diags[0].Rule != "directive" {
		t.Fatalf("reason-less directive should be a finding, got %v", diags)
	}
}

func TestStaleIgnoreDirectiveIsAFinding(t *testing.T) {
	const src = "package snippet\n\nfunc f() int {\n\t//asvlint:ignore droppederr nothing here returns an error\n\treturn 1\n}\n"
	diags := Run(parseSnippet(t, src), All())
	if len(diags) != 1 || diags[0].Rule != "staleignore" || diags[0].Pos.Line != 4 {
		t.Fatalf("want one staleignore finding at line 4, got %v", diags)
	}

	// With a rule subset that does not include the directive's rule the
	// directive is unverifiable, so the sweep must stay silent.
	subset, err := ByName("poolpair")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(parseSnippet(t, src), subset); len(diags) != 0 {
		t.Fatalf("staleignore fired for a rule that did not run: %v", diags)
	}

	// A wildcard directive is only verifiable against the full set.
	const wild = "package snippet\n\nfunc f() int {\n\t//asvlint:ignore * transitional suppression\n\treturn 1\n}\n"
	if diags := Run(parseSnippet(t, wild), All()); len(diags) != 1 || diags[0].Rule != "staleignore" {
		t.Fatalf("want one staleignore finding for the wildcard, got %v", diags)
	}
	if diags := Run(parseSnippet(t, wild), subset); len(diags) != 0 {
		t.Fatalf("wildcard staleness should not be judged from a subset run: %v", diags)
	}
}

func TestLiveIgnoreDirectiveIsNotStale(t *testing.T) {
	const src = "package snippet\n\n" +
		"func mk() error { return nil }\n\n" +
		"func f() {\n" +
		"\t//asvlint:ignore droppederr the result is irrelevant in this test helper\n" +
		"\tmk()\n" +
		"}\n"
	if diags := Run(parseSnippet(t, src), All()); len(diags) != 0 {
		t.Fatalf("directive suppressing a real finding was reported: %v", diags)
	}
}

// The -json output schema ({file,line,col,rule,msg}) is an interface other
// tooling parses; this golden test pins it.
func TestWriteJSONGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Fatalf("empty findings = %q, want []", got)
	}
	buf.Reset()
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "internal/serve/server.go", Line: 12, Column: 3}, Rule: "lockbalance", Msg: "Lock of s.mu is not released on every path to return/panic"},
		{Pos: token.Position{Filename: "internal/imgproc/pool.go", Line: 40, Column: 2}, Rule: "poolpair", Msg: "pooled image is not returned on every path"},
	}
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	const want = `[
  {
    "file": "internal/serve/server.go",
    "line": 12,
    "col": 3,
    "rule": "lockbalance",
    "msg": "Lock of s.mu is not released on every path to return/panic"
  },
  {
    "file": "internal/imgproc/pool.go",
    "line": 40,
    "col": 2,
    "rule": "poolpair",
    "msg": "pooled image is not returned on every path"
  }
]
`
	if got := buf.String(); got != want {
		t.Fatalf("schema drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("poolpair, detgolden")
	if err != nil || len(as) != 2 || as[0].Name != "poolpair" || as[1].Name != "detgolden" {
		t.Fatalf("ByName: %v %v", as, err)
	}
	if _, err := ByName("nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
}

// The linter must hold its own repo to zero findings — this is the
// self-hosting gate ISSUE 4's acceptance criteria pin. Skipped in -short
// runs (module-wide type-checking through the source importer takes a few
// seconds); `make lint` and CI run the full binary instead.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint run skipped in -short mode (covered by make lint)")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader()
	passes, err := loader.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 20 {
		t.Fatalf("expected to load the whole module, got %d packages", len(passes))
	}
	for _, p := range passes {
		for _, d := range Run(p, All()) {
			t.Errorf("%s", d)
		}
	}
}
