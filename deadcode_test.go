package asv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeAllow names the exported functions under internal/ that may have
// no non-test caller, each with its reason. A key is "pkg.Func",
// "pkg.Type.Method", or a directory prefix ending in "/".
var deadcodeAllow = map[string]string{
	"internal/testkit/":      "test helpers shared across packages: tests are their only callers by design",
	"serve.Server.Kill":      "crash injection the internal/cluster chaos tests call across packages",
	"stereo.TemporalFlicker": "the temporal-flicker accuracy metric, kept for the accuracy-over-time evaluation that is to call it",
}

// stdlibMethods are method names a standard-library interface calls
// through the interface, so no identifier in the module names the call.
var stdlibMethods = map[string]string{
	"String":        "fmt.Stringer",
	"Error":         "error",
	"Unwrap":        "errors.Unwrap",
	"Is":            "errors.Is",
	"As":            "errors.As",
	"ServeHTTP":     "http.Handler",
	"MarshalJSON":   "json.Marshaler",
	"UnmarshalJSON": "json.Unmarshaler",
	"MarshalText":   "encoding.TextMarshaler",
	"UnmarshalText": "encoding.TextUnmarshaler",
	"Read":          "io.Reader",
	"Write":         "io.Writer",
	"Close":         "io.Closer",
	"Len":           "sort.Interface",
	"Less":          "sort.Interface",
	"Swap":          "sort.Interface",
}

// TestNoExportOnlyTestsReach fails on every exported function or method
// declared under internal/ whose name no non-test file of the module
// (benchmark/ included) uses outside a function declaration's own name.
// Such code is reached only by tests: delete it, or move it into a
// _test.go file when it is the oracle for a paper claim.
func TestNoExportOnlyTestsReach(t *testing.T) {
	files := make(map[string][]byte)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		files[filepath.ToSlash(p)] = src
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := deadExports(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s: exported %s has no non-test caller", d.file, d.name)
	}
}

// TestDeadExportsScanner holds the scanner to what it claims on a small
// in-memory module, including names that another package's identifiers
// shadow: math.Tanh and bar's own Shadowed keep neither foo function alive.
func TestDeadExportsScanner(t *testing.T) {
	files := map[string][]byte{
		"internal/foo/foo.go": []byte(`package foo

type T struct{}

func (T) String() string { return "t" }
func Dead() {}
func UsedByCmd() {}
func UsedByTest() {}
func UsedInPackage() {}
func Tanh() {}
func Shadowed() {}
func unexported() { UsedInPackage() }
`),
		"internal/bar/bar.go": []byte(`package bar

var Shadowed = 1

func use() int { return Shadowed }
`),
		"internal/foo/foo_test.go": []byte(`package foo

func useIt() { UsedByTest() }
`),
		"internal/stereo/flicker.go": []byte(`package stereo

func TemporalFlicker() float64 { return 0 }
`),
		"internal/testkit/kit.go": []byte(`package testkit

func Helper() {}
`),
		"cmd/asvfoo/main.go": []byte(`package main

import (
	"math"

	"asv/internal/foo"
)

func main() { foo.UsedByCmd(); math.Tanh(0) }
`),
	}
	dead, err := deadExports(files)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.file+" "+d.name)
	}
	want := []string{"internal/foo/foo.go foo.Dead", "internal/foo/foo.go foo.Shadowed",
		"internal/foo/foo.go foo.Tanh", "internal/foo/foo.go foo.UsedByTest"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("flagged %q, want %q", got, want)
	}
}

type deadExport struct{ file, name string }

// deadExports parses files (slash-separated module-relative path → source)
// and returns, sorted by file and name, the exported functions and methods
// under internal/ that no non-test file uses and deadcodeAllow does not
// name. _test.go entries are ignored: a caller there does not count.
//
// A function is used by X.Name where X is an import of its package, or by a
// bare Name inside its own package; so math.Tanh does not keep a
// tensor.Tanh alive. A method is used by any identifier with its name,
// because resolving the receiver's type would need the type checker.
func deadExports(files map[string][]byte) ([]deadExport, error) {
	fset := token.NewFileSet()
	used := make(map[string]bool) // "dir.Func" for functions, "Name" for methods
	type decl struct {
		deadExport
		key string
	}
	var decls []decl
	for p, src := range files {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dir := path.Dir(p)
		imports := make(map[string]string) // local name → module-relative dir
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = strings.TrimPrefix(ip, "asv/")
		}
		declNames := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !strings.HasPrefix(p, "internal/") || !fd.Name.IsExported() {
				continue
			}
			name, key := f.Name.Name+"."+fd.Name.Name, dir+"."+fd.Name.Name
			if fd.Recv != nil {
				if _, ok := stdlibMethods[fd.Name.Name]; ok {
					continue
				}
				name, key = f.Name.Name+"."+recvType(fd.Recv.List[0].Type)+"."+fd.Name.Name, fd.Name.Name
			}
			if !allowedDead(p, name) {
				decls = append(decls, decl{deadExport{p, name}, key})
			}
		}
		selectors := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				selectors[x.Sel] = true
				used[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					used[imports[id.Name]+"."+x.Sel.Name] = true
				}
			case *ast.Ident:
				if !declNames[x] && !selectors[x] {
					used[x.Name] = true
					used[dir+"."+x.Name] = true
				}
			}
			return true
		})
	}
	var dead []deadExport
	for _, d := range decls {
		if !used[d.key] {
			dead = append(dead, d.deadExport)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].name < dead[j].name
	})
	return dead, nil
}

func allowedDead(file, name string) bool {
	if _, ok := deadcodeAllow[name]; ok {
		return true
	}
	for key := range deadcodeAllow {
		if strings.HasSuffix(key, "/") && strings.HasPrefix(path.Dir(file)+"/", key) {
			return true
		}
	}
	return false
}

// recvType is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
