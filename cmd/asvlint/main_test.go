package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintModule writes a throwaway module holding the given files (plus a
// go.mod) into a temp dir, runs asvlint from inside it and returns the exit
// code with both streams. run() finds the module from the working directory,
// so the helper moves there and back; nothing here loads the repo itself —
// internal/analysis.TestModuleIsLintClean is the one self-hosting test.
func lintModule(t *testing.T, files map[string]string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, src string) {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module lintme\n\ngo 1.22\n")
	for name, src := range files {
		write(name, src)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

const cleanSrc = `package clean

func mk() error { return nil }

func Use() error { return mk() }
`

func TestRunRejectsUnsupportedPattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./cmd/..."}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestRunModuleClean is the path `make lint` takes on a clean tree: exit 0
// and the one-line package count.
func TestRunModuleClean(t *testing.T) {
	code, stdout, stderr := lintModule(t, map[string]string{
		"clean.go":     cleanSrc,
		"sub/clean.go": cleanSrc,
	}, "./...")
	if code != 0 || stdout != "asvlint: 2 packages clean\n" {
		t.Fatalf("exit = %d, stdout = %q, want 0 and the clean summary\nstderr:\n%s", code, stdout, stderr)
	}
}

// A dropped error, a bare directive and a stale directive each print as
// "file:line:col: [rule] msg" relative to the module root, sorted by
// position, and make the run exit 1.
func TestRunReportsFindings(t *testing.T) {
	const dirty = `package dirty

func mk() error { return nil }

func Dropped() {
	mk()
}

func Bare() {
	//asvlint:ignore
}

func Stale() int {
	//asvlint:ignore droppederr nothing here returns an error
	return 1
}
`
	code, stdout, stderr := lintModule(t, map[string]string{
		"clean.go":       cleanSrc,
		"dirty/dirty.go": dirty,
	})
	want := []string{
		"dirty/dirty.go:6:2: [droppederr] error result of mk is discarded; ",
		"dirty/dirty.go:10:2: [directive] malformed ignore directive: ",
		"dirty/dirty.go:14:2: [staleignore] ignore directive for droppederr suppresses nothing; ",
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if code != 1 || len(lines) != len(want) {
		t.Fatalf("exit = %d, want 1 with %d findings\nstdout:\n%s\nstderr:\n%s", code, len(want), stdout, stderr)
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, lines[i], w)
		}
	}
	if !strings.Contains(stderr, "3 finding(s)") {
		t.Errorf("stderr = %q, want the finding count", stderr)
	}
}

// A module that does not type-check is a load error, not a finding.
func TestRunLoadErrorExits2(t *testing.T) {
	code, stdout, stderr := lintModule(t, map[string]string{
		"broken.go": "package broken\n\nfunc f() int { return undefined }\n",
	})
	if code != 2 || stdout != "" || !strings.Contains(stderr, "type-checking lintme") {
		t.Fatalf("exit = %d, stdout = %q, stderr = %q; want 2 and a type-check error on stderr", code, stdout, stderr)
	}
}
