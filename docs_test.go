package asv

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// liveDocs are the documents that tell a reader how to measure and check the
// system today. CHANGES.md and ROADMAP.md are history and may name retired
// instruments.
var liveDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	benchFileRe = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	// A make invocation in a code span or at the start of a code-block line;
	// the whitespace may be a line break inside a wrapped code span.
	makeCallRe   = regexp.MustCompile("(?m)(?:^|`)make\\s+([a-z][a-z0-9-]*)")
	makeTargetRe = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// TestDocsNameLiveInstruments keeps the docs and the Makefile pointing at
// the same instruments: every BENCH_*.json a live doc names is committed at
// the root, every `make` target it names exists, and every committed
// BENCH_*.json has a Makefile target that writes it (`-json <file>`).
func TestDocsNameLiveInstruments(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range makeTargetRe.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, doc := range liveDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, f := range benchFileRe.FindAllString(text, -1) {
			if _, err := os.Stat(f); err != nil {
				t.Errorf("%s names %s, which is not committed at the root", doc, f)
			}
		}
		for _, m := range makeCallRe.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
	}

	committed, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range committed {
		if benchFileRe.FindString(f) != f {
			continue // a fresh measurement such as BENCH_kernels.fresh.json
		}
		if !strings.Contains(string(mk), "-json "+f) {
			t.Errorf("%s is committed but no Makefile target writes it (-json %s)", f, f)
		}
	}
}
