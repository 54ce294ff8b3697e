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

	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	subshellRe = regexp.MustCompile(`\$\([^)]*\)`)
	// A tool: asv<tool> as a bare word or a path's last element, such as
	// ./cmd/asv<tool> or a built binary.
	toolRe    = regexp.MustCompile(`(?:^|[\s/])asv([a-z]+)\b`)
	flagUseRe = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	// A flag definition: fs.<Type>("name" or flag.<Type>("name", or their
	// Var forms.
	flagDefRe = regexp.MustCompile(`\b(?:fs|flag)\.[A-Z]\w*\((?:&[\w.]+,\s*)?"([a-z][a-z0-9-]*)"`)
)

// TestDocsNameLiveInstruments keeps the docs, the Makefile and the commands
// pointing at the same instruments: every BENCH_*.json a live doc names is
// committed at the root, every `make` target it names exists, every
// committed BENCH_*.json has a Makefile target that writes it (`-json
// <file>`), and every flag a live doc passes to an asv<tool> is defined in
// cmd/asv<tool> (see docFlagUses).
func TestDocsNameLiveInstruments(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range makeTargetRe.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	cmds, err := filepath.Glob(filepath.Join("cmd", "asv*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	defined := make(map[flagUse]bool)
	for _, f := range cmds {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		tool := strings.TrimPrefix(filepath.Base(filepath.Dir(f)), "asv")
		for _, m := range flagDefRe.FindAllStringSubmatch(string(src), -1) {
			defined[flagUse{tool, m[1]}] = true
		}
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
		for _, u := range docFlagUses(text) {
			if !defined[u] {
				t.Errorf("%s passes -%s to asv%s, which cmd/asv%s does not define", doc, u.flag, u.tool, u.tool)
			}
		}
	}

	committed, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range committed {
		if benchFileRe.FindString(f) != f {
			continue // a fresh measurement such as BENCH_eval.fresh.json
		}
		if !strings.Contains(string(mk), "-json "+f) {
			t.Errorf("%s is committed but no Makefile target writes it (-json %s)", f, f)
		}
	}
}

type flagUse struct{ tool, flag string }

// docFlagUses returns the flags a markdown text passes to asv<tool>: those
// written after the tool in the same code span or code-block line, and
// those in a later code span of the same paragraph that starts with a flag,
// such as "`asvdepth -metrics` prints ..., with or without `-x`". A
// code-block line is one command; a paragraph runs to the next blank line.
func docFlagUses(text string) []flagUse {
	var uses []flagUse
	var para []string
	scan := func(spans []string) {
		tool := ""
		for _, span := range spans {
			span = subshellRe.ReplaceAllString(span, "")
			span, _, _ = strings.Cut(span, " #")
			for _, cmd := range strings.FieldsFunc(span, func(r rune) bool { return strings.ContainsRune("|;&", r) }) {
				args := strings.TrimSpace(cmd)
				if loc := toolRe.FindStringSubmatchIndex(args); loc != nil {
					tool, args = args[loc[2]:loc[3]], args[loc[1]:]
				} else if !strings.HasPrefix(args, "-") {
					continue
				}
				if tool == "" {
					continue
				}
				for _, m := range flagUseRe.FindAllStringSubmatch(args, -1) {
					uses = append(uses, flagUse{tool, m[1]})
				}
			}
		}
	}
	flush := func() {
		var spans []string
		for _, m := range codeSpanRe.FindAllStringSubmatch(strings.Join(para, "\n"), -1) {
			spans = append(spans, m[1])
		}
		scan(spans)
		para = para[:0]
	}
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			flush()
			inBlock = !inBlock
		case inBlock:
			scan([]string{line})
		case strings.TrimSpace(line) == "":
			flush()
		default:
			para = append(para, line)
		}
	}
	flush()
	return uses
}
