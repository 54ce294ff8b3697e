// Command asvlint runs the project's static analyzers (internal/analysis)
// over every package in the module and exits nonzero on any finding. It is
// stdlib-only by design: go/parser + go/types with the source importer, no
// x/tools.
//
// Usage:
//
//	asvlint [./...]
//	asvlint -perf [-perf-contract file] [-perf-json file] [-perf-update]
//
// Findings print as "file:line:col: [rule] message", relative to the module
// root.
//
// -perf runs the compiler-diagnostics perf gate instead of the analyzers:
// it rebuilds the package a contract names (internal/stereo by default;
// internal/imgproc has one too) with escape/inline/bounds-check diagnostics
// and compares per-function counts against that committed
// perf_contract.json (see internal/analysis/perfgate.go). -perf-json writes
// the full parsed report for CI artifacts; -perf-update rewrites the
// contract from the measured counts after an intentional kernel change.
//
// Exit status: 0 clean, 1 findings or contract violations, 2 usage or load
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"asv/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asvlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	perf := fs.Bool("perf", false, "run the compiler-diagnostics perf gate instead of the analyzers")
	perfContract := fs.String("perf-contract", "internal/stereo/perf_contract.json",
		"perf contract path, relative to the module root")
	perfJSON := fs.String("perf-json", "", "write the parsed perf report to this file")
	perfUpdate := fs.Bool("perf-update", false, "rewrite the perf contract from the measured counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, pat := range fs.Args() {
		if pat != "./..." {
			fmt.Fprintf(stderr, "asvlint: only the ./... pattern is supported, got %q\n", pat)
			return 2
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "asvlint: %v\n", err)
		return 2
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		fmt.Fprintf(stderr, "asvlint: %v\n", err)
		return 2
	}
	if *perf {
		return runPerfGate(root, *perfContract, *perfJSON, *perfUpdate, stdout, stderr)
	}
	// The source importer resolves module-local import paths through the go
	// command, which needs to run inside the module.
	if err := os.Chdir(root); err != nil {
		fmt.Fprintf(stderr, "asvlint: %v\n", err)
		return 2
	}

	loader := analysis.NewLoader()
	passes, err := loader.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "asvlint: %v\n", err)
		return 2
	}

	var all []analysis.Diagnostic
	for _, p := range passes {
		all = append(all, analysis.Run(p)...)
	}
	for i := range all {
		if rel, err := filepath.Rel(root, all[i].Pos.Filename); err == nil {
			all[i].Pos.Filename = rel
		}
	}
	if len(all) == 0 {
		fmt.Fprintf(stdout, "asvlint: %d packages clean\n", len(passes))
		return 0
	}
	for _, d := range all {
		fmt.Fprintln(stdout, d)
	}
	fmt.Fprintf(stderr, "asvlint: %d finding(s)\n", len(all))
	return 1
}

// runPerfGate drives the compiler-diagnostics gate: load the contract,
// measure, optionally persist the report and/or rewrite the contract, and
// report violations like lint findings.
func runPerfGate(root, contractPath, reportPath string, update bool, stdout, stderr io.Writer) int {
	contract, err := analysis.LoadPerfContract(filepath.Join(root, contractPath))
	if err != nil {
		fmt.Fprintf(stderr, "asvlint: perf contract: %v\n", err)
		return 2
	}
	rep, err := analysis.RunPerfGate(root, contract)
	if err != nil {
		fmt.Fprintf(stderr, "asvlint: perf gate: %v\n", err)
		return 2
	}
	if reportPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(reportPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "asvlint: perf report: %v\n", err)
			return 2
		}
	}
	if update {
		fresh, err := analysis.ContractFromReport(contract, rep, root)
		if err == nil {
			err = analysis.WritePerfContract(filepath.Join(root, contractPath), fresh)
		}
		if err != nil {
			fmt.Fprintf(stderr, "asvlint: perf contract update: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "asvlint: perf contract rewritten from measured counts (%s)\n", contractPath)
		return 0
	}
	if len(rep.Violations) == 0 {
		fmt.Fprintf(stdout, "asvlint: perf gate clean (%s: %d gated files, %d diagnostics within budget)\n",
			rep.Package, len(contract.Files), len(rep.Diags))
		return 0
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(stdout, v)
	}
	fmt.Fprintf(stderr, "asvlint: %d perf contract violation(s)\n", len(rep.Violations))
	return 1
}
