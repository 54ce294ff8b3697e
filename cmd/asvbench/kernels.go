package main

import (
	"encoding/json"
	"fmt"
	"os"

	"asv"
)

// Kernel ns/pixel benchmarks (`asvbench -exp kernels`): the matching kernels
// in each numeric type they have, written to -json and optionally gated
// against a committed baseline with -gate. CI runs
//
//	asvbench -exp kernels -json BENCH_kernels.fresh.json -gate BENCH_kernels.json
//
// and fails only on a >2.5x ns/pixel regression, a bound loose enough for
// shared-runner noise but tight enough to catch a kernel losing its
// sliding-window or cache-blocking structure.

// gateFactor is the allowed fresh/committed ns-per-pixel ratio.
const gateFactor = 2.5

func kernelsExp() {
	sizes := [][2]int{{128, 80}, {256, 160}}
	maxDisp, rounds := 48, 3
	if os.Getenv("ASV_SMOKE") != "" {
		sizes, maxDisp, rounds = [][2]int{{64, 48}}, 16, 1
	}
	doc := asv.MeasureKernelBench(sizes, maxDisp, rounds)

	var rows [][]string
	for _, p := range doc.Points {
		speedup := ""
		if p.SpeedupX > 0 {
			speedup = fmt.Sprintf("%.2f", p.SpeedupX)
		}
		rows = append(rows, []string{p.Kernel, p.Variant,
			fmt.Sprintf("%dx%d", p.W, p.H), fmt.Sprintf("%d", p.MaxDisp),
			fmt.Sprintf("%.1f", p.NsPerPixel), speedup})
	}
	table(fmt.Sprintf("Matching-kernel ns/pixel per numeric type (maxdisp %d, min of %d)", maxDisp, rounds),
		[]string{"kernel", "variant", "size", "maxdisp", "ns/px", "speedup-x"}, rows)

	if jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		dieIf(err)
		dieIf(os.WriteFile(jsonPath, append(buf, '\n'), 0o644))
		fmt.Printf("\nwrote %s\n", jsonPath)
	}

	if gatePath != "" {
		if err := runKernelsGate(doc, gatePath); err != nil {
			fmt.Fprintln(os.Stderr, "asvbench:", err)
			os.Exit(1)
		}
		fmt.Printf("gate ok: no kernel regressed past %.1fx of %s\n", gateFactor, gatePath)
	}
}

// runKernelsGate compares fresh measurements against the committed baseline
// at path.
func runKernelsGate(fresh asv.KernelsBenchDoc, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gate baseline: %w", err)
	}
	var committed asv.KernelsBenchDoc
	if err := json.Unmarshal(buf, &committed); err != nil {
		return fmt.Errorf("gate baseline %s: %w", path, err)
	}
	return gateKernels(fresh.Points, committed.Points)
}

// retiredRows are the float rows of kernels that have a single, integer
// implementation now: a baseline taken before that still lists them, and
// there is nothing left to measure them against.
var retiredRows = map[string]bool{"census|float": true, "sgm-aggregate|float": true, "wta|float": true}

// gateKernels fails when a committed (kernel, variant, size) row is missing
// from the fresh run or its fresh ns/pixel exceeds gateFactor times the
// committed value. Fresh-only rows pass: growing the suite must not require
// regenerating the baseline on the machine that grew it.
func gateKernels(fresh, committed []asv.KernelPoint) error {
	key := func(p asv.KernelPoint) string {
		return fmt.Sprintf("%s|%s|%dx%d", p.Kernel, p.Variant, p.W, p.H)
	}
	freshBy := make(map[string]asv.KernelPoint, len(fresh))
	for _, p := range fresh {
		freshBy[key(p)] = p
	}
	var failures []string
	for _, c := range committed {
		f, ok := freshBy[key(c)]
		if !ok {
			if !retiredRows[c.Kernel+"|"+c.Variant] {
				failures = append(failures, fmt.Sprintf("%s: missing from fresh run", key(c)))
			}
			continue
		}
		if c.NsPerPixel > 0 && f.NsPerPixel > gateFactor*c.NsPerPixel {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/px vs committed %.1f (>%.1fx)",
				key(c), f.NsPerPixel, c.NsPerPixel, gateFactor))
		}
	}
	if len(failures) > 0 {
		msg := "kernel benchmark gate failed:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
