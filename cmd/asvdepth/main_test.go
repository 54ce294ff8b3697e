package main

import (
	"strings"
	"testing"
)

func TestRunSerialSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-frames", "4", "-w", "64", "-h", "48", "-pw", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"PW-2", "KEY", "non-key", "mean three-pixel error", "arithmetic saving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStreamingMatchesSerialOutput(t *testing.T) {
	args := []string{"-frames", "5", "-w", "64", "-h", "48", "-pw", "2"}
	var serial, streamed strings.Builder
	if err := run(args, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-stream"}, args...), &streamed); err != nil {
		t.Fatal(err)
	}
	// Everything below the mode header must match bit for bit — the
	// cmd-level view of the pipeline's golden guarantee.
	tail := func(s string) string {
		_, rest, _ := strings.Cut(s, "\n")
		return rest
	}
	if tail(serial.String()) != tail(streamed.String()) {
		t.Fatalf("streaming output differs from serial:\n--- serial\n%s\n--- streaming\n%s",
			serial.String(), streamed.String())
	}
}

func TestRunFixedFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-frames", "4", "-w", "64", "-h", "48", "-pw", "2", "-fixed"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fixed-point kernels", "mean three-pixel error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// -metrics must fill the stage table in both modes: the serial loop once
// handed its registry to nothing and printed the header alone.
func TestRunMetricsFlag(t *testing.T) {
	for _, mode := range [][]string{nil, {"-stream"}} {
		var b strings.Builder
		if err := run(append(mode, "-frames", "4", "-w", "64", "-h", "48", "-metrics"), &b); err != nil {
			t.Fatal(err)
		}
		_, dump, found := strings.Cut(b.String(), "per-stage metrics:\n")
		if !found {
			t.Fatalf("%v: no metrics dump:\n%s", mode, b.String())
		}
		for _, want := range []string{"\nkeymatch ", "\nflow ", "\npropagate+refine ", "\nframe ", "pool"} {
			if !strings.Contains(dump, want) {
				t.Fatalf("%v: metrics dump missing %q:\n%s", mode, want, dump)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-frames", "notanumber"}, &b); err == nil {
		t.Fatal("bad -frames value accepted")
	}
	if err := run([]string{"-nonsense"}, &b); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
