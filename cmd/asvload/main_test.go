package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"asv"
	"asv/internal/loadgen"
)

func startServer(t *testing.T) string {
	t.Helper()
	opt := asv.DefaultBMOptions()
	opt.MaxDisp = 12
	srv := asv.NewServeServer(asv.BMKeyMatcher{Opt: opt}, asv.DefaultServeConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return "http://" + addr.String()
}

// TestLoadAgainstLiveServer drives a small preset run end to end and checks
// the JSON report: every request succeeded and the key/propagated split
// matches the ISM cadence.
func TestLoadAgainstLiveServer(t *testing.T) {
	base := startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-sessions", "2", "-frames", "6",
		"-w", "48", "-h", "32", "-pw", "3", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out.String())
	}

	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("parsing report: %v from %s", err, out.String())
	}
	if rep.Requests != 12 || rep.OK != 12 {
		t.Fatalf("want 12/12 ok, got %+v", rep)
	}
	if rep.Status5xx != 0 || rep.Transport != 0 {
		t.Fatalf("errors in report: %+v", rep)
	}
	// PW=3 over 6 frames: frames 0 and 3 are key, per session.
	if rep.KeyFrames != 4 || rep.NonKey != 8 {
		t.Fatalf("key/propagated split %d/%d, want 4/8", rep.KeyFrames, rep.NonKey)
	}
	if rep.P99Ms <= 0 {
		t.Fatalf("p99 not reported: %+v", rep)
	}
}

func TestLoadTextReport(t *testing.T) {
	base := startServer(t)
	var out bytes.Buffer
	if err := run([]string{
		"-addr", base, "-sessions", "1", "-frames", "3",
		"-w", "48", "-h", "32", "-pw", "2",
	}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"requests", "p50", "p99", "429"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q: %s", want, text)
		}
	}
}

func TestLoadRefusesDeadServer(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-frames", "1", "-timeout", "2s"}, &out); err == nil {
		t.Fatal("expected an error against a dead server")
	}
}

// TestLoadClusterMode drives two live servers through -addrs and checks the
// aggregate sums the per-target reports.
func TestLoadClusterMode(t *testing.T) {
	a, b := startServer(t), startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addrs", a + "," + b, "-sessions", "2", "-frames", "4",
		"-w", "48", "-h", "32", "-pw", "2", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out.String())
	}

	var crep loadgen.ClusterReport
	if err := json.Unmarshal(out.Bytes(), &crep); err != nil {
		t.Fatalf("parsing report: %v from %s", err, out.String())
	}
	if len(crep.Targets) != 2 {
		t.Fatalf("want 2 targets, got %d", len(crep.Targets))
	}
	sum := 0
	for name, rep := range crep.Targets {
		if rep.OK != 8 {
			t.Fatalf("target %s: want 8 ok, got %+v", name, rep)
		}
		sum += rep.OK
	}
	if crep.Aggregate.OK != sum || crep.Aggregate.Requests != 16 {
		t.Fatalf("aggregate does not sum targets: %+v", crep.Aggregate)
	}
	if crep.Aggregate.P99Ms <= 0 {
		t.Fatalf("aggregate percentiles missing: %+v", crep.Aggregate)
	}
}

func TestLoadClusterModeFailsOnDeadTarget(t *testing.T) {
	a := startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addrs", a + ",http://127.0.0.1:1", "-frames", "1", "-timeout", "2s",
	}, &out)
	if err == nil {
		t.Fatal("expected an error when one cluster target is dead")
	}
}
