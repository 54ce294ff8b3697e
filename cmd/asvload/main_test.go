package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asv"
	"asv/internal/testkit"
)

// TestMain fails the package if its tests leave a goroutine running: every
// goroutine a run starts must be joined by a Close, Wait or drain.
func TestMain(m *testing.M) { testkit.MainNoLeaks(m) }

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

// stubShard is a minimal fake of the serving API: it creates sessions
// instantly and answers each frame submission with the status respond
// gives its 1-based global submission number, without paying for stereo
// matching.
func stubShard(respond func(n int64) int) http.Handler {
	var sessions, frames atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":"stub%04d","pw":2}`, sessions.Add(1))
	})
	mux.HandleFunc("POST /v1/sessions/{id}/frames", func(w http.ResponseWriter, r *http.Request) {
		switch status := respond(frames.Add(1)); status {
		case http.StatusOK:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"session":%q}`, r.PathValue("id"))
		case http.StatusTooManyRequests:
			// An aggressively long hint: the client must cap it, not
			// sleep a full second per retry.
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, status)
		default:
			http.Error(w, `{"error":"stub"}`, status)
		}
	})
	return mux
}

func alwaysOK(int64) int { return http.StatusOK }

// TestLoadAgainstLiveServer drives a small preset run end to end and checks
// the JSON report: every request succeeded, each at the gold top rung.
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

	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("parsing report: %v from %s", err, out.String())
	}
	if rep.Requests != 12 || rep.OK != 12 {
		t.Fatalf("want 12/12 ok, got %+v", rep)
	}
	if rep.Status5xx != 0 || rep.Transport != 0 {
		t.Fatalf("errors in report: %+v", rep)
	}
	if rep.Degraded != 0 || len(rep.Rungs) != 1 {
		t.Fatalf("gold frames reported at rungs %v (%d degraded), want one rung", rep.Rungs, rep.Degraded)
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
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-frames", "1"}, &out); err == nil {
		t.Fatal("expected an error against a dead server")
	}
}

// TestLoadRejectsUnpacableQPS: a rate whose tick interval truncates to 0 ns
// (or that is not finite) is a named error before any request, not a
// time.NewTicker panic.
func TestLoadRejectsUnpacableQPS(t *testing.T) {
	ts := httptest.NewServer(stubShard(alwaysOK))
	defer ts.Close()
	for _, qps := range []string{"1e10", "2e9", "Inf", "NaN"} {
		var out bytes.Buffer
		err := run([]string{"-addr", ts.URL, "-sessions", "1", "-frames", "1", "-qps", qps}, &out)
		if err == nil || !strings.Contains(err.Error(), "-qps") {
			t.Errorf("-qps %s: err = %v, want a -qps error", qps, err)
		}
	}
	// The fastest rate that still paces is accepted.
	if err := run([]string{"-addr", ts.URL, "-sessions", "1", "-frames", "1", "-qps", "1e9"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("-qps 1e9: %v", err)
	}
}

// TestRunLoadRetriesAfter429 scripts one 429 per session before letting
// frames through: every frame must eventually succeed via the retry path,
// with the Retry-After hint honored but capped.
func TestRunLoadRetriesAfter429(t *testing.T) {
	const sessions, frames = 3, 4
	stub := stubShard(alwaysOK)
	var mu sync.Mutex
	seen := make(map[string]bool)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reject the FIRST frame submission of each session once.
		if strings.HasSuffix(r.URL.Path, "/frames") {
			mu.Lock()
			first := !seen[r.URL.Path]
			seen[r.URL.Path] = true
			mu.Unlock()
			if first {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
				return
			}
		}
		stub.ServeHTTP(w, r)
	}))
	defer ts.Close()

	t0 := time.Now()
	rep, err := runLoad(config{addr: ts.URL, sessions: sessions, frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != sessions*frames {
		t.Fatalf("OK=%d, want %d (a 429'd frame was dropped instead of retried)", rep.OK, sessions*frames)
	}
	if rep.Rejected != sessions || rep.Retries != sessions {
		t.Fatalf("Rejected=%d Retries=%d, want %d each", rep.Rejected, rep.Retries, sessions)
	}
	if rep.Dropped != 0 {
		t.Fatalf("Dropped=%d, want 0", rep.Dropped)
	}
	if rep.Requests != sessions*frames+sessions {
		t.Fatalf("Requests=%d, want %d", rep.Requests, sessions*frames+sessions)
	}
	// Retry-After said 1s per retry; the cap must have kept the whole run
	// far under sessions×1s.
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("run took %v; Retry-After cap not applied", elapsed)
	}
	if rep.OKRps <= 0 {
		t.Fatalf("OKRps=%g, want > 0", rep.OKRps)
	}
}

// TestRunLoadDropsAfterRetryBudget: a server that never stops 429ing makes
// the client abandon each frame after exactly retry429 retries.
func TestRunLoadDropsAfterRetryBudget(t *testing.T) {
	const sessions, frames = 2, 3
	ts := httptest.NewServer(stubShard(func(int64) int { return http.StatusTooManyRequests }))
	defer ts.Close()

	rep, err := runLoad(config{addr: ts.URL, sessions: sessions, frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 0 {
		t.Fatalf("OK=%d against an always-429 server", rep.OK)
	}
	if want := sessions * frames; rep.Dropped != want {
		t.Fatalf("Dropped=%d, want %d", rep.Dropped, want)
	}
	if want := sessions * frames * (1 + retry429); rep.Requests != want {
		t.Fatalf("Requests=%d, want %d (each frame attempted 1+%d times)", rep.Requests, want, retry429)
	}
	if want := sessions * frames * retry429; rep.Retries != want {
		t.Fatalf("Retries=%d, want %d", rep.Retries, want)
	}
}

// TestRunLoadCountsErrorClasses checks the 4xx/5xx tallies against a stub
// cycling through statuses.
func TestRunLoadCountsErrorClasses(t *testing.T) {
	ts := httptest.NewServer(stubShard(func(n int64) int {
		switch n % 3 {
		case 1:
			return http.StatusOK
		case 2:
			return http.StatusUnprocessableEntity
		default:
			return http.StatusInternalServerError
		}
	}))
	defer ts.Close()

	rep, err := runLoad(config{addr: ts.URL, sessions: 1, frames: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 3 || rep.Status4xx != 3 || rep.Status5xx != 3 {
		t.Fatalf("OK/4xx/5xx = %d/%d/%d, want 3/3/3", rep.OK, rep.Status4xx, rep.Status5xx)
	}
}

// TestSetPercentilesNearestRank checks every reported percentile against a
// nearest-rank oracle in integer arithmetic: the smallest sample with at
// least p% of the samples at or below it.
func TestSetPercentilesNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 50, 101} {
		// Shuffled so setPercentiles has to sort.
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64((i*7)%n + 1)
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		oracle := func(p int) float64 {
			for i, v := range sorted {
				if (i+1)*100 >= p*n {
					return v
				}
			}
			return sorted[n-1]
		}
		var rep report
		setPercentiles(&rep, samples)
		for _, c := range []struct {
			p   int
			got float64
		}{{50, rep.P50Ms}, {95, rep.P95Ms}, {99, rep.P99Ms}} {
			if want := oracle(c.p); c.got != want {
				t.Errorf("n=%d: p%d = %g, want %g", n, c.p, c.got, want)
			}
		}
		if rep.MaxMs != sorted[n-1] {
			t.Errorf("n=%d: max = %g, want %g", n, rep.MaxMs, sorted[n-1])
		}
	}
}
