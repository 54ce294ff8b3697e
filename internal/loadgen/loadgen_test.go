package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asv/internal/core"
	"asv/internal/serve"
	"asv/internal/stereo"
)

// stubShard is a minimal fake of the serving API for loadgen unit tests:
// it creates sessions instantly and lets the test script per-request
// status behavior without paying for real stereo matching.
type stubShard struct {
	mu       sync.Mutex
	nextID   int
	frameSeq atomic.Int64
	// respond decides each frame submission's status code given the
	// 1-based global submission number.
	respond func(n int64) int
}

func (s *stubShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.nextID++
		id := fmt.Sprintf("stub%04d", s.nextID)
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":%q,"pw":2}`, id)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/frames", func(w http.ResponseWriter, r *http.Request) {
		n := s.frameSeq.Add(1)
		status := http.StatusOK
		if s.respond != nil {
			status = s.respond(n)
		}
		switch status {
		case http.StatusOK:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"session":%q,"frame":%d,"is_key":%v}`, r.PathValue("id"), n, n%2 == 1)
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

// liveServer runs a real depth server (block matching at a small disparity
// range) on an httptest listener, closed and drained at test cleanup.
func liveServer(t *testing.T) *httptest.Server {
	t.Helper()
	opt := stereo.DefaultBMOptions()
	opt.MaxDisp = 12
	s := serve.New(core.BMMatcher{Opt: opt}, serve.DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return ts
}

// TestRunLoadRetriesAfter429 scripts one 429 per session before letting
// frames through: every frame must eventually succeed via the retry path,
// with the Retry-After hint honored but capped.
func TestRunLoadRetriesAfter429(t *testing.T) {
	const sessions, frames = 3, 4
	var rejected atomic.Int64
	stub := &stubShard{}
	perSession := make(map[string]bool)
	var mu sync.Mutex
	stub.respond = func(n int64) int { return http.StatusOK }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reject the FIRST frame submission of each session once.
		if strings.HasSuffix(r.URL.Path, "/frames") {
			parts := strings.Split(r.URL.Path, "/")
			id := parts[len(parts)-2]
			mu.Lock()
			first := !perSession[id]
			perSession[id] = true
			mu.Unlock()
			if first {
				rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
				return
			}
		}
		stub.handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	t0 := time.Now()
	rep, err := Run(Config{
		BaseURL: ts.URL, Sessions: sessions, Frames: frames,
		Max429Wait: 5 * time.Millisecond,
	})
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
// the client abandon each frame after exactly Retry429 retries.
func TestRunLoadDropsAfterRetryBudget(t *testing.T) {
	const sessions, frames, retries = 2, 3, 2
	stub := &stubShard{respond: func(n int64) int { return http.StatusTooManyRequests }}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	rep, err := Run(Config{
		BaseURL: ts.URL, Sessions: sessions, Frames: frames,
		Retry429: retries, Max429Wait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 0 {
		t.Fatalf("OK=%d against an always-429 server", rep.OK)
	}
	if want := sessions * frames; rep.Dropped != want {
		t.Fatalf("Dropped=%d, want %d", rep.Dropped, want)
	}
	if want := sessions * frames * (1 + retries); rep.Requests != want {
		t.Fatalf("Requests=%d, want %d (each frame attempted 1+%d times)", rep.Requests, want, retries)
	}
	if want := sessions * frames * retries; rep.Retries != want {
		t.Fatalf("Retries=%d, want %d", rep.Retries, want)
	}
}

// TestRunLoadCountsErrorClasses checks the 4xx/5xx tallies against a stub
// cycling through statuses.
func TestRunLoadCountsErrorClasses(t *testing.T) {
	stub := &stubShard{respond: func(n int64) int {
		switch n % 3 {
		case 1:
			return http.StatusOK
		case 2:
			return http.StatusUnprocessableEntity
		default:
			return http.StatusInternalServerError
		}
	}}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	rep, err := Run(Config{BaseURL: ts.URL, Sessions: 1, Frames: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 3 || rep.Status4xx != 3 || rep.Status5xx != 3 {
		t.Fatalf("OK/4xx/5xx = %d/%d/%d, want 3/3/3", rep.OK, rep.Status4xx, rep.Status5xx)
	}
}

// TestRunLoadMixedScenarios drives a REAL server (not the stub) with mixed
// raw/rectified uploads and all four response formats: with 4 sessions,
// mixed mode gives rectified+json, raw+disparity, rectified+depth and
// raw+cloud — every serving path in one run, no failures allowed.
func TestRunLoadMixedScenarios(t *testing.T) {
	ts := liveServer(t)
	const sessions, frames = 4, 4
	rep, err := Run(Config{
		BaseURL: ts.URL, Sessions: sessions, Frames: frames,
		W: 48, H: 32, PW: 2, Upload: true, Mixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != sessions*frames {
		t.Fatalf("OK=%d of %d (4xx %d, 5xx %d, transport %d)",
			rep.OK, sessions*frames, rep.Status4xx, rep.Status5xx, rep.Transport)
	}
	if rep.DepthMaps != frames {
		t.Fatalf("DepthMaps=%d, want %d (one depth session)", rep.DepthMaps, frames)
	}
	if rep.Clouds != frames || rep.CloudPts == 0 {
		t.Fatalf("Clouds=%d points=%d, want %d clouds with points", rep.Clouds, rep.CloudPts, frames)
	}

	// Single-format runs work against preset sessions too (the server
	// synthesizes frames, calibration comes from the load config).
	rep, err = Run(Config{
		BaseURL: ts.URL, Sessions: 1, Frames: 3,
		W: 48, H: 32, PW: 2, Format: "cloud",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 3 || rep.Clouds != 3 {
		t.Fatalf("preset cloud run: OK=%d Clouds=%d, want 3/3", rep.OK, rep.Clouds)
	}

	// An unknown format fails the run before any traffic.
	if _, err := Run(Config{BaseURL: ts.URL, Format: "stl"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestRunLoadCluster fans the workload over two stub endpoints and checks
// the aggregate is the sum of the per-target reports.
func TestRunLoadCluster(t *testing.T) {
	const sessions, frames = 2, 3
	mk := func() *httptest.Server { return httptest.NewServer((&stubShard{}).handler()) }
	ts1, ts2 := mk(), mk()
	defer ts1.Close()
	defer ts2.Close()

	rep, err := RunCluster(Config{Sessions: sessions, Frames: frames}, []string{ts1.URL, ts2.URL})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("Targets has %d entries, want 2", len(rep.Targets))
	}
	if want := 2 * sessions * frames; rep.Aggregate.OK != want {
		t.Fatalf("aggregate OK=%d, want %d", rep.Aggregate.OK, want)
	}
	sum := 0
	for _, tr := range rep.Targets {
		sum += tr.OK
	}
	if sum != rep.Aggregate.OK {
		t.Fatalf("per-target OK sums to %d, aggregate says %d", sum, rep.Aggregate.OK)
	}
	if rep.Aggregate.P99Ms <= 0 || rep.Aggregate.MaxMs < rep.Aggregate.P50Ms {
		t.Fatalf("aggregate percentiles look wrong: %+v", rep.Aggregate)
	}

	// A dead target fails the run rather than silently halving it.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, err := RunCluster(Config{Sessions: 1, Frames: 1}, []string{ts1.URL, dead.URL}); err == nil {
		t.Fatal("cluster run with a dead target reported no error")
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
		var rep Report
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
