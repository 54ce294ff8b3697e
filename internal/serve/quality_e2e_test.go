package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/quality"
)

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued, workers int
		p95             time.Duration
		want            int
	}{
		{0, 1, 0, 1},                       // no latency data: conservative floor
		{0, 1, 100 * time.Millisecond, 1},  // empty queue: one frame's slack
		{10, 1, 500 * time.Millisecond, 6}, // (10+1)*0.5s = 5.5s → 6
		{10, 2, 500 * time.Millisecond, 3}, // (5+1)*0.5s = 3s
		{1000, 1, time.Second, 30},         // clamped high
		{-3, 0, time.Millisecond, 1},       // degenerate inputs clamp sane
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.queued, tc.workers, tc.p95); got != tc.want {
			t.Errorf("retryAfterSeconds(%d,%d,%v) = %d, want %d", tc.queued, tc.workers, tc.p95, got, tc.want)
		}
	}
}

// The hint's p95 is clamped to the frame stage's observed range: frames that
// all took 600 ms sit in a histogram bucket whose upper edge is ~1.05 s, and
// the unclamped edge would send Retry-After: 2 for a 0.6 s drain.
func TestRetryAfterHintUsesClampedP95(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 1}, 0)
	for i := 0; i < 20; i++ {
		s.cfg.Metrics.Stage("frame").Observe(600 * time.Millisecond)
	}
	if got := s.retryAfterHint(); got != 1 {
		t.Fatalf("retryAfterHint = %d, want 1", got)
	}
}

func TestCreateSessionSLOValidation(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"slo":"platinum"}`); got != http.StatusBadRequest {
		t.Errorf("unknown slo: status %d, want 400", got)
	}
	if got := post(`{"slo":"gold","deadline_ms":50}`); got != http.StatusBadRequest {
		t.Errorf("gold with deadline: status %d, want 400", got)
	}
	if got := post(`{"slo":"besteffort","deadline_ms":50,"preset":"sceneflow","w":32,"h":24,"frames":2}`); got != http.StatusCreated {
		t.Errorf("besteffort session: status %d, want 201", got)
	}
}

// Gold sessions are pinned to the top rung: every reply names it, nothing
// counts as degraded, and the rung header is present on the default format.
func TestGoldSessionsStayOnTopRung(t *testing.T) {
	s, ts := testServer(t, Config{}, 0)
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 4, PW: 2,
	})
	if info.SLO != "gold" {
		t.Fatalf("default SLO %q, want gold", info.SLO)
	}
	for i := 0; i < 4; i++ {
		status, fr := submit(t, ts.URL, info.ID)
		if status != http.StatusOK {
			t.Fatalf("frame %d: status %d", i, status)
		}
		if fr.Rung != s.ladder[0].Name || fr.Degraded {
			t.Fatalf("frame %d: rung %q degraded=%v, want pinned to %q", i, fr.Rung, fr.Degraded, s.ladder[0].Name)
		}
	}
	if got := s.degradedTotal.Load(); got != 0 {
		t.Errorf("gold traffic counted %d degraded frames", got)
	}
	if got := s.rungServed[0].Load(); got != 4 {
		t.Errorf("rung-0 served %d, want 4", got)
	}
}

// Best-effort sessions under a saturated single worker degrade down the
// ladder instead of being rejected: every frame is answered 200, at least
// one below the top rung, and the counters/session info reflect it.
//
// Whether the bottom rung can meet a deadline behind a queue of five depends
// on how fast this host and this build (the race detector slows the kernels
// severalfold) run it, so the deadline is derived from a measured
// bottom-rung frame with ample headroom, and rung 0's key frames are paced
// to miss it even on an empty queue.
func TestBestEffortDegradesUnderLoad(t *testing.T) {
	const sessions, frames = 6, 5
	bottom := quality.DefaultLadder()[len(quality.DefaultLadder())-1]
	pipe := core.New(quickMatcher(0), func() core.Config { c := core.DefaultConfig(); c.PW = 2; return c }())
	var worst time.Duration
	for _, fr := range presetSeq(t, 48, 32, 4) {
		t0 := time.Now()
		quality.Step(pipe, bottom, 2, bottom.BuildMatcher(nil), fr.left, fr.right, nil)
		worst = max(worst, time.Since(t0))
	}
	deadline := max(30*time.Millisecond, 100*worst)
	deadlineMs := float64(deadline) / 1e6

	cfg := Config{QueueDepth: 2, Workers: 1}
	s, ts := testServer(t, cfg, deadline)

	ids := make([]string, sessions)
	for i := range ids {
		inf := createPresetSession(t, ts.URL, CreateSessionRequest{
			Preset: "sceneflow", W: 48, H: 32, Frames: frames, PW: 2,
			SLO: "besteffort", DeadlineMs: deadlineMs,
		})
		if inf.SLO != "besteffort" || inf.DeadlineMs != deadlineMs {
			t.Fatalf("session info %+v lost its SLO", inf)
		}
		ids[i] = inf.ID
	}

	var mu sync.Mutex
	statuses := map[int]int{}
	degraded := 0
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/frames", "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				var fr FrameResponse
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
						t.Error(err)
					}
				}
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				if fr.Degraded {
					degraded++
				}
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()

	if statuses[http.StatusOK] != sessions*frames {
		t.Fatalf("statuses %v: want all %d OK (degrade, don't reject)", statuses, sessions*frames)
	}
	if degraded == 0 {
		t.Fatal("a saturated 1-worker queue never degraded any best-effort frame")
	}
	if got := s.degradedTotal.Load(); got != int64(degraded) {
		t.Errorf("server counted %d degraded, clients saw %d", got, degraded)
	}
	counters := s.CountersSnapshot()
	rungs, ok := counters["rungs"].(map[string]int64)
	if !ok {
		t.Fatalf("counters missing rungs map: %T", counters["rungs"])
	}
	var below int64
	for name, n := range rungs {
		if name != s.ladder[0].Name {
			below += n
		}
	}
	if below != s.degradedTotal.Load() {
		t.Errorf("rung counters below top sum to %d, degraded total %d", below, s.degradedTotal.Load())
	}
}

// Once every rung's latency model says even the bottom rung cannot meet the
// deadline, best-effort admission finally refuses — with a computed
// Retry-After, not the old constant.
func TestBestEffortRefusesOnlyWhenLadderExhausted(t *testing.T) {
	cfg := Config{QueueDepth: 1, Workers: 1}
	s, ts := testServer(t, cfg, 100*time.Millisecond)
	// Seed the controller as if every rung had been observed slow, so the
	// refusal logic — not the cold-start optimism — is what we exercise.
	for r := range s.ladder {
		s.ctl.Observe(r, 500)
	}
	// Make the frame-latency model non-empty so Retry-After is computed
	// from data rather than the floor.
	s.cfg.Metrics.Stage("frame").Observe(2 * time.Second)

	gold := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 2, PW: 2,
	})
	be := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 2, PW: 2,
		SLO: "besteffort", DeadlineMs: 1,
	})

	// Occupy the single queue slot with a slow gold frame.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/sessions/"+gold.ID+"/frames", "", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.inflight.Load() >= 1 })

	resp, err := http.Post(ts.URL+"/v1/sessions/"+be.ID+"/frames", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted ladder: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", resp.Header.Get("Retry-After"))
	}
	// Queue of 1-2 across 1 worker at p95=2s: at least two seconds — proof
	// the hint is computed from observed latency, not the old constant 1.
	if secs < 2 || secs > 30 {
		t.Errorf("Retry-After %d outside the computed range [2,30]", secs)
	}
	<-done
}

// A session parked on a pyramid rung snapshots with empty temporal state
// (its live state is at the wrong geometry) and still round-trips through
// the codec into a servable session.
func TestDegradedSessionSnapshotDropsState(t *testing.T) {
	s, ts := testServer(t, Config{QueueDepth: 2, Workers: 1}, 0)
	_ = ts
	sess := &session{
		id:   "deg-snap",
		pw:   2,
		pipe: core.New(quickMatcher(0), func() core.Config { c := core.DefaultConfig(); c.PW = 2; return c }()),
	}
	sess.touch()
	seq := presetSeq(t, 48, 32, 3)
	rung := quality.Rung{Name: "half", OP: quality.OperatingPoint{Matcher: "bm", PWStretch: 1, PyrLevel: 1}}
	for _, fr := range seq {
		quality.Step(sess.pipe, rung, sess.pw, rung.BuildMatcher(quickMatcher(0)), fr.left, fr.right, nil)
	}
	sess.level = 1
	sess.w, sess.h = 48, 32

	snap := s.snapshotOf(sess)
	if snap.State.PrevLeft != nil || snap.State.FrameIdx != 0 {
		t.Fatalf("degraded snapshot kept temporal state: %+v", snap.State)
	}
	restored, err := s.sessionFromSnapshot(snap)
	if err != nil {
		t.Fatalf("restoring degraded snapshot: %v", err)
	}
	if restored.slo != quality.Gold {
		t.Errorf("restored session SLO %v, want the gold default (class is not serialized)", restored.slo)
	}
}

// --- helpers -------------------------------------------------------------

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

type testFrame struct{ left, right *imgproc.Image }

func presetSeq(t *testing.T, w, h, n int) []testFrame {
	t.Helper()
	src, err := (&Server{cfg: DefaultConfig()}).buildPreset(CreateSessionRequest{Preset: "sceneflow", W: w, H: h, Frames: n})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]testFrame, n)
	for i := range out {
		l, r := src.frame()
		out[i] = testFrame{left: l, right: r}
	}
	return out
}
