package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/metrics"
	"asv/internal/stereo"
	"asv/internal/testkit"
)

// testMatcher wraps BM with an optional artificial delay so backpressure
// tests can fill the admission queue deterministically.
type testMatcher struct {
	inner core.KeyMatcher
	delay time.Duration
}

func (m testMatcher) Match(l, r *imgproc.Image) *imgproc.Image {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	return m.inner.Match(l, r)
}
func (m testMatcher) MACs(w, h int) int64 { return m.inner.MACs(w, h) }
func (m testMatcher) Name() string        { return "test-" + m.inner.Name() }

func quickMatcher(delay time.Duration) testMatcher {
	opt := stereo.DefaultBMOptions()
	opt.MaxDisp = 12
	return testMatcher{inner: core.BMMatcher{Opt: opt}, delay: delay}
}

// testServer spins up a Server on an httptest listener and returns a
// cleanup-registered handle.
func testServer(t *testing.T, cfg Config, delay time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	return serveWith(t, quickMatcher(delay), cfg)
}

// serveWith is testServer over any key matcher.
func serveWith(t *testing.T, m core.KeyMatcher, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(m, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func createPresetSession(t *testing.T, base string, req CreateSessionRequest) SessionInfo {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create session: %s: %s", resp.Status, body)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func submit(t *testing.T, base, id string) (int, FrameResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/"+id+"/frames", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fr FrameResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, fr
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 4, PW: 2,
	})
	if info.ID == "" || info.PW != 2 || info.Preset != "sceneflow" {
		t.Fatalf("bad session info: %+v", info)
	}

	// GET reflects activity.
	status, fr := submit(t, ts.URL, info.ID)
	if status != http.StatusOK || !fr.IsKey || fr.Frame != 0 {
		t.Fatalf("first frame: status %d, %+v", status, fr)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.Frames != 1 || got.KeyFrames != 1 || got.W != 48 || got.H != 32 {
		t.Fatalf("session info after one frame: %+v", got)
	}

	// DELETE then 404 everywhere.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %s", resp.Status)
	}
	if status, _ := submit(t, ts.URL, info.ID); status != http.StatusNotFound {
		t.Fatalf("submit after delete: %d", status)
	}
}

// Frame N must run the key matcher iff N ≡ 0 (mod PW) — the ISM schedule,
// reproduced under request-driven arrival.
func TestKeyFrameCadence(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)
	const pw, n = 3, 10
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "kitti", W: 48, H: 32, Frames: 5, PW: pw,
	})
	keys := 0
	for i := 0; i < n; i++ {
		status, fr := submit(t, ts.URL, info.ID)
		if status != http.StatusOK {
			t.Fatalf("frame %d: status %d", i, status)
		}
		if fr.Frame != i {
			t.Fatalf("frame %d: server says index %d", i, fr.Frame)
		}
		if want := i%pw == 0; fr.IsKey != want {
			t.Fatalf("frame %d: is_key=%v, want %v", i, fr.IsKey, want)
		}
		if fr.IsKey {
			keys++
		}
		if fr.Disparity.W != 48 || fr.Disparity.H != 32 || fr.Disparity.ValidPc <= 0 {
			t.Fatalf("frame %d: bad disparity stats %+v", i, fr.Disparity)
		}
	}
	resp, _ := http.Get(ts.URL + "/v1/sessions/" + info.ID)
	var got SessionInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.KeyFrames != int64(keys) || got.Frames != n {
		t.Fatalf("accounting: %+v (want %d keys / %d frames)", got, keys, n)
	}
}

// A full admission queue must shed load with 429 + Retry-After, and the
// accepted/rejected accounting must cover every submission exactly once.
func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, Config{
		QueueDepth: 2, Workers: 1, MaxSessions: 8,
	}, 30*time.Millisecond)

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 4, PW: 1,
	})

	const clients = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	var retryAfterSeen bool
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			counts[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "" {
				retryAfterSeen = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s under a flood with queue depth 2: %v", counts)
	}
	if !retryAfterSeen {
		t.Fatal("429 responses missing Retry-After")
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no successes at all: %v", counts)
	}
	accepted, rejected := s.accepted.Load(), s.rejected.Load()
	if int(accepted) != counts[http.StatusOK] {
		t.Fatalf("accepted counter %d != %d OK responses", accepted, counts[http.StatusOK])
	}
	if int(rejected) != counts[http.StatusTooManyRequests] {
		t.Fatalf("rejected counter %d != %d 429s", rejected, counts[http.StatusTooManyRequests])
	}
	if int(accepted+rejected) != clients {
		t.Fatalf("accounting leak: accepted %d + rejected %d != %d submissions",
			accepted, rejected, clients)
	}

	// The counters surface in /metrics under their stable names.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if _, hasStages := doc["stages"]; len(doc) != 2 || !hasStages {
		t.Fatalf("metrics top-level keys of %v, want exactly serve and stages", doc)
	}
	serveDoc, ok := doc["serve"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing serve section: %v", doc)
	}
	for _, key := range []string{"rejected_429", "frames_accepted", "frames_completed",
		"queue_depth", "queue_capacity", "batch_mean_frames", "batch_max_frames", "sessions_active"} {
		if _, ok := serveDoc[key]; !ok {
			t.Fatalf("serve metrics missing %q: %v", key, serveDoc)
		}
	}
	if int(serveDoc["rejected_429"].(float64)) != counts[http.StatusTooManyRequests] {
		t.Fatalf("metrics rejected_429 %v != %d", serveDoc["rejected_429"], counts[http.StatusTooManyRequests])
	}
}

// Concurrent create/submit/evict across goroutines: correctness is checked
// by the race detector (this test is in the CI race gate) plus conservation
// of the accounting counters.
func TestConcurrentSessionLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxSessions: 4, QueueDepth: 64, Workers: 3,
	}, 0)

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				info := createPresetSession(t, ts.URL, CreateSessionRequest{
					Preset: "sceneflow", W: 32, H: 24, Frames: 3, PW: 2,
					Seed: int64(g*10 + round + 1),
				})
				for f := 0; f < 3; f++ {
					status, _ := submit(t, ts.URL, info.ID)
					// 404 is legal: another goroutine's create may have
					// LRU-evicted us. 429 is legal under load.
					if status != http.StatusOK && status != http.StatusNotFound &&
						status != http.StatusTooManyRequests {
						t.Errorf("unexpected status %d", status)
					}
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	if s.tab.len() > 4 {
		t.Fatalf("session table exceeded MaxSessions: %d", s.tab.len())
	}
	if got, want := s.completed.Load(), s.accepted.Load(); got != want {
		t.Fatalf("completed %d != accepted %d after quiescence", got, want)
	}
}

// TTL expiry is unit-tested directly against the table (the janitor period
// is too coarse for a test).
func TestSessionTTLExpiry(t *testing.T) {
	tab := newSessionTable(8)
	old := &session{id: "old"}
	old.lastUseNs.Store(time.Now().Add(-time.Hour).UnixNano())
	fresh := &session{id: "fresh"}
	fresh.touch()
	queued := &session{id: "queued"}
	queued.lastUseNs.Store(time.Now().Add(-time.Hour).UnixNano())
	queued.pendingFrames.Add(1)
	tab.add(old)
	tab.add(fresh)
	tab.add(queued)

	if ev := tab.expire(time.Minute); len(ev) != 1 {
		t.Fatalf("expired %d sessions, want 1", len(ev))
	}
	if tab.get("old") != nil {
		t.Fatal("idle session survived TTL")
	}
	if tab.get("fresh") == nil {
		t.Fatal("fresh session evicted")
	}
	if tab.get("queued") == nil {
		t.Fatal("session with queued work evicted")
	}
	if tab.evictions.Load() != 1 {
		t.Fatalf("eviction counter %d, want 1", tab.evictions.Load())
	}
}

func TestLRUEvictionOnOverflow(t *testing.T) {
	tab := newSessionTable(2)
	a := &session{id: "a"}
	a.lastUseNs.Store(1)
	b := &session{id: "b"}
	b.lastUseNs.Store(2)
	tab.add(a)
	tab.add(b)
	c := &session{id: "c"}
	c.touch()
	tab.add(c)
	if tab.get("a") != nil {
		t.Fatal("LRU session not evicted")
	}
	if tab.get("b") == nil || tab.get("c") == nil {
		t.Fatal("wrong eviction victim")
	}
	if tab.len() != 2 {
		t.Fatalf("table size %d, want 2", tab.len())
	}
}

// uploadPart is one part of a hand-built multipart upload: a file part
// unless file is empty.
type uploadPart struct {
	name, file string
	data       []byte
}

// multipartBody encodes parts and returns the body and its content type.
func multipartBody(t *testing.T, parts ...uploadPart) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		var fw io.Writer
		var err error
		if p.file != "" {
			fw, err = mw.CreateFormFile(p.name, p.file)
		} else {
			fw, err = mw.CreateFormField(p.name)
		}
		if err == nil {
			_, err = fw.Write(p.data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

func pgmBytes(w, h int) []byte { return imgproc.AppendPGM(nil, imgproc.NewImage(w, h)) }

// Uploaded frames are decoded as the parts stream in. PGM multipart works;
// oversize images bounce with 413 before allocation; mismatched geometry is
// a 422; only the first file part of each name counts, other parts are
// skipped; a malformed, truncated or over-cap body is a 400 however its
// parts decoded.
func TestUploadDecodeAndCaps(t *testing.T) {
	_, ts := testServer(t, Config{MaxPixels: 48 * 32}, 0)
	info := createPresetSession(t, ts.URL, CreateSessionRequest{PW: 2})

	postBody := func(query string, body []byte, contentType string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames"+query, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	post := func(parts ...uploadPart) (int, string) {
		t.Helper()
		body, ct := multipartBody(t, parts...)
		return postBody("", body, ct)
	}
	left := func(w, h int) uploadPart { return uploadPart{"left", "left.pgm", pgmBytes(w, h)} }
	right := func(w, h int) uploadPart { return uploadPart{"right", "right.pgm", pgmBytes(w, h)} }
	extra := uploadPart{"note", "note.txt", []byte("not an image")}

	for _, tc := range []struct {
		name   string
		parts  []uploadPart
		status int
		msg    string // a substring of the error body
	}{
		{"valid", []uploadPart{left(48, 32), right(48, 32)}, http.StatusOK, ""},
		// One pixel over the cap → 413 from the typed decode error.
		{"oversize", []uploadPart{left(49, 32), right(49, 32)}, http.StatusRequestEntityTooLarge, "decode limit"},
		// Geometry mismatch with the established 48x32 stream → 422.
		{"mismatched", []uploadPart{left(32, 32), right(32, 32)}, http.StatusUnprocessableEntity, ""},
		{"right before left", []uploadPart{right(48, 32), left(48, 32)}, http.StatusOK, ""},
		// A second left would be a 422 if it counted.
		{"duplicate left", []uploadPart{left(48, 32), left(32, 32), right(48, 32)}, http.StatusOK, ""},
		{"left as a plain field", []uploadPart{{"left", "", pgmBytes(48, 32)}, right(48, 32)},
			http.StatusBadRequest, `missing \"left\" image part: http: no such file`},
		{"no right", []uploadPart{left(48, 32)}, http.StatusBadRequest, `missing \"right\" image part`},
		{"unknown parts", []uploadPart{extra, left(48, 32), extra, right(48, 32), extra}, http.StatusOK, ""},
		{"undecodable left", []uploadPart{{"left", "left.pgm", []byte("P6 junk")}, right(48, 32)},
			http.StatusBadRequest, `decoding \"left\"`},
		// Past the body cap (48·32·8 + 64 KiB) the upload fails as a body,
		// before its parts are judged: an unknown part that overflows it
		// after two good images, or an oversize image that does.
		{"unknown part past the cap", []uploadPart{left(48, 32), right(48, 32), {"note", "n", make([]byte, 80_000)}},
			http.StatusBadRequest, "request body too large"},
		{"oversize image past the cap", []uploadPart{left(200, 200), right(48, 32)},
			http.StatusBadRequest, "request body too large"},
	} {
		status, msg := post(tc.parts...)
		if status != tc.status || !strings.Contains(msg, tc.msg) {
			t.Fatalf("%s: %d %s, want %d with %q", tc.name, status, msg, tc.status, tc.msg)
		}
	}

	// A body cut off inside the right part → 400.
	body, ct := multipartBody(t, left(48, 32), right(48, 32))
	if status, msg := postBody("", body[:len(body)-200], ct); status != http.StatusBadRequest {
		t.Fatalf("truncated upload: %d %s, want 400", status, msg)
	}
	// Garbage body → 400.
	if status, msg := postBody("", []byte("not multipart"), "multipart/form-data; boundary=x"); status != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d %s, want 400", status, msg)
	}
	// A malformed query string → 400, as the form parser had it.
	if status, msg := postBody("?a=1;b=2", body, ct); status != http.StatusBadRequest {
		t.Fatalf("malformed query: %d %s, want 400", status, msg)
	}
	// Not multipart at all → 400.
	if status, msg := postBody("", pgmBytes(48, 32), "application/octet-stream"); status != http.StatusBadRequest {
		t.Fatalf("non-multipart upload: %d %s, want 400", status, msg)
	}
}

// TestUploadScrubsNonFinitePFM: PFM parts are decoded verbatim except for
// non-finite samples, which become 0; PGM parts are not scanned at all.
func TestUploadScrubsNonFinitePFM(t *testing.T) {
	s, _ := testServer(t, Config{}, 0)
	im := imgproc.NewImage(3, 2)
	copy(im.Pix, []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0.25, -1, 2e9})
	body, ct := multipartBody(t, uploadPart{"left", "l.pfm", imgproc.AppendPFM(nil, im)},
		uploadPart{"right", "r.pgm", pgmBytes(3, 2)})
	req := httptest.NewRequest("POST", "/v1/sessions/x/frames", bytes.NewReader(body))
	req.Header.Set("Content-Type", ct)
	l, r, err := s.decodePair(req)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{0, 0, 0, 0.25, -1, 0}; !slices.Equal(l.Pix, want) {
		t.Fatalf("scrubbed left %v, want %v", l.Pix, want)
	}
	if r.W != 3 || r.H != 2 || slices.ContainsFunc(r.Pix, func(v float32) bool { return v != 0 }) {
		t.Fatalf("right %dx%d %v, want a 3x2 zero image", r.W, r.H, r.Pix)
	}
}

// Graceful drain: everything admitted before Close completes with 200; new
// work during/after the drain gets 503.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{QueueDepth: 16, Workers: 2}
	cfg.Metrics = metrics.NewRegistry()
	s := New(quickMatcher(10*time.Millisecond), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 4, PW: 1,
	})

	const n = 6
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := submit(t, ts.URL, info.ID)
			statuses <- status
		}()
	}
	// Let the flood land in the queue, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("in-flight request got %d during graceful drain", status)
		}
	}
	if status, _ := submit(t, ts.URL, info.ID); status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d, want 503", status)
	}
	if s.drained503.Load() == 0 {
		t.Fatal("drained-request accounting not incremented")
	}
}

func TestHealthzAndPprofGate(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// pprof is off by default.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof mounted without EnablePprof")
	}

	cfgOn := Config{EnablePprof: true}
	_, tsOn := testServer(t, cfgOn, 0)
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof gate on: %d", resp.StatusCode)
	}
}

// startTimed serves s through Start, whose http.Server applies the
// connection timeouts, and returns its address; s is drained at cleanup.
func startTimed(t *testing.T, s *Server) string {
	t.Helper()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return addr.String()
}

// TestStalledHeadersAreCutOff: a client that sends a request line and never
// finishes its headers is hung up on after readHeaderTimeout.
func TestStalledHeadersAreCutOff(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	addr := startTimed(t, New(quickMatcher(0), Config{}))
	testkit.MustDropStalledRequest(t, addr, testkit.StalledHeaders, 10*time.Second)
}

// TestStalledBodyIsCutOff: a client that sends its headers and part of the
// body they declare, then stalls, is hung up on after readTimeout.
func TestStalledBodyIsCutOff(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 100 * time.Millisecond
	addr := startTimed(t, New(quickMatcher(0), Config{}))
	testkit.MustDropStalledRequest(t, addr, testkit.StalledBody, 10*time.Second)
}

// TestSlowReplyIsCutOff: a frame that outlives writeTimeout has its
// client's connection cut, and is still counted completed.
func TestSlowReplyIsCutOff(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 300 * time.Millisecond
	s := New(NewPacedKeyMatcher(quickMatcher(0), time.Second), Config{Metrics: metrics.NewRegistry()})
	base := "http://" + startTimed(t, s)
	info := createPresetSession(t, base, CreateSessionRequest{Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1})
	if resp, err := http.Post(base+"/v1/sessions/"+info.ID+"/frames", "", nil); err == nil {
		resp.Body.Close()
		t.Fatalf("a frame paced past writeTimeout was answered %s", resp.Status)
	}
	// A frame is counted completed before its reply is written.
	if c := s.CountersSnapshot(); c["frames_accepted"] != int64(1) || c["frames_completed"] != int64(1) {
		t.Fatalf("after a cut reply: accepted %v, completed %v; want 1, 1", c["frames_accepted"], c["frames_completed"])
	}
}

// hookMatcher runs around before every Match and the function it returns
// after it, so a test can observe or hold the frames the scheduler runs.
type hookMatcher struct {
	core.KeyMatcher
	around func(left *imgproc.Image) (after func())
}

func (m hookMatcher) Match(l, r *imgproc.Image) *imgproc.Image {
	defer m.around(l)()
	return m.KeyMatcher.Match(l, r)
}

// Frames of distinct sessions must run concurrently when slots are free:
// every Match here waits until a second one is in flight, so a scheduler
// that serialized the sessions would time out. (The name dates from the
// micro-batcher this test was written against.)
func TestBatcherCoalescesAcrossSessions(t *testing.T) {
	var entered atomic.Int32
	two := make(chan struct{})
	m := hookMatcher{KeyMatcher: quickMatcher(0), around: func(*imgproc.Image) func() {
		if entered.Add(1) == 2 {
			close(two)
		}
		select {
		case <-two:
		case <-time.After(10 * time.Second):
			t.Error("no second session's frame started while this one was running")
		}
		return func() {}
	}}
	s := New(m, Config{QueueDepth: 32, Workers: 4, Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		info := createPresetSession(t, ts.URL, CreateSessionRequest{
			Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1, Seed: int64(i + 1),
		})
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for f := 0; f < 2; f++ {
				if status, _ := submit(t, ts.URL, id); status != http.StatusOK {
					t.Errorf("status %d", status)
				}
			}
		}(info.ID)
	}
	wg.Wait()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The slot-occupancy gauges saw it too.
	c := s.CountersSnapshot()
	if max := c["batch_max_frames"].(int64); max < 2 || max > 4 {
		t.Fatalf("batch_max_frames %d, want 2..4 slots held at once", max)
	}
	if mean := c["batch_mean_frames"].(float64); mean < 1 || mean > 4 {
		t.Fatalf("batch_mean_frames %v, want within [1,4]", mean)
	}
}

// TestBatcherFewerWorkersThanBatch is the liveness regression for many
// sessions sharing one worker slot: eight concurrent sessions against one
// worker wedged the micro-batcher this test was written against (PR 7), and
// must simply take turns on the slot semaphore.
func TestBatcherFewerWorkersThanBatch(t *testing.T) {
	_, ts := testServer(t, Config{QueueDepth: 32, Workers: 1}, time.Millisecond)

	const sessions, frames = 8, 3
	var ids []string
	for i := 0; i < sessions; i++ {
		info := createPresetSession(t, ts.URL, CreateSessionRequest{
			Preset: "sceneflow", W: 32, H: 24, Frames: frames, PW: 1, Seed: int64(i + 1),
		})
		ids = append(ids, info.ID)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if status, _ := submit(t, ts.URL, id); status != http.StatusOK {
					t.Errorf("status %d", status)
				}
			}
		}(id)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler wedged: 8 sessions x 1 worker never completed")
	}
}

// TestSchedulerOrderBoundsAndDrain drives several sessions, each from
// several concurrent posters, and checks the scheduler's whole contract:
// per session every frame index is served exactly once and equals the
// serial core.Pipeline oracle, never more than Workers frames and never two
// of one session run at once, and Close under load finishes every admitted
// frame. Sessions are told apart inside the matcher by frame width; the
// PW-1 sessions put every frame through it, the PW-3 ones carry temporal
// state that an out-of-order or overlapping frame would corrupt.
func TestSchedulerOrderBoundsAndDrain(t *testing.T) {
	const sessions, frames, posters = 4, 6, 3 // frames per session per wave
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			running, maxRunning, overlapped := 0, 0, false
			perWidth := map[int]int{}
			m := hookMatcher{KeyMatcher: quickMatcher(time.Millisecond), around: func(l *imgproc.Image) func() {
				mu.Lock()
				defer mu.Unlock()
				running++
				perWidth[l.W]++
				maxRunning = max(maxRunning, running)
				overlapped = overlapped || perWidth[l.W] > 1
				return func() {
					mu.Lock()
					defer mu.Unlock()
					running--
					perWidth[l.W]--
				}
			}}
			cfg := Config{Workers: workers, QueueDepth: 64, Metrics: metrics.NewRegistry()}
			s := New(m, cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			ids := make([]string, sessions)
			oracle := make([][]*imgproc.Image, sessions)
			for k := range ids {
				w, pw := 32+8*k, 1+2*(k%2)
				ids[k] = createPresetSession(t, ts.URL, CreateSessionRequest{
					Preset: "sceneflow", W: w, H: 24, Frames: 2 * frames, PW: pw, Seed: int64(k + 1),
				}).ID
				ocfg := cfg.withDefaults().Pipeline
				ocfg.PW = pw
				pipe := core.New(quickMatcher(0), ocfg)
				for _, fr := range dataset.Generate(dataset.SceneFlowLike(w, 24, 2*frames, int64(k+1))[0]).Frames {
					oracle[k] = append(oracle[k], pipe.Process(fr.Left, fr.Right).Disparity)
				}
			}

			// wave posts frames per session from posters goroutines each and
			// returns, per session, the served frame indices in arrival order.
			wave := func() [][]int {
				served := make([][]int, sessions)
				var wg sync.WaitGroup
				for k := range ids {
					for p := 0; p < posters; p++ {
						wg.Add(1)
						go func(k int) {
							defer wg.Done()
							for f := 0; f < frames/posters; f++ {
								resp, err := http.Post(ts.URL+"/v1/sessions/"+ids[k]+"/frames?disparity=pfm", "", nil)
								if err != nil {
									t.Error(err)
									return
								}
								body, err := io.ReadAll(resp.Body)
								resp.Body.Close()
								if resp.StatusCode == http.StatusServiceUnavailable {
									continue // refused by the drain, never admitted
								}
								if err != nil || resp.StatusCode != http.StatusOK {
									t.Errorf("session %d: status %d err %v", k, resp.StatusCode, err)
									continue
								}
								idx, _ := strconv.Atoi(resp.Header.Get("X-ASV-Frame"))
								got, err := imgproc.ReadPFM(bytes.NewReader(body))
								if err != nil || idx >= len(oracle[k]) || !slices.Equal(got.Pix, oracle[k][idx].Pix) {
									t.Errorf("session %d frame %d diverges from the serial oracle (err %v)", k, idx, err)
								}
								mu.Lock()
								served[k] = append(served[k], idx)
								mu.Unlock()
							}
						}(k)
					}
				}
				wg.Wait()
				return served
			}
			exactlyOnce := func(served [][]int, from int) (total int) {
				for k, idxs := range served {
					slices.Sort(idxs)
					for i, idx := range idxs {
						if idx != from+i {
							t.Fatalf("session %d served frame indices %v, want %d.. each exactly once", k, idxs, from)
						}
					}
					total += len(idxs)
				}
				return total
			}

			if n := exactlyOnce(wave(), 0); n != sessions*frames {
				t.Fatalf("first wave served %d frames, want %d", n, sessions*frames)
			}

			// Second wave: Close lands while frames are queued and running.
			closed := make(chan error, 1)
			go func() {
				for stop := time.Now().Add(5 * time.Second); s.accepted.Load() <= sessions*frames && time.Now().Before(stop); {
					time.Sleep(100 * time.Microsecond)
				}
				closed <- s.Close(context.Background())
			}()
			n := exactlyOnce(wave(), frames)
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if acc, done := s.accepted.Load(), s.completed.Load(); acc != int64(sessions*frames+n) || done != acc || s.inflight.Load() != 0 {
				t.Fatalf("after Close under load: accepted %d, completed %d, in flight %d; clients saw %d frames served",
					acc, done, s.inflight.Load(), sessions*frames+n)
			}
			if maxRunning > workers || overlapped {
				t.Fatalf("%d frames ran at once with %d workers; two frames of one session overlapped: %v",
					maxRunning, workers, overlapped)
			}
		})
	}
}

// A client that gives up after admission must not leak accounting: the
// frame still runs, and it is counted completed by the path that ran it.
func TestCanceledRequestStillCompletes(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	m := hookMatcher{KeyMatcher: quickMatcher(0), around: func(*imgproc.Image) func() {
		close(entered)
		<-release
		return func() {}
	}}
	s := New(m, Config{Workers: 1, Metrics: metrics.NewRegistry()})
	handlerDone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/frames") {
			close(handlerDone)
		}
	}))
	defer ts.Close()
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1,
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/frames", nil)
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the frame is mid-Match
	cancel()
	<-clientDone
	<-handlerDone // the handler gave up on the reply
	close(release)

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := s.CountersSnapshot()
	if c["frames_accepted"] != int64(1) || c["frames_completed"] != int64(1) || c["queue_depth"] != int64(0) {
		t.Fatalf("after a canceled request and Close: accepted %v, completed %v, queue depth %v; want 1, 1, 0",
			c["frames_accepted"], c["frames_completed"], c["queue_depth"])
	}
}

// A panic inside a kernel is that one request's 500: the slot, the session
// and the accounting all survive it, and the session's next frame is served.
func TestKernelPanicBecomes500(t *testing.T) {
	var calls atomic.Int32
	m := hookMatcher{KeyMatcher: quickMatcher(0), around: func(*imgproc.Image) func() {
		if calls.Add(1) == 1 {
			panic("kernel bug")
		}
		return func() {}
	}}
	s := New(m, Config{Workers: 1, Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 32, H: 24, Frames: 2, PW: 1,
	})
	if status, _ := submit(t, ts.URL, info.ID); status != http.StatusInternalServerError {
		t.Fatalf("panicking frame: status %d, want 500", status)
	}
	if status, fr := submit(t, ts.URL, info.ID); status != http.StatusOK || fr.Frame != 0 {
		t.Fatalf("frame after the panic: status %d, index %d; want 200, 0", status, fr.Frame)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if acc, done := s.accepted.Load(), s.completed.Load(); acc != 2 || done != 2 || s.inflight.Load() != 0 {
		t.Fatalf("accepted %d, completed %d, in flight %d; want 2, 2, 0", acc, done, s.inflight.Load())
	}
}
