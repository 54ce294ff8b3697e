package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asv/internal/core"
	"asv/internal/serve"
	"asv/internal/stereo"
	"asv/internal/testkit"
)

// stubShardServer records which session ids it saw, so routing tests can
// check affinity without running real stereo matching.
type stubShardServer struct {
	name string
	mu   sync.Mutex
	seen map[string]int // session id → request count
	ts   *httptest.Server
}

func newStubShard(t *testing.T, name string) *stubShardServer {
	t.Helper()
	s := &stubShardServer{name: name, seen: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req serve.CreateSessionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ID == "" {
			http.Error(w, `{"error":"stub shard requires an id"}`, http.StatusBadRequest)
			return
		}
		s.note(req.ID)
		w.Header().Set("X-ASV-Shard", s.name)
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":%q,"pw":%d}`, req.ID, req.PW)
	})
	mux.HandleFunc("/v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.note(r.PathValue("id"))
		w.Header().Set("X-ASV-Shard", s.name)
		fmt.Fprintf(w, `{"id":%q}`, r.PathValue("id"))
	})
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", func(w http.ResponseWriter, r *http.Request) {
		s.note(r.PathValue("id"))
		w.Header().Set("X-ASV-Shard", s.name)
		w.Header().Set("X-ASV-Frame", "0")
		fmt.Fprintf(w, `{"session":%q,"frame":0}`, r.PathValue("id"))
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubShardServer) note(id string) {
	s.mu.Lock()
	s.seen[id]++
	s.mu.Unlock()
}

func (s *stubShardServer) count(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[id]
}

func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := g.Close(ctx); err != nil {
			t.Errorf("closing gateway: %v", err)
		}
	})
	return g, ts
}

func createViaGateway(t *testing.T, base string, body string) serve.SessionInfo {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via gateway: %d: %s", resp.StatusCode, raw)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestGatewayAffinityAndIDInjection: the gateway mints ids for creates and
// every subsequent request for a session lands on the same shard — the one
// the ring names.
func TestGatewayAffinityAndIDInjection(t *testing.T) {
	shards := []*stubShardServer{
		newStubShard(t, "s0"), newStubShard(t, "s1"), newStubShard(t, "s2"),
	}
	cfg := Config{}
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, Shard{Name: s.name, URL: s.ts.URL})
	}
	g, ts := newTestGateway(t, cfg)

	byName := make(map[string]*stubShardServer)
	for _, s := range shards {
		byName[s.name] = s
	}

	for i := 0; i < 20; i++ {
		info := createViaGateway(t, ts.URL, `{"pw":2,"preset":"sceneflow","w":32,"h":24,"frames":4}`)
		if info.ID == "" {
			t.Fatal("gateway did not inject a session id")
		}
		owner := g.ring.Owner(info.ID)
		for f := 0; f < 3; f++ {
			resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Header.Get("X-ASV-Shard"); got != owner {
				t.Fatalf("session %s frame hit shard %s, ring owner is %s", info.ID, got, owner)
			}
			if got := resp.Header.Get("X-ASV-Frame"); got != "0" {
				t.Fatalf("X-ASV-* header not relayed (got %q)", got)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if n := byName[owner].count(info.ID); n != 4 { // create + 3 frames
			t.Fatalf("owner %s saw %d requests for %s, want 4", owner, n, info.ID)
		}
		for name, s := range byName {
			if name != owner && s.count(info.ID) != 0 {
				t.Fatalf("non-owner %s saw session %s", name, info.ID)
			}
		}
	}
	if g.minted.Load() != 20 {
		t.Fatalf("minted %d ids, want 20", g.minted.Load())
	}
}

// TestGatewayClientSuppliedID: a create that already carries an id keeps it
// (idempotent retries from clients must not fork a second session).
func TestGatewayClientSuppliedID(t *testing.T) {
	s0 := newStubShard(t, "solo")
	_, ts := newTestGateway(t, Config{Shards: []Shard{{Name: "solo", URL: s0.ts.URL}}})

	info := createViaGateway(t, ts.URL, `{"id":"client-chosen","pw":2}`)
	if info.ID != "client-chosen" {
		t.Fatalf("gateway replaced the client's id with %q", info.ID)
	}
}

// TestGatewayFailover: killing a session's shard reroutes its traffic to
// the ring's next owner instead of surfacing errors.
func TestGatewayFailover(t *testing.T) {
	shards := []*stubShardServer{
		newStubShard(t, "f0"), newStubShard(t, "f1"), newStubShard(t, "f2"),
	}
	cfg := Config{}
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, Shard{Name: s.name, URL: s.ts.URL})
	}
	g, ts := newTestGateway(t, cfg)

	info := createViaGateway(t, ts.URL, `{"pw":2}`)
	owner := g.ring.Owner(info.ID)

	// Kill the owner's listener.
	for _, s := range shards {
		if s.name == owner {
			s.ts.CloseClientConnections()
			s.ts.Close()
		}
	}

	resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after shard death: %d: %s", resp.StatusCode, body)
	}
	got := resp.Header.Get("X-ASV-Shard")
	want := g.ring.OwnerAvoiding(info.ID, map[string]bool{owner: true})
	if got != want {
		t.Fatalf("failover went to %s, ring's next owner is %s", got, want)
	}
	if g.failovers.Load() == 0 {
		t.Fatal("failover counter did not move")
	}

	// The shard is now marked down: the next request goes straight to the
	// failover owner with no extra failover hop.
	before := g.failovers.Load()
	resp2, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if g.failovers.Load() != before {
		t.Fatal("gateway retried the dead shard instead of remembering it is down")
	}
}

// TestGatewayAllShardsDown: with every shard dead the gateway answers 503,
// not a hang or a panic.
func TestGatewayAllShardsDown(t *testing.T) {
	s0 := newStubShard(t, "dead")
	_, ts := newTestGateway(t, Config{Shards: []Shard{{Name: "dead", URL: s0.ts.URL}}})
	s0.ts.CloseClientConnections()
	s0.ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions/whatever/frames", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with all shards dead, want 503", resp.StatusCode)
	}
}

// TestGatewayHealthProbe: the prober marks a dead shard down (visible in
// /v1/cluster) and brings it back when it returns.
func TestGatewayHealthProbe(t *testing.T) {
	s0 := newStubShard(t, "p0")
	flaky := &stubShardServer{name: "p1", seen: make(map[string]int)}
	var up = true
	var upMu sync.Mutex
	flaky.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upMu.Lock()
		ok := up
		upMu.Unlock()
		if !ok {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	t.Cleanup(flaky.ts.Close)

	g, ts := newTestGateway(t, Config{
		Shards: []Shard{
			{Name: "p0", URL: s0.ts.URL},
			{Name: "p1", URL: flaky.ts.URL},
		},
		HealthInterval: 5 * time.Millisecond,
		HealthTimeout:  time.Second,
	})

	shardUp := func(name string) bool {
		resp, err := http.Get(ts.URL + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info ClusterInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		for _, s := range info.Shards {
			if s.Name == name {
				return s.Up
			}
		}
		t.Fatalf("shard %s missing from cluster info", name)
		return false
	}

	waitFor := func(desc string, cond func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitFor("initial probes to pass", func() bool { return shardUp("p0") && shardUp("p1") })

	upMu.Lock()
	up = false
	upMu.Unlock()
	waitFor("p1 to be marked down", func() bool { return !shardUp("p1") })
	if g.probeDowns.Load() == 0 {
		t.Fatal("probe-down counter did not move")
	}

	upMu.Lock()
	up = true
	upMu.Unlock()
	waitFor("p1 to recover", func() bool { return shardUp("p1") })
}

// TestGatewayDrainMigratesSessions runs the full drain protocol against
// REAL serve shards: sessions created through the gateway, frames pushed,
// one shard drained, and the migrated sessions must continue their streams
// on their new shards with frame indices intact.
func TestGatewayDrainMigratesSessions(t *testing.T) {
	type realShard struct {
		name string
		srv  *serve.Server
		ts   *httptest.Server
	}
	mkShard := func(name string) realShard {
		cfg := serve.DefaultConfig()
		cfg.Workers = 1
		opt := stereo.DefaultBMOptions()
		opt.MaxDisp = 12
		s := serve.New(core.BMMatcher{Opt: opt}, cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Close(ctx)
		})
		return realShard{name: name, srv: s, ts: ts}
	}
	shards := []realShard{mkShard("r0"), mkShard("r1"), mkShard("r2")}
	// A fast prober makes this test also cover drain stickiness: the
	// drained shard stays alive and health-checks green, but the prober
	// must NOT resurrect it into routing — its sessions are gone.
	cfg := Config{HealthInterval: 10 * time.Millisecond}
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, Shard{Name: s.name, URL: s.ts.URL})
	}
	g, ts := newTestGateway(t, cfg)

	// Spread a handful of sessions over the cluster and advance each one.
	const nSessions = 6
	ids := make([]string, nSessions)
	for i := range ids {
		info := createViaGateway(t, ts.URL,
			`{"pw":2,"preset":"sceneflow","w":32,"h":24,"frames":6,"seed":42}`)
		ids[i] = info.ID
		for f := 0; f < 2; f++ {
			resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("priming frame: %d", resp.StatusCode)
			}
		}
	}

	// Drain the shard that owns at least one session.
	victim := g.ring.Owner(ids[0])
	resp, err := http.Post(ts.URL+"/v1/cluster/drain/"+victim, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep DrainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if len(rep.Failed) > 0 {
		t.Fatalf("drain failures: %v", rep.Failed)
	}
	if len(rep.Migrated) == 0 {
		t.Fatal("drain migrated nothing although the victim owned sessions")
	}

	// Give the prober time to observe the drained-but-healthy shard; the
	// administrative mark must survive it.
	time.Sleep(50 * time.Millisecond)

	// Every session — migrated or not — continues at frame 2 with no gap.
	for _, id := range ids {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/frames", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain frame for %s: %d: %s", id, resp.StatusCode, body)
		}
		var fr serve.FrameResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.Frame != 2 {
			t.Fatalf("session %s resumed at frame %d after drain, want 2", id, fr.Frame)
		}
	}

	// The drained shard should hold no sessions the ring still routes to it
	// for — and new creates must avoid it.
	info := createViaGateway(t, ts.URL, `{"pw":2,"preset":"sceneflow","w":32,"h":24,"frames":4}`)
	if owner := g.ring.OwnerAvoiding(info.ID, g.unavailable()); owner == victim {
		t.Fatalf("new session placed on the drained shard %s", victim)
	}

	// /v1/cluster reports the victim drained and not routable.
	resp, err = http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var ci ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&ci); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, s := range ci.Shards {
		if s.Name == victim && (s.Up || !s.Drained) {
			t.Fatalf("drained shard reported routable: %+v", s)
		}
		if s.Name != victim && !s.Up {
			t.Fatalf("healthy shard reported down: %+v", s)
		}
	}
}

// TestGatewayRunsShardsConcurrently: frames for sessions on different shards
// are proxied in parallel, which is what lets a second shard add capacity.
// Each stub shard's frame handler waits at a two-party rendezvous, so a
// gateway that proxied one request at a time would hold the second frame
// back while the first waits for it.
func TestGatewayRunsShardsConcurrently(t *testing.T) {
	var mu sync.Mutex
	arrived := 0
	met, giveUp := make(chan struct{}), make(chan struct{})
	rendezvous := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if arrived++; arrived == 2 {
			close(met)
		}
		mu.Unlock()
		select {
		case <-met:
			fmt.Fprintf(w, `{"session":%q,"frame":0}`, r.PathValue("id"))
		case <-giveUp:
			http.Error(w, `{"error":"rendezvous abandoned"}`, http.StatusGatewayTimeout)
		}
	}
	cfg := Config{}
	for _, name := range []string{"c0", "c1"} {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/sessions/{id}/frames", rendezvous)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		cfg.Shards = append(cfg.Shards, Shard{Name: name, URL: ts.URL})
	}
	g, ts := newTestGateway(t, cfg)
	// Cleanups run last-registered first: release a stranded handler before
	// the servers above wait for their requests to finish.
	t.Cleanup(func() { close(giveUp) })

	idOn := make(map[string]string) // shard → a session id the ring puts there
	for c := 0; len(idOn) < 2; c++ {
		id := fmt.Sprintf("sess-%d", c)
		if owner := g.ring.Owner(id); idOn[owner] == "" {
			idOn[owner] = id
		}
	}
	results := make(chan error, len(idOn))
	for _, id := range idOn {
		go func(id string) {
			resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/frames", "", nil)
			if err != nil {
				results <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("session %s: status %d", id, resp.StatusCode)
			}
			results <- err
		}(id)
	}
	timeout := time.After(10 * time.Second)
	for range idOn {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("no reply after 10s — one shard's frame is waiting at a rendezvous the gateway never let the other shard's frame reach")
		}
	}
}

// startTimedGateway serves a gateway over cfg through Start, whose
// http.Server applies the connection timeouts, and returns its address; the
// gateway is closed at cleanup.
func startTimedGateway(t *testing.T, cfg Config) string {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := g.Close(ctx); err != nil {
			t.Errorf("closing gateway: %v", err)
		}
	})
	return addr.String()
}

// deadShard is a shard no request reaches: the stalled-client tests never
// get past reading the request.
var deadShard = Config{Shards: []Shard{{Name: "a", URL: "http://127.0.0.1:1"}}}

// TestGatewayStalledHeadersAreCutOff: a client that sends a request line and
// never finishes its headers is hung up on after readHeaderTimeout.
func TestGatewayStalledHeadersAreCutOff(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	testkit.MustDropStalledRequest(t, startTimedGateway(t, deadShard), testkit.StalledHeaders, 10*time.Second)
}

// TestGatewayStalledBodyIsCutOff: a client that sends its headers and part
// of the body they declare, then stalls, is hung up on after readTimeout.
func TestGatewayStalledBodyIsCutOff(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 100 * time.Millisecond
	testkit.MustDropStalledRequest(t, startTimedGateway(t, deadShard), testkit.StalledBody, 10*time.Second)
}

// TestGatewaySlowReplyIsCutOff: a frame that outlives the gateway's
// writeTimeout has its client's connection cut, and the shard still counts
// it completed.
func TestGatewaySlowReplyIsCutOff(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 300 * time.Millisecond
	opt := stereo.DefaultBMOptions()
	opt.MaxDisp = 12
	shard := serve.New(serve.NewPacedKeyMatcher(core.BMMatcher{Opt: opt}, time.Second), serve.DefaultConfig())
	ts := httptest.NewServer(shard.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shard.Close(ctx)
	})
	base := "http://" + startTimedGateway(t, Config{Shards: []Shard{{Name: "p", URL: ts.URL}}})
	info := createViaGateway(t, base, `{"pw":1,"preset":"sceneflow","w":32,"h":24,"frames":2}`)
	if resp, err := http.Post(base+"/v1/sessions/"+info.ID+"/frames", "", nil); err == nil {
		resp.Body.Close()
		t.Fatalf("a frame paced past the gateway's writeTimeout was answered %s", resp.Status)
	}
	// The shard counts a frame completed before it replies to the gateway.
	if c := shard.CountersSnapshot(); c["frames_accepted"] != int64(1) || c["frames_completed"] != int64(1) {
		t.Fatalf("after a cut reply: shard accepted %v, completed %v; want 1, 1", c["frames_accepted"], c["frames_completed"])
	}
}

func TestGatewayRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no error for empty shard list")
	}
	if _, err := New(Config{Shards: []Shard{{Name: "a", URL: ""}}}); err == nil {
		t.Fatal("no error for missing url")
	}
	if _, err := New(Config{Shards: []Shard{
		{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"},
	}}); err == nil {
		t.Fatal("no error for duplicate name")
	}
}

// TestGatewayBodyReadAgainstDeclaredLength: the gateway sizes its body
// buffer from Content-Length, but the body's own end decides what is
// forwarded, the cap holds whatever length is declared, and over the wire a
// body that ends before its declared length is a 400.
func TestGatewayBodyReadAgainstDeclaredLength(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-ASV-Body-Len", fmt.Sprint(len(b)))
	}))
	t.Cleanup(shard.Close)
	g, ts := newTestGateway(t, Config{Shards: []Shard{{Name: "a", URL: shard.URL}}, MaxBody: 64})

	for _, tc := range []struct {
		name           string
		sent, declared int
		status         int
	}{
		{"as declared", 40, 40, http.StatusOK},
		{"at the cap", 64, 64, http.StatusOK},
		{"past the cap", 65, 65, http.StatusRequestEntityTooLarge},
		{"shorter than declared", 10, 40, http.StatusOK},
		{"longer than declared", 40, 10, http.StatusOK},
		{"longer than declared, past the cap", 65, 10, http.StatusRequestEntityTooLarge},
		{"declared past the cap", 40, 100, http.StatusOK},
	} {
		req := httptest.NewRequest("POST", "/v1/sessions/s1/frames", strings.NewReader(strings.Repeat("a", tc.sent)))
		req.ContentLength = int64(tc.declared)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body)
		}
		if got := rec.Header().Get("X-ASV-Body-Len"); tc.status == http.StatusOK && got != fmt.Sprint(tc.sent) {
			t.Fatalf("%s: shard got %s bytes, want %d", tc.name, got, tc.sent)
		}
	}

	// wire sends one raw request; hangUp half-closes the connection after it,
	// which is how a body ends early.
	wire := func(declared int, body string, hangUp bool) *http.Response {
		t.Helper()
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		fmt.Fprintf(conn, "POST /v1/sessions/s1/frames HTTP/1.1\r\nHost: gw\r\nContent-Length: %d\r\n\r\n%s", declared, body)
		if hangUp {
			conn.(*net.TCPConn).CloseWrite()
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := wire(40, strings.Repeat("a", 10), true); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body ending before its declared length: %s, want 400", resp.Status)
	}
	// Bytes past the declared length are the next request, not this body.
	if resp := wire(10, strings.Repeat("a", 40), false); resp.StatusCode != http.StatusOK || resp.Header.Get("X-ASV-Body-Len") != "10" {
		t.Fatalf("body longer than declared: %s with %s bytes forwarded, want 200 with 10", resp.Status, resp.Header.Get("X-ASV-Body-Len"))
	}
}
