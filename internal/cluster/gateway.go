package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asv/internal/serve"
)

// Shard is one asvserve backend.
type Shard struct {
	Name string `json:"name"` // ring identity; stable across restarts
	URL  string `json:"url"`  // e.g. "http://127.0.0.1:9101"
}

// Config tunes the gateway.
type Config struct {
	// Shards is the backend set. Names are the ring identities: keep them
	// stable across restarts and address changes, or every session moves.
	Shards []Shard
	// Replicas is the consistent-hash vnode count per shard (0 = default).
	Replicas int
	// HealthInterval is the period of the background health prober; zero
	// disables it (shards are then only marked down by failed proxies).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe.
	HealthTimeout time.Duration
	// MaxBody caps a buffered request body (bodies are buffered so a
	// request can be replayed against the failover owner).
	MaxBody int64
	// Client issues proxied requests. Nil gets a default with a 30 s
	// timeout.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = DefaultReplicas
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.MaxBody < 1 {
		c.MaxBody = 64 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Gateway is the stateless routing tier of a sharded asvserve cluster. It
// owns no session state: a session id deterministically names its shard via
// the ring, so any number of gateway replicas route identically. What it
// does own is failure handling — health probing, marking shards down,
// retrying a routed request on the ring's next owner (whose restore-on-miss
// over a shared spill store makes the retry land on real session state),
// and the drain protocol that explicitly migrates sessions off a shard.
type Gateway struct {
	cfg    Config
	ring   *Ring
	byName map[string]Shard
	down   *downSet // health state: flipped by probes and proxy failures
	// drained is administrative state: shards explicitly taken out via the
	// drain endpoint. Kept apart from down because the health prober would
	// otherwise resurrect a drained-but-alive shard — whose sessions were
	// just deleted — and route its old keys back into 404s.
	drained *downSet
	mux     *http.ServeMux

	httpSrv  *http.Server
	serveErr chan error

	stopHealth chan struct{}
	healthWG   sync.WaitGroup

	// Counters for /metrics.
	proxied     atomic.Int64 // requests forwarded (first attempts)
	failovers   atomic.Int64 // re-routes after a transport failure
	minted      atomic.Int64 // session ids minted for creates
	probeDowns  atomic.Int64 // health-probe down transitions
	migrations  atomic.Int64 // sessions moved by drain
	unroutable  atomic.Int64 // requests with no live shard to take them
	proxyErrors atomic.Int64 // transport failures talking to shards
}

// New builds a gateway and starts its health prober (when configured).
// Callers must Close it.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one shard")
	}
	names := make([]string, 0, len(cfg.Shards))
	byName := make(map[string]Shard, len(cfg.Shards))
	for _, s := range cfg.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs both name and url (got %+v)", s)
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", s.Name)
		}
		byName[s.Name] = s
		names = append(names, s.Name)
	}
	g := &Gateway{
		cfg:        cfg,
		ring:       NewRing(names, cfg.Replicas),
		byName:     byName,
		down:       newDownSet(),
		drained:    newDownSet(),
		serveErr:   make(chan error, 1),
		stopHealth: make(chan struct{}),
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	g.mux.HandleFunc("/v1/sessions/{id}", g.handleProxy)
	g.mux.HandleFunc("/v1/sessions/{id}/{rest...}", g.handleProxy)
	g.mux.HandleFunc("POST /v1/cluster/drain/{shard}", g.handleDrain)
	g.mux.HandleFunc("GET /v1/cluster", g.handleClusterInfo)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)

	if cfg.HealthInterval > 0 {
		g.healthWG.Add(1)
		go g.healthLoop()
	}
	return g, nil
}

// Handler exposes the gateway's routes (for tests and embedding).
func (g *Gateway) Handler() http.Handler { return g.mux }

// The shards' connection timeouts, applied by Start; variables only so
// tests can shorten them.
var readHeaderTimeout, readTimeout, writeTimeout = serve.ReadHeaderTimeout, serve.ReadTimeout, serve.WriteTimeout

// Start listens on addr and serves until Close.
func (g *Gateway) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	g.httpSrv = &http.Server{Handler: g.mux, ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout: readTimeout, WriteTimeout: writeTimeout}
	go func() {
		if err := g.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			g.serveErr <- err
		}
	}()
	return ln.Addr(), nil
}

// Close stops the listener (if any) and the health prober.
func (g *Gateway) Close(ctx context.Context) error {
	var err error
	if g.httpSrv != nil {
		err = g.httpSrv.Shutdown(ctx)
	}
	close(g.stopHealth)
	g.healthWG.Wait()
	select {
	case serveErr := <-g.serveErr:
		return serveErr
	default:
	}
	return err
}

// --- health ------------------------------------------------------------

func (g *Gateway) healthLoop() {
	defer g.healthWG.Done()
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stopHealth:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	for name, shard := range g.byName {
		up := g.probe(shard)
		wasDown := g.down.snapshot()[name]
		if !up && !wasDown {
			g.probeDowns.Add(1)
		}
		g.down.set(name, !up)
	}
}

func (g *Gateway) probe(shard Shard) bool {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shard.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	//asvlint:ignore droppederr best-effort drain of a tiny health body
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	//asvlint:ignore droppederr probe body close failure is not actionable
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// --- routing -----------------------------------------------------------

// handleCreate intercepts session creation to mint the session id before a
// shard is chosen: the ring places sessions by id, so the id must exist
// first. The id is injected into the JSON body and the request routed like
// any other session request.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req serve.CreateSessionRequest
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "decoding session request: "+err.Error())
			return
		}
	}
	if req.ID == "" {
		req.ID = serve.NewSessionID()
		g.minted.Add(1)
	}
	buf, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	g.route(w, r, req.ID, buf, "application/json")
}

// handleProxy routes any /v1/sessions/{id}... request to the id's shard.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		b, ok := g.readBody(w, r)
		if !ok {
			return
		}
		body = b
	}
	g.route(w, r, r.PathValue("id"), body, r.Header.Get("Content-Type"))
}

// readBody buffers r's body under the gateway cap, answering 400 to a read
// error and 413 to a body past the cap. A body that declares a length within
// the cap is read into one buffer of that length (and a byte to see its
// end), not one that io.ReadAll doubles towards it. The body's end, not the
// declared length, still decides what is read.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	size := int64(512) // io.ReadAll's first buffer
	if n := r.ContentLength; n >= 0 && n <= g.cfg.MaxBody {
		size = n + 1
	}
	body, err := readAllInto(make([]byte, 0, size), io.LimitReader(r.Body, g.cfg.MaxBody+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading request: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > g.cfg.MaxBody {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds the gateway cap")
		return nil, false
	}
	return body, true
}

// readAllInto is io.ReadAll appending to b, which grows only once b is full.
func readAllInto(b []byte, r io.Reader) ([]byte, error) {
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// route forwards the request to the session's owner, failing over to the
// ring's next owner when a shard is unreachable. Failover is safe for
// stateful sessions only because of the storage contract underneath: with a
// shared spill store the next owner restores the session's last checkpoint
// on its first miss, so the retried request lands on committed stream
// state, not a blank session.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, id string, body []byte, contentType string) {
	tried := make(map[string]bool)
	avoid := g.unavailable()
	for attempt := 0; attempt < len(g.byName); attempt++ {
		name := g.ring.OwnerAvoiding(id, avoid)
		if name == "" || tried[name] {
			break
		}
		tried[name] = true
		shard := g.byName[name]
		if attempt == 0 {
			g.proxied.Add(1)
		} else {
			g.failovers.Add(1)
		}
		resp, err := g.forward(r, shard, body, contentType)
		if err != nil {
			// Transport failure: the shard is gone or unreachable. Mark it
			// down (the prober will bring it back) and walk the ring.
			g.proxyErrors.Add(1)
			g.down.set(name, true)
			avoid[name] = true
			continue
		}
		copyResponse(w, resp)
		return
	}
	g.unroutable.Add(1)
	writeErr(w, http.StatusServiceUnavailable, "no live shard for session "+id)
}

func (g *Gateway) forward(r *http.Request, shard Shard, body []byte, contentType string) (*http.Response, error) {
	url := shard.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return g.cfg.Client.Do(req)
}

// copyResponse relays a shard response: status, the headers the serving API
// actually uses, and the body.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	//asvlint:ignore droppederr response body close failure is not actionable in a proxy
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Content-Length", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	for k, vs := range resp.Header {
		if strings.HasPrefix(k, "X-Asv-") { // canonicalized form of X-ASV-*
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
	}
	w.WriteHeader(resp.StatusCode)
	//asvlint:ignore droppederr a short write means the client hung up; nothing to do
	io.Copy(w, resp.Body)
}

// --- drain -------------------------------------------------------------

// DrainReport summarizes one drain operation.
type DrainReport struct {
	Shard    string            `json:"shard"`
	Migrated []string          `json:"migrated"`
	Failed   map[string]string `json:"failed,omitempty"`
}

// handleDrain migrates every session off the named shard via the snapshot
// protocol — GET the snapshot (retrying while frames are in flight), PUT it
// on the session's new owner, DELETE the original — then marks the shard
// down so the ring stops placing sessions there. The shard keeps serving
// while it drains (snapshot GETs work on a draining server by design).
func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("shard")
	shard, ok := g.byName[name]
	if !ok {
		writeErr(w, http.StatusNotFound, "no such shard "+name)
		return
	}

	list, err := g.listSessions(shard)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "listing sessions on "+name+": "+err.Error())
		return
	}

	rep := DrainReport{Shard: name, Migrated: []string{}, Failed: map[string]string{}}
	avoid := g.unavailable()
	avoid[name] = true
	for _, info := range list.Sessions {
		dest := g.ring.OwnerAvoiding(info.ID, avoid)
		if dest == "" {
			rep.Failed[info.ID] = "no live shard to receive the session"
			continue
		}
		if err := g.migrate(shard, g.byName[dest], info.ID); err != nil {
			rep.Failed[info.ID] = err.Error()
			continue
		}
		g.migrations.Add(1)
		rep.Migrated = append(rep.Migrated, info.ID)
	}
	// Stop routing to the drained shard — administratively, so the health
	// prober cannot resurrect it while it is still alive and empty. (An
	// operator brings it back by restarting the gateway with it listed.)
	g.drained.set(name, true)
	if len(rep.Failed) == 0 {
		rep.Failed = nil
	}
	writeJSON(w, http.StatusOK, rep)
}

func (g *Gateway) listSessions(shard Shard) (*serve.SessionList, error) {
	resp, err := g.cfg.Client.Get(shard.URL + "/v1/sessions")
	if err != nil {
		return nil, err
	}
	//asvlint:ignore droppederr response body close failure is not actionable here
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var list serve.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return &list, nil
}

// migrate moves one session: snapshot from src (retrying 409s while frames
// drain), restore into dst, delete from src. A failure before the PUT
// leaves the session untouched on src; a failure after the PUT leaves a
// valid copy on both shards, and the ring routes to dst — the stale src
// copy is garbage, not a correctness hazard.
func (g *Gateway) migrate(src, dst Shard, id string) error {
	var snap []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := g.cfg.Client.Get(src.URL + "/v1/sessions/" + id + "/snapshot")
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		buf, err := io.ReadAll(resp.Body)
		//asvlint:ignore droppederr response body close failure is not actionable here
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if resp.StatusCode == http.StatusOK {
			snap = buf
			break
		}
		if resp.StatusCode == http.StatusConflict && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		return fmt.Errorf("snapshot: status %d: %s", resp.StatusCode, buf)
	}

	req, err := http.NewRequest(http.MethodPut, dst.URL+"/v1/sessions/"+id+"/snapshot", bytes.NewReader(snap))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("restore on %s: %w", dst.Name, err)
	}
	//asvlint:ignore droppederr error body is diagnostic only; status decides the outcome
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	//asvlint:ignore droppederr response body close failure is not actionable here
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("restore on %s: status %d: %s", dst.Name, resp.StatusCode, buf)
	}

	del, err := http.NewRequest(http.MethodDelete, src.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err = g.cfg.Client.Do(del)
	if err != nil {
		// The copy on dst is live and the ring routes there; losing the
		// delete costs only a stale spill entry on src.
		return nil
	}
	//asvlint:ignore droppederr best-effort drain of the delete response
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	//asvlint:ignore droppederr response body close failure is not actionable here
	resp.Body.Close()
	return nil
}

// --- introspection ------------------------------------------------------

// ShardStatus is one shard's entry in GET /v1/cluster.
type ShardStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Up      bool   `json:"up"`
	Drained bool   `json:"drained,omitempty"`
}

// ClusterInfo is the body of GET /v1/cluster.
type ClusterInfo struct {
	Shards []ShardStatus `json:"shards"`
}

// unavailable returns the set of shards routing must skip: health-down
// union administratively drained.
func (g *Gateway) unavailable() map[string]bool {
	avoid := g.down.snapshot()
	for name := range g.drained.snapshot() {
		avoid[name] = true
	}
	return avoid
}

func (g *Gateway) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	down := g.down.snapshot()
	drained := g.drained.snapshot()
	info := ClusterInfo{}
	for _, name := range g.ring.Shards() {
		s := g.byName[name]
		info.Shards = append(info.Shards, ShardStatus{
			Name: s.Name, URL: s.URL,
			Up:      !down[name] && !drained[name],
			Drained: drained[name],
		})
	}
	writeJSON(w, http.StatusOK, info)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The gateway is healthy while at least one shard is routable.
	unavailable := len(g.unavailable())
	if unavailable >= len(g.byName) {
		writeErr(w, http.StatusServiceUnavailable, "all shards down or drained")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": len(g.byName), "down": unavailable})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"proxied":        g.proxied.Load(),
		"failovers":      g.failovers.Load(),
		"minted_ids":     g.minted.Load(),
		"probe_downs":    g.probeDowns.Load(),
		"migrations":     g.migrations.Load(),
		"unroutable":     g.unroutable.Load(),
		"proxy_errors":   g.proxyErrors.Load(),
		"shards_down":    g.down.count(),
		"shards_drained": g.drained.count(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//asvlint:ignore droppederr an encode failure to a hung-up client is not actionable
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
