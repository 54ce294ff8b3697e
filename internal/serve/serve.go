// Package serve is the stereo depth serving layer: a sessionful HTTP
// service over the ISM engine. Clients create sessions and POST stereo
// pairs into them; each session owns a core.Pipeline, so the server runs
// expensive key-frame matching every PW-th frame and cheap
// motion-propagated refinement in between — the paper's ISM schedule,
// driven by request arrival instead of a video file.
//
// Around that core sits the production machinery the ROADMAP asks for:
//
//   - a bounded admission queue; when it is full the server sheds load
//     with 429 + Retry-After instead of collapsing;
//   - a frame scheduler (sched.go) with two parts: each session runs its
//     admitted frames one at a time in order, and a Workers-sized slot
//     semaphore bounds how many sessions run at once;
//   - per-session LRU-over-capacity and TTL eviction;
//   - graceful drain: Close stops admission and returns once every admitted
//     frame has finished;
//   - observability: /healthz, a /metrics JSON snapshot built on
//     internal/metrics, and net/http/pprof behind Config.EnablePprof.
//
// See DESIGN.md §6 "Serving architecture".
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"asv/internal/backend"
	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/metrics"
	"asv/internal/nn"
	"asv/internal/perception"
	"asv/internal/quality"
	"asv/internal/stereo"
)

// Config tunes the server. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// MaxSessions caps the session table; creating one beyond the cap
	// evicts the least-recently-used idle session.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (janitor sweep).
	SessionTTL time.Duration
	// QueueDepth bounds the admission queue; a full queue returns 429.
	QueueDepth int
	// Workers bounds how many frames (of distinct sessions) run at once.
	Workers int
	// MaxPixels caps uploaded image sizes at decode time (per image);
	// oversize uploads get 413 before any pixel buffer is allocated.
	MaxPixels int
	// MaxPresetFrames caps the synthetic sequence length a preset session
	// may request.
	MaxPresetFrames int
	// PW is the default propagation window for sessions that do not set
	// their own.
	PW int
	// Pipeline is the ISM configuration template for new sessions (PW is
	// overridden per session).
	Pipeline core.Config
	// Metrics receives per-stage latencies ("queue", "keymatch", "flow",
	// "propagate+refine", "frame"). Nil disables stage metrics (the
	// /metrics endpoint then reports counters only).
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// CostBackend, when set, adds a "backend" section to /metrics: the
	// estimated per-frame cost of running the key-frame DNN (DispNet at
	// qHD) on this accelerator model, under its best supported policy and
	// — when the model supports ISM — amortized over the configured PW.
	// Nil omits the section.
	CostBackend backend.Backend
	// CostNonKey is the per-frame non-key demand used for the ISM variant
	// of the CostBackend estimate. Zero restricts the estimate to the pure
	// DNN cost even on ISM-capable backends.
	CostNonKey backend.NonKeyCost
	// SpillDir, when set, turns eviction into spill: cold sessions evicted
	// by TTL or LRU pressure are serialized to <SpillDir>/<id>.asvsnap and
	// transparently restored on their next use. Pointing the shards of a
	// cluster at a shared directory also gives them crash recovery: a peer
	// adopting a dead shard's session restores it from the same store.
	SpillDir string
	// CheckpointEvery, when positive (and SpillDir is set), additionally
	// writes a session's snapshot to the spill store every N completed
	// frames, bounding how much stream state a shard crash can lose.
	CheckpointEvery int
	// Ladder is the operating-point ladder best-effort sessions may degrade
	// along under load (DESIGN.md §12). Nil installs quality.DefaultLadder;
	// an invalid ladder panics in New (it is a configuration error on par
	// with a nil matcher). Rung 0 is always the undegraded operating point —
	// gold sessions never leave it.
	Ladder quality.Ladder
	// DefaultDeadline is the per-frame latency target assumed for
	// best-effort sessions that do not set their own: the ladder controller
	// picks the cheapest rung predicted to complete within it given the
	// current queue. Zero means 250ms.
	DefaultDeadline time.Duration
	// BestEffortOvercommit multiplies QueueDepth into the admission bound
	// for best-effort frames: they may queue up to QueueDepth×Overcommit
	// deep, because degrading drains the backlog far faster than rung-0
	// service would. Gold frames keep the plain QueueDepth bound. Zero
	// means 8.
	BestEffortOvercommit int
}

// DefaultConfig returns a serving configuration sized for a small host.
func DefaultConfig() Config {
	return Config{
		MaxSessions:     64,
		SessionTTL:      5 * time.Minute,
		QueueDepth:      64,
		Workers:         4,
		MaxPixels:       1 << 21, // 2 Mpx per image, ~8 MB of float32
		MaxPresetFrames: 256,
		PW:              4,
		Pipeline:        core.DefaultConfig(),
		Metrics:         metrics.NewRegistry(),
		Ladder:          quality.DefaultLadder(),
		DefaultDeadline: 250 * time.Millisecond,

		BestEffortOvercommit: 8,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxSessions < 1 {
		c.MaxSessions = d.MaxSessions
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = d.SessionTTL
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = d.QueueDepth
	}
	if c.Workers < 1 {
		c.Workers = d.Workers
	}
	if c.MaxPixels < 1 || c.MaxPixels > imgproc.MaxDecodePixels {
		c.MaxPixels = d.MaxPixels
	}
	if c.MaxPresetFrames < 1 {
		c.MaxPresetFrames = d.MaxPresetFrames
	}
	if c.PW < 1 {
		c.PW = d.PW
	}
	if c.Pipeline.PW == 0 {
		c.Pipeline = d.Pipeline
	}
	if c.Ladder == nil {
		c.Ladder = d.Ladder
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = d.DefaultDeadline
	}
	if c.BestEffortOvercommit < 1 {
		c.BestEffortOvercommit = d.BestEffortOvercommit
	}
	return c
}

// Server is the serving subsystem. Create with New, mount via Handler (or
// start a listener with Start), stop with Close.
type Server struct {
	cfg     Config
	matcher core.KeyMatcher
	tab     *sessionTable
	mux     *http.ServeMux
	httpSrv *http.Server // set by Start; nil when mounted via Handler
	started time.Time

	// Operating-point ladder state (DESIGN.md §12): the validated ladder,
	// one pre-built key matcher per rung (rung 0 holds the server's
	// configured matcher, so the top rung stays bit-identical to the
	// pre-ladder path), and the EWMA latency controller that picks rungs
	// for best-effort frames.
	ladder       quality.Ladder
	rungMatchers []core.KeyMatcher
	ctl          *quality.Controller

	// serveErr holds the first non-graceful error from Start's accept loop,
	// reported by Close.
	serveErr chan error

	janitorStop chan struct{}

	// costEst is the precomputed /metrics "backend" section (nil when no
	// CostBackend is configured). Computed once in New: the cost model is
	// analytic and deterministic, so there is nothing live to sample.
	costEst map[string]any

	// Scheduler state (sched.go). mu guards every session's queue and
	// running flag and the slot-occupancy samples below, and orders
	// admission against Close: submit admits, and
	// Close sets draining, only while holding it, so each drainers.Add
	// happens before Close's Wait even when the server is mounted via
	// Handler() and there is no http.Server.Shutdown to lean on. draining
	// flips once at Close; handlers then refuse new work with 503. slots is
	// the Workers-sized semaphore a frame holds while it runs.
	mu       sync.Mutex
	draining atomic.Bool
	drainers sync.WaitGroup
	slots    chan struct{}

	// Counters surfaced by /metrics. accepted counts frames admitted to
	// the queue; rejected counts 429s; drained503 counts frames refused
	// because the server was shutting down; completed counts frames whose
	// processing finished (with or without error).
	accepted   atomic.Int64
	rejected   atomic.Int64
	drained503 atomic.Int64
	completed  atomic.Int64

	// Worker-slot occupancy, sampled each time a frame takes a slot: the
	// number of samples, and the sum and maximum of the slots then held
	// (the new frame's included); guarded by mu. /metrics reports them as
	// batch_mean_frames and batch_max_frames — names that survive only
	// because the frozen repository benchmark reads them, and that go in a
	// later benchmark PR.
	slotStarts, slotBusySum, slotBusyMax int64

	// Ladder counters: frames served per rung (indexed like ladder) and
	// frames served at any rung below the top (the degradation total).
	rungServed    []atomic.Int64
	degradedTotal atomic.Int64

	// Snapshot/spill counters: snapshots served over HTTP, sessions
	// installed via PUT snapshot, sessions spilled to and restored from the
	// disk store, checkpoint writes, and spill-store I/O or decode failures.
	snapshotsServed   atomic.Int64
	snapshotsRestored atomic.Int64
	spilled           atomic.Int64
	diskRestores      atomic.Int64
	checkpoints       atomic.Int64
	spillErrors       atomic.Int64

	// Perception counters: depth-map and point-cloud responses served, and
	// the total points shipped across all cloud replies.
	depthMapsServed atomic.Int64
	cloudsServed    atomic.Int64
	cloudPoints     atomic.Int64

	// restoreMu serializes disk restores so two concurrent misses on the
	// same id materialize one session, not two racing copies.
	restoreMu sync.Mutex

	// inflight is the admission gauge: frames admitted but not yet
	// finished, queued or running. The backpressure bound is checked
	// against it.
	inflight atomic.Int64
}

// New builds a Server processing frames with matcher (which must tolerate
// concurrent Match calls; all built-in matchers do).
func New(matcher core.KeyMatcher, cfg Config) *Server {
	if matcher == nil {
		panic("serve: nil KeyMatcher")
	}
	s := &Server{
		cfg:         cfg.withDefaults(),
		matcher:     matcher,
		started:     time.Now(),
		serveErr:    make(chan error, 1),
		janitorStop: make(chan struct{}),
	}
	s.ladder = s.cfg.Ladder
	if err := s.ladder.Validate(); err != nil {
		panic("serve: " + err.Error())
	}
	s.rungMatchers = make([]core.KeyMatcher, len(s.ladder))
	for i, r := range s.ladder {
		s.rungMatchers[i] = r.BuildMatcher(matcher)
	}
	s.ctl = quality.NewController(len(s.ladder))
	s.rungServed = make([]atomic.Int64, len(s.ladder))
	s.tab = newSessionTable(s.cfg.MaxSessions)
	s.slots = make(chan struct{}, s.cfg.Workers)
	if s.cfg.CostBackend != nil {
		s.costEst = backendCostEstimate(s.cfg.CostBackend, s.cfg.CostNonKey, s.cfg.PW)
	}
	s.mux = http.NewServeMux()
	s.routes()
	go s.janitor()
	return s
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port, port 0 for ephemeral) and serves until
// Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.mux}
	s.httpSrv = srv
	go func() {
		// Serve returns ErrServerClosed on graceful Shutdown; anything else
		// is a real accept-loop failure, surfaced by Close.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			select {
			case s.serveErr <- err:
			default:
			}
		}
	}()
	return ln.Addr(), nil
}

// Kill abruptly closes the listener and every active connection, without
// draining: in-flight requests see their connections die and queued frames
// lose their clients. It exists to emulate a shard crash — the cluster
// chaos tests use it to prove that peers can adopt a dead shard's sessions
// from the shared spill store. Call Close afterwards to finish what was
// admitted and stop the janitor.
func (s *Server) Kill() error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// Close drains the server: new frames are refused with 503 and every
// admitted frame is processed to completion. The context bounds how long to
// wait for the HTTP layer to quiesce.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true) // no submit admits past this point
	s.mu.Unlock()
	s.drainers.Wait() // every session ran its queue dry
	close(s.janitorStop)
	var err error
	if s.httpSrv != nil {
		// Every admitted frame has its reply by now, so handlers unwind
		// promptly; Shutdown just quiesces the HTTP layer.
		err = s.httpSrv.Shutdown(ctx)
	}
	// An accept-loop failure recorded by Start outranks a shutdown hiccup:
	// it means the server died before Close was ever called.
	select {
	case serr := <-s.serveErr:
		return serr
	default:
	}
	return err
}

// janitor sweeps expired sessions at SessionTTL/4 cadence.
func (s *Server) janitor() {
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			for _, sess := range s.tab.expire(s.cfg.SessionTTL) {
				s.spill(sess)
			}
		}
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/frames", s.handleSubmitFrame)
	s.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleGetSnapshot)
	s.mux.HandleFunc("PUT /v1/sessions/{id}/snapshot", s.handlePutSnapshot)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// --- wire types ---------------------------------------------------------

// CreateSessionRequest is the body of POST /v1/sessions. All fields are
// optional; a preset session synthesizes its own frames server-side.
type CreateSessionRequest struct {
	// ID requests a specific session id (1-64 chars of [A-Za-z0-9_-]).
	// Empty lets the server mint one. The cluster gateway always sets it:
	// consistent hashing needs the id before the shard is chosen.
	ID string `json:"id,omitempty"`
	PW int    `json:"pw,omitempty"`
	// Preset selects a synthetic source: "sceneflow" or "kitti". Empty
	// means the client uploads frames.
	Preset string `json:"preset,omitempty"`
	W      int    `json:"w,omitempty"`
	H      int    `json:"h,omitempty"`
	Frames int    `json:"frames,omitempty"` // preset sequence length
	Seed   int64  `json:"seed,omitempty"`
	// Postprocess enables the 3×3 validity-aware median on non-key frames.
	Postprocess bool `json:"postprocess,omitempty"`
	// Calibration, when present, is the session's camera model
	// (perception.Calibration JSON: pinhole intrinsics, per-eye rotations,
	// stereo baseline). It makes the session accept unrectified uploads —
	// every frame is rectified server-side before matching — and unlocks
	// the ?depth and ?cloud response formats.
	Calibration json.RawMessage `json:"calibration,omitempty"`
	// SLO is the session's service class: "gold" (the default) pins the
	// session to the ladder's top rung and sheds its overload with 429;
	// "besteffort" lets the server degrade it to cheaper rungs instead.
	SLO string `json:"slo,omitempty"`
	// DeadlineMs is a best-effort session's per-frame latency target; the
	// controller degrades only as far as needed to meet it. Zero uses the
	// server's DefaultDeadline. Ignored for gold sessions.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// SessionInfo is returned by session create/get.
type SessionInfo struct {
	ID        string `json:"id"`
	PW        int    `json:"pw"`
	Preset    string `json:"preset,omitempty"`
	W         int    `json:"w,omitempty"`
	H         int    `json:"h,omitempty"`
	Frames    int64  `json:"frames"`
	KeyFrames int64  `json:"key_frames"`
	IdleMs    int64  `json:"idle_ms"`
	// Calibrated reports whether the session carries a camera model (and
	// therefore serves depth maps and point clouds).
	Calibrated bool `json:"calibrated,omitempty"`
	// SLO is the session's service class ("gold" or "besteffort").
	SLO string `json:"slo"`
	// DeadlineMs is the per-frame latency target a best-effort session is
	// degraded to meet (0 for gold sessions).
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Rung is the ladder rung the session's latest frame was served at.
	Rung string `json:"rung,omitempty"`
	// DegradedFrames counts this session's frames served below the top rung.
	DegradedFrames int64 `json:"degraded_frames,omitempty"`
}

// FrameResponse is the JSON reply to a frame submission.
type FrameResponse struct {
	Session      string           `json:"session"`
	Frame        int              `json:"frame"`
	IsKey        bool             `json:"is_key"`
	MACs         int64            `json:"macs"`
	MeanMotionPx float64          `json:"mean_motion_px"`
	Disparity    stereo.DispStats `json:"disparity"`
	QueueMs      float64          `json:"queue_ms"`
	ComputeMs    float64          `json:"compute_ms"`
	// Rung names the ladder rung this frame was served at; Degraded is true
	// when that was any rung below the top.
	Rung     string `json:"rung"`
	Degraded bool   `json:"degraded,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

// handleMetrics serves the live observability snapshot: serving-layer
// counters plus the shared internal/metrics stage snapshot (the same format
// asvbench emits), so one dashboard reads both. When a CostBackend is
// configured, a "backend" section carries the estimated per-frame
// accelerator cost alongside the measured serving numbers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"serve":  s.CountersSnapshot(),
		"stages": map[string]any{},
	}
	if s.cfg.Metrics != nil {
		doc["stages"] = s.cfg.Metrics.Snapshot()
	}
	if s.costEst != nil {
		doc["backend"] = s.costEst
	}
	writeJSON(w, http.StatusOK, doc)
}

// backendCostEstimate runs the accelerator model once on the serving
// workload shape — the DispNet key-frame DNN at the paper's qHD resolution
// — under the model's best supported policy, and returns the /metrics
// "backend" section. On ISM-capable backends with a known non-key demand
// the estimate is the steady-state per-frame cost amortized over pw.
func backendCostEstimate(b backend.Backend, nonKey backend.NonKeyCost, pw int) map[string]any {
	d := b.Describe()
	pol := d.Caps.Policies[len(d.Caps.Policies)-1]
	opts := backend.RunOptions{Policy: pol}
	mode := "dnn-per-frame"
	if d.Caps.ISM && pw > 1 && nonKey != (backend.NonKeyCost{}) {
		opts.PW, opts.NonKey = pw, nonKey
		mode = fmt.Sprintf("ism-pw%d", pw)
	}
	rep, err := backend.Run(b, nn.DispNet(nn.QHDH, nn.QHDW), opts)
	if err != nil {
		// Unreachable for registered backends (options come from Describe),
		// but a broken custom backend should not take down the server.
		return map[string]any{"name": d.Name, "error": err.Error()}
	}
	return map[string]any{
		"name":              d.Name,
		"policy":            pol.String(),
		"mode":              mode,
		"workload":          rep.Workload,
		"est_frame_ms":      round2(rep.Seconds * 1e3),
		"est_fps":           round2(rep.FPS()),
		"est_frame_mj":      round2(rep.EnergyJ * 1e3),
		"est_frame_gmacs":   round2(float64(rep.MACs) / 1e9),
		"est_frame_dram_mb": round2(float64(rep.DRAMBytes) / (1024 * 1024)),
	}
}

// CountersSnapshot returns the serving-layer counters under stable names
// (see the metrics package for the schema discipline).
func (s *Server) CountersSnapshot() map[string]any {
	s.mu.Lock()
	meanBusy, maxBusy := 0.0, s.slotBusyMax
	if s.slotStarts > 0 {
		meanBusy = float64(s.slotBusySum) / float64(s.slotStarts)
	}
	s.mu.Unlock()
	return map[string]any{
		"sessions_active":   s.tab.len(),
		"sessions_evicted":  s.tab.evictions.Load(),
		"frames_accepted":   s.accepted.Load(),
		"frames_completed":  s.completed.Load(),
		"rejected_429":      s.rejected.Load(),
		"drained_503":       s.drained503.Load(),
		"queue_depth":       s.inflight.Load(),
		"queue_capacity":    s.cfg.QueueDepth,
		"batch_mean_frames": round2(meanBusy),
		"batch_max_frames":  maxBusy,
		"snapshots_served":  s.snapshotsServed.Load(),
		"snapshots_put":     s.snapshotsRestored.Load(),
		"sessions_spilled":  s.spilled.Load(),
		"disk_restores":     s.diskRestores.Load(),
		"checkpoints":       s.checkpoints.Load(),
		"spill_errors":      s.spillErrors.Load(),
		"depth_maps_served": s.depthMapsServed.Load(),
		"clouds_served":     s.cloudsServed.Load(),
		"cloud_points":      s.cloudPoints.Load(),
		"frames_degraded":   s.degradedTotal.Load(),
		"rungs":             s.rungCounts(),
	}
}

// rungCounts is the per-rung served-frame tally (rung name → frames), the
// /metrics view of where on the ladder the server has been operating.
func (s *Server) rungCounts() map[string]int64 {
	out := make(map[string]int64, len(s.ladder))
	for i := range s.ladder {
		out[s.ladder[i].Name] = s.rungServed[i].Load()
	}
	return out
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req CreateSessionRequest
	if r.Body != nil {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				writeError(w, http.StatusBadRequest, "parsing body: "+err.Error())
				return
			}
		}
	}
	pw := req.PW
	if pw == 0 {
		pw = s.cfg.PW
	}
	if pw < 1 || pw > 64 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("pw %d out of range [1,64]", pw))
		return
	}
	id := req.ID
	if id == "" {
		id = NewSessionID()
	} else {
		// Client-chosen ids exist for the cluster gateway, which must mint
		// the id before placing the session on a shard (the consistent-hash
		// ring maps ids to shards). They share the random ids' namespace.
		if !validSessionID(id) {
			writeError(w, http.StatusBadRequest, "invalid session id (want 1-64 chars of [A-Za-z0-9_-])")
			return
		}
		if s.lookup(id) != nil {
			writeError(w, http.StatusConflict, fmt.Sprintf("session %q already exists", id))
			return
		}
	}

	var calib *perception.Calibration
	if len(req.Calibration) > 0 {
		c, err := perception.ParseCalibration(req.Calibration)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		calib = c
	}

	slo, err := quality.ParseClass(req.SLO)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var deadlineMs float64
	if slo == quality.BestEffort {
		deadlineMs = req.DeadlineMs
		if deadlineMs <= 0 {
			deadlineMs = float64(s.cfg.DefaultDeadline) / 1e6
		}
	} else if req.DeadlineMs != 0 {
		writeError(w, http.StatusBadRequest, "deadline_ms requires slo=besteffort (gold sessions are never degraded)")
		return
	}

	cfg := s.cfg.Pipeline
	cfg.PW = pw
	cfg.Postprocess = req.Postprocess
	sess := &session{
		id:         id,
		pw:         pw,
		pipe:       core.New(s.matcher, cfg),
		created:    time.Now(),
		calib:      calib,
		slo:        slo,
		deadlineMs: deadlineMs,
	}
	sess.touch()

	if req.Preset != "" {
		src, err := s.buildPreset(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		sess.preset = src
	}

	s.installSession(sess)
	writeJSON(w, http.StatusCreated, s.info(sess))
}

// buildPreset validates and generates a synthetic frame source.
func (s *Server) buildPreset(req CreateSessionRequest) (*presetSource, error) {
	w, h, frames := req.W, req.H, req.Frames
	if w == 0 {
		w = 128
	}
	if h == 0 {
		h = 80
	}
	if frames == 0 {
		frames = 16
	}
	if w < 16 || h < 16 || w*h > s.cfg.MaxPixels {
		return nil, fmt.Errorf("preset size %dx%d out of range (min 16x16, max %d pixels)", w, h, s.cfg.MaxPixels)
	}
	if frames < 1 || frames > s.cfg.MaxPresetFrames {
		return nil, fmt.Errorf("preset frames %d out of range [1,%d]", frames, s.cfg.MaxPresetFrames)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 7
	}
	var cfg dataset.SceneConfig
	switch req.Preset {
	case "sceneflow":
		cfg = dataset.SceneFlowLike(w, h, frames, seed)[0]
	case "kitti":
		cfg = dataset.KITTILike(w, h, 1, seed)[0]
		cfg.FrameCount = frames
	default:
		return nil, fmt.Errorf("unknown preset %q (sceneflow|kitti)", req.Preset)
	}
	return &presetSource{name: req.Preset, cfg: cfg, seq: dataset.Generate(cfg)}, nil
}

func (s *Server) info(sess *session) SessionInfo {
	w, h := sess.geometry()
	inf := SessionInfo{
		ID:        sess.id,
		PW:        sess.pw,
		Frames:    sess.frames.Load(),
		KeyFrames: sess.keyFrames.Load(),
		IdleMs:    sess.idle().Milliseconds(),
		W:         w,
		H:         h,
	}
	if sess.preset != nil {
		inf.Preset = sess.preset.name
	}
	inf.Calibrated = sess.calib != nil
	inf.SLO = sess.slo.String()
	inf.DeadlineMs = sess.deadlineMs
	if sess.frames.Load() > 0 {
		inf.Rung = s.ladder[sess.lastRung.Load()].Name
	}
	inf.DegradedFrames = sess.degradedFrames.Load()
	return inf
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, s.info(sess))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	removed := s.tab.remove(id)
	if path := s.spillPath(id); path != "" {
		if _, err := os.Stat(path); err == nil {
			removed = true
		}
		s.dropSpill(id)
	}
	if !removed {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSubmitFrame is the hot path: decode (or synthesize), submit to the
// scheduler, block for the in-order result, reply. A draining server
// short-circuits before any expensive work.
func (s *Server) handleSubmitFrame(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.drained503.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}

	// Resolve the requested response format before admission: a bad format
	// string (or a depth/cloud request against an uncalibrated session) is
	// a 400 before any work is queued, not after the frame was computed.
	format, err := parseReplyFormat(r, sess)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	it := &workItem{sess: sess, reply: make(chan frameReply, 1)}
	it.wantLeft = format == formatCloudPLY || format == formatCloudPLYBin || format == formatCloudBin
	if sess.preset == nil {
		left, right, err := s.decodePair(r)
		if err != nil {
			status := http.StatusBadRequest
			var tle *imgproc.TooLargeError
			if errors.As(err, &tle) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, err.Error())
			return
		}
		it.left, it.right = left, right
	}

	if err := s.submit(it); err != nil {
		if errors.Is(err, errDraining) {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterHint()))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}

	select {
	case rep := <-it.reply:
		if rep.err != nil {
			var bad badFrameError
			if errors.As(rep.err, &bad) {
				writeError(w, http.StatusUnprocessableEntity, rep.err.Error())
			} else {
				writeError(w, http.StatusInternalServerError, rep.err.Error())
			}
			return
		}
		s.writeFrameReply(w, sess, format, rep)
	case <-r.Context().Done():
		// Client went away; the frame still runs to completion (the session
		// state must advance) and the buffered reply is dropped.
		writeError(w, http.StatusServiceUnavailable, "client canceled")
	}
}

// retryAfterHint computes the Retry-After value for a 429: the time until
// the current backlog has drained far enough that a retry has a real chance,
// from the live queue depth and the observed p95 frame latency.
func (s *Server) retryAfterHint() int {
	var p95 time.Duration
	if s.cfg.Metrics != nil {
		p95 = s.cfg.Metrics.Stage("frame").Quantile(0.95)
	}
	return retryAfterSeconds(int(s.inflight.Load()), s.cfg.Workers, p95)
}

// retryAfterSeconds estimates how many whole seconds until a queue of depth
// queued drains across workers at p95 per frame, plus one frame's slack,
// clamped to [1,30]: never 0 (clients would hammer a saturated server) and
// never so large that a transient spike parks clients for minutes.
func retryAfterSeconds(queued, workers int, p95 time.Duration) int {
	if workers < 1 {
		workers = 1
	}
	if queued < 0 {
		queued = 0
	}
	if p95 <= 0 {
		return 1
	}
	drain := time.Duration(queued/workers+1) * p95
	secs := int((drain + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// replyFormat selects how a completed frame is rendered back to the client.
type replyFormat int

const (
	formatJSON        replyFormat = iota // per-frame stats (default)
	formatDispPFM                        // ?disparity=pfm: raw disparity, PFM
	formatDepthPFM                       // ?depth=pfm: metric depth, PFM
	formatCloudPLY                       // ?cloud=ply: ASCII PLY point cloud
	formatCloudPLYBin                    // ?cloud=plybin: binary PLY
	formatCloudBin                       // ?cloud=bin: ASVPCD binary codec
)

// parseReplyFormat resolves the frame submission's query parameters. At most
// one of disparity/depth/cloud may be set; depth and cloud require the
// session to carry a calibration (triangulation needs fx and the baseline).
func parseReplyFormat(r *http.Request, sess *session) (replyFormat, error) {
	q := r.URL.Query()
	disp, depth, cloud := q.Get("disparity"), q.Get("depth"), q.Get("cloud")
	set := 0
	for _, v := range []string{disp, depth, cloud} {
		if v != "" {
			set++
		}
	}
	if set > 1 {
		return formatJSON, errors.New("at most one of disparity=, depth=, cloud= may be requested")
	}
	format := formatJSON
	switch {
	case disp != "":
		if disp != "pfm" {
			return formatJSON, fmt.Errorf("unknown disparity format %q (want pfm)", disp)
		}
		format = formatDispPFM
	case depth != "":
		if depth != "pfm" {
			return formatJSON, fmt.Errorf("unknown depth format %q (want pfm)", depth)
		}
		format = formatDepthPFM
	case cloud != "":
		switch cloud {
		case "ply":
			format = formatCloudPLY
		case "plybin":
			format = formatCloudPLYBin
		case "bin":
			format = formatCloudBin
		default:
			return formatJSON, fmt.Errorf("unknown cloud format %q (want ply|plybin|bin)", cloud)
		}
	}
	if (format == formatDepthPFM || format >= formatCloudPLY) && sess.calib == nil {
		return formatJSON, errors.New("depth and cloud formats require a calibrated session (create it with a calibration)")
	}
	return format, nil
}

// writeFrameReply renders a completed frame: JSON stats by default, or one
// of the binary formats (stats travel in X-ASV-* headers). Depth and cloud
// replies triangulate through the session's calibration.
func (s *Server) writeFrameReply(w http.ResponseWriter, sess *session, format replyFormat, rep frameReply) {
	// Every reply format carries the served rung in headers, so clients
	// (and the load generator) see degradation uniformly without parsing
	// format-specific bodies.
	rungName := s.ladder[rep.rung].Name
	w.Header().Set("X-ASV-Rung", rungName)
	w.Header().Set("X-ASV-Degraded", fmt.Sprint(rep.rung > 0))
	if format == formatJSON {
		writeJSON(w, http.StatusOK, FrameResponse{
			Session:      sess.id,
			Frame:        rep.frame,
			IsKey:        rep.res.IsKey,
			MACs:         rep.res.MACs,
			MeanMotionPx: rep.res.MeanMotionPx,
			Disparity:    rep.stats,
			QueueMs:      float64(rep.queueWait) / 1e6,
			ComputeMs:    float64(rep.compute) / 1e6,
			Rung:         rungName,
			Degraded:     rep.rung > 0,
		})
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-ASV-Frame", fmt.Sprint(rep.frame))
	w.Header().Set("X-ASV-Is-Key", fmt.Sprint(rep.res.IsKey))
	w.Header().Set("X-ASV-MACs", fmt.Sprint(rep.res.MACs))

	// Write failures past this point mean the client hung up; headers are
	// gone, so there is nothing to report.
	switch format {
	case formatDispPFM:
		//asvlint:ignore droppederr a short write mid-reply means the client hung up; no recovery
		imgproc.WritePFM(w, rep.res.Disparity)
	case formatDepthPFM:
		s.depthMapsServed.Add(1)
		//asvlint:ignore droppederr a short write mid-reply means the client hung up; no recovery
		imgproc.WritePFM(w, perception.DepthMap(rep.res.Disparity, sess.calib))
	default:
		cl := perception.Reproject(rep.res.Disparity, rep.left, sess.calib)
		st := cl.Stats()
		s.cloudsServed.Add(1)
		s.cloudPoints.Add(int64(st.Points))
		w.Header().Set("X-ASV-Points", fmt.Sprint(st.Points))
		w.Header().Set("X-ASV-Depth-P50", fmt.Sprint(st.P50Z))
		w.Header().Set("X-ASV-Depth-P90", fmt.Sprint(st.P90Z))
		switch format {
		case formatCloudPLY:
			//asvlint:ignore droppederr a short write mid-reply means the client hung up; no recovery
			perception.WritePLYASCII(w, cl)
		case formatCloudPLYBin:
			//asvlint:ignore droppederr a short write mid-reply means the client hung up; no recovery
			perception.WritePLYBinary(w, cl)
		case formatCloudBin:
			//asvlint:ignore droppederr a short write mid-reply means the client hung up; no recovery
			w.Write(perception.EncodeCloud(cl))
		}
	}
}

// decodePair extracts the left/right images of a multipart upload. Each
// part may be PGM or PFM (sniffed by magic); decode enforces the
// configured pixel cap via imgproc's typed error.
func (s *Server) decodePair(r *http.Request) (left, right *imgproc.Image, err error) {
	// Bound the bytes we are willing to buffer: 4 bytes per pixel per
	// image for PFM plus generous header/boundary slack.
	limit := int64(s.cfg.MaxPixels)*8 + 1<<16
	r.Body = http.MaxBytesReader(nil, r.Body, limit)
	if err := r.ParseMultipartForm(limit); err != nil {
		return nil, nil, fmt.Errorf("parsing multipart upload: %w", err)
	}
	//asvlint:ignore droppederr best-effort temp-file cleanup; decode already has the bytes
	defer r.MultipartForm.RemoveAll()
	for _, name := range []string{"left", "right"} {
		f, _, err := r.FormFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("missing %q image part: %w", name, err)
		}
		im, err := s.decodeImage(f)
		//asvlint:ignore droppederr read-only multipart part; decode result is what matters
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("decoding %q: %w", name, err)
		}
		if name == "left" {
			left = im
		} else {
			right = im
		}
	}
	return left, right, nil
}

// decodeImage sniffs PGM ("P5") vs PFM ("Pf") and decodes under the
// configured pixel cap, scrubbing non-finite PFM samples (the kernels are
// clamp-safe on any finite input).
func (s *Server) decodeImage(f io.Reader) (*imgproc.Image, error) {
	br := newSniffReader(f)
	magic, err := br.peek2()
	if err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	var im *imgproc.Image
	switch magic {
	case "P5":
		im, err = imgproc.ReadPGMLimit(br, s.cfg.MaxPixels)
	case "Pf":
		im, err = imgproc.ReadPFMLimit(br, s.cfg.MaxPixels)
	default:
		return nil, fmt.Errorf("unsupported image magic %q (want PGM P5 or PFM Pf)", magic)
	}
	if err != nil {
		return nil, err
	}
	sanitize(im)
	return im, nil
}

// sanitize replaces non-finite samples with 0 so hostile PFM payloads
// cannot push NaN/Inf into the temporal kernels.
func sanitize(im *imgproc.Image) {
	for i, v := range im.Pix {
		if v != v || v > 1e9 || v < -1e9 {
			im.Pix[i] = 0
		}
	}
}

// --- small plumbing -----------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//asvlint:ignore droppederr an encode failure mid-reply means the client hung up; no recovery
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// sniffReader lets the decoder peek the 2-byte magic without consuming it.
type sniffReader struct {
	r      io.Reader
	peeked []byte
}

func newSniffReader(r io.Reader) *sniffReader { return &sniffReader{r: r} }

func (s *sniffReader) peek2() (string, error) {
	buf := make([]byte, 2)
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return "", err
	}
	s.peeked = buf
	return string(buf), nil
}

func (s *sniffReader) Read(p []byte) (int, error) {
	if len(s.peeked) > 0 {
		n := copy(p, s.peeked)
		s.peeked = s.peeked[n:]
		return n, nil
	}
	return s.r.Read(p)
}
