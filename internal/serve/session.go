package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/perception"
	"asv/internal/quality"
)

// A session owns one ISM state machine: the server runs DNN-oracle (or SGM)
// matching on the session's key frames and motion-propagated refinement on
// the frames between them, exactly as the batch pipeline would, but driven
// by request arrival. Frames of one session are processed strictly in
// admission order, one at a time: the session's drainer (sched.go) is the
// only goroutine that runs them.
type session struct {
	id      string
	pw      int // 0 when the schedule is adaptive
	pipe    *core.Pipeline
	created time.Time

	// queue holds the session's admitted frames in FIFO order; running is
	// true while a drainer goroutine is working through it. Both are guarded
	// by Server.mu.
	queue   []*workItem
	running bool

	// runMu serializes pipeline-state access between the drainer running a
	// frame and the snapshot encoder. At most one frame per session runs at
	// a time, so frames never contend on it; the lock exists so a snapshot
	// taken between frames observes fully committed state.
	runMu sync.Mutex

	// preset, when non-nil, lets clients POST empty bodies: the server
	// feeds the session from this synthetic stereo sequence instead,
	// wrapping around at the end. Useful for load generation without
	// shipping image bytes.
	preset *presetSource

	// calib, when non-nil, is the session's camera model: incoming frames
	// are rectified through it before matching, and it unlocks the depth
	// and point-cloud response formats. Immutable after session creation
	// (handlers read it without the run lock).
	calib *perception.Calibration

	// slo and deadlineMs are the session's service class and per-frame
	// latency target (DESIGN.md §12), immutable after creation. Gold
	// sessions are pinned to the ladder's top rung; best-effort sessions
	// may be degraded to meet deadlineMs under load.
	slo        quality.Class
	deadlineMs float64

	// level is the pyramid level of the rung the previous frame ran at,
	// guarded by runMu: the flow kernels require consecutive frames to
	// agree in size, so a rung switch across levels must Reset the
	// pipeline (costing one key frame at the new resolution).
	level int

	// lastRung is the ladder index the latest frame was served at;
	// degradedFrames counts frames served below the top rung. Both feed
	// SessionInfo.
	lastRung       atomic.Int64
	degradedFrames atomic.Int64

	// geoMu guards w/h: runFrame pins the session's frame geometry on
	// first use (the temporal kernels require every frame of a stream to
	// agree) while info handlers read it concurrently.
	geoMu sync.Mutex
	w, h  int

	// lastUseNs (unix nanos) drives TTL and LRU eviction; pendingFrames
	// counts admitted-but-unfinished frames so the janitor never evicts a
	// session with queued work.
	lastUseNs     atomic.Int64
	pendingFrames atomic.Int64
	// frames counts completed frames; keyFrames counts how many ran the
	// key matcher.
	frames    atomic.Int64
	keyFrames atomic.Int64
}

func (s *session) touch() { s.lastUseNs.Store(time.Now().UnixNano()) }

func (s *session) idle() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.lastUseNs.Load())
}

// checkGeometry pins the session's frame size on first use and rejects
// mismatched follow-ups (the flow and refinement kernels panic on size
// changes mid-stream, so this must be caught at admission).
func (s *session) checkGeometry(left, right *imgproc.Image) error {
	if left.W != right.W || left.H != right.H {
		return fmt.Errorf("left %dx%d and right %dx%d differ", left.W, left.H, right.W, right.H)
	}
	s.geoMu.Lock()
	defer s.geoMu.Unlock()
	if s.w == 0 {
		s.w, s.h = left.W, left.H
		return nil
	}
	if left.W != s.w || left.H != s.h {
		return fmt.Errorf("frame %dx%d does not match the session's established %dx%d",
			left.W, left.H, s.w, s.h)
	}
	return nil
}

// geometry returns the pinned frame size (0,0 before the first frame).
func (s *session) geometry() (w, h int) {
	s.geoMu.Lock()
	defer s.geoMu.Unlock()
	return s.w, s.h
}

// presetSource cycles through a pre-generated synthetic stereo sequence.
// cfg is kept alongside the generated frames so a snapshot can record the
// recipe instead of the pixels: restore regenerates the identical sequence.
type presetSource struct {
	name string
	cfg  dataset.SceneConfig
	seq  *dataset.Sequence
	next int // next frame index, guarded by the session's runMu
}

func (ps *presetSource) frame() (left, right *imgproc.Image) {
	fr := ps.seq.Frames[ps.next%len(ps.seq.Frames)]
	ps.next++
	return fr.Left, fr.Right
}

// NewSessionID returns a fresh 13-char random session identifier. It is
// exported for the cluster gateway, which must know a session's id before
// the owning shard does: consistent hashing places the session by id, so
// the gateway mints the id, injects it into the create request, and routes
// by it.
func NewSessionID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: session id entropy: " + err.Error())
	}
	return "s" + hex.EncodeToString(b[:])
}

// validSessionID accepts ids that are safe as both URL path segments and
// snapshot spill filenames: 1–64 chars of [A-Za-z0-9_-].
func validSessionID(id string) bool {
	if len(id) < 1 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// sessionTable is the server's id → session map with LRU-over-capacity and
// TTL eviction. All methods are safe for concurrent use.
type sessionTable struct {
	mu   sync.Mutex
	max  int
	byID map[string]*session

	// evictions counts sessions removed by capacity or TTL pressure (not
	// explicit DELETEs).
	evictions atomic.Int64
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{max: max, byID: make(map[string]*session)}
}

func (t *sessionTable) get(id string) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// add inserts a session (replacing any same-id entry in place), evicting
// the least-recently-used existing session if the table is at capacity.
// Sessions with in-flight frames are passed over as eviction candidates;
// their queued work still completes because work items hold the *session
// pointer, removal only unlinks the id. The evicted session, if any, is
// returned so the server can spill it to disk before it is forgotten.
func (t *sessionTable) add(s *session) (evicted *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.byID[s.id]; !exists && len(t.byID) >= t.max {
		var victim *session
		for _, cand := range t.byID {
			if cand.pendingFrames.Load() > 0 {
				continue
			}
			if victim == nil || cand.lastUseNs.Load() < victim.lastUseNs.Load() {
				victim = cand
			}
		}
		if victim != nil {
			delete(t.byID, victim.id)
			t.evictions.Add(1)
			evicted = victim
		}
	}
	t.byID[s.id] = s
	return evicted
}

// list returns the resident sessions sorted by id (stable output for the
// session-listing endpoint the cluster drain protocol walks).
func (t *sessionTable) list() []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*session, 0, len(t.byID))
	for _, s := range t.byID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// remove unlinks a session by id, returning whether it was present.
func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.byID[id]
	delete(t.byID, id)
	return ok
}

// expire evicts every idle session whose last use is older than ttl,
// returning the evicted sessions (for spill-to-disk). Sessions with queued
// frames are never expired.
func (t *sessionTable) expire(ttl time.Duration) []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*session
	for id, s := range t.byID {
		if s.pendingFrames.Load() == 0 && s.idle() > ttl {
			delete(t.byID, id)
			t.evictions.Add(1)
			out = append(out, s)
		}
	}
	return out
}
