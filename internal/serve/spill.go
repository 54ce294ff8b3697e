package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
)

// Snapshot/restore endpoints and the disk spill store.
//
// GET  /v1/sessions/{id}/snapshot  — serialize a quiescent session
// PUT  /v1/sessions/{id}/snapshot  — install (create or replace) a session
// GET  /v1/sessions                — list resident sessions (drain protocol)
//
// The same codec powers eviction-to-disk: with Config.SpillDir set, cold
// sessions evicted by TTL or LRU pressure are written to
// <SpillDir>/<id>.asvsnap instead of being dropped, and a session-table
// miss transparently restores from that file. With Config.CheckpointEvery
// set, hot sessions are also checkpointed there every N completed frames,
// which is what lets a cluster peer adopt a crashed shard's sessions from a
// shared spill directory (DESIGN.md §10).

// snapshotOf captures sess under its run lock. The caller must ensure no
// frames are pending if it wants the snapshot to reflect the full stream.
func (s *Server) snapshotOf(sess *session) *SessionSnapshot {
	sess.runMu.Lock()
	defer sess.runMu.Unlock()
	return s.snapshotLocked(sess)
}

// snapshotLocked builds the snapshot; sess.runMu must be held.
func (s *Server) snapshotLocked(sess *session) *SessionSnapshot {
	cfg := sess.pipe.Config()
	w, h := sess.geometry()
	snap := &SessionSnapshot{
		ID:          sess.id,
		PW:          sess.pw,
		Postprocess: cfg.Postprocess,
		FlowScale:   cfg.FlowScale,
		RefineR:     cfg.RefineR,
		BM:          cfg.BM,
		Flow:        cfg.Flow,
		Frames:      sess.frames.Load(),
		KeyFrames:   sess.keyFrames.Load(),
		W:           w,
		H:           h,
		State:       sess.pipe.State(),
	}
	if sess.level != 0 {
		// The session is currently degraded to a pyramid rung: its temporal
		// state lives at 1/2^level resolution, which the snapshot geometry
		// (the full upload size) cannot represent. Ship an empty state
		// instead — the restored session costs one key frame to re-prime,
		// the same price as any cross-level rung switch. SLO class is not
		// serialized (snapshot codec v2 unchanged); restored sessions
		// default to gold.
		snap.State = core.State{}
	}
	if cfg.Adaptive != nil {
		a := *cfg.Adaptive
		snap.Adaptive = &a
	}
	if sess.preset != nil {
		snap.Preset = &PresetSnapshot{
			Name:  sess.preset.name,
			Scene: sess.preset.cfg,
			Next:  int64(sess.preset.next),
		}
	}
	if sess.calib != nil {
		c := *sess.calib
		snap.Calib = &c
	}
	return snap
}

// sessionFromSnapshot rebuilds a live session from a decoded snapshot,
// enforcing this server's resource limits. The pipeline configuration comes
// from the snapshot (so the stream recomputes exactly what the source shard
// would have), layered over the server's template for the parts a snapshot
// does not carry (the motion-estimator override).
func (s *Server) sessionFromSnapshot(snap *SessionSnapshot) (*session, error) {
	if snap.W*snap.H > s.cfg.MaxPixels {
		return nil, fmt.Errorf("snapshot geometry %dx%d exceeds this server's %d-pixel cap", snap.W, snap.H, s.cfg.MaxPixels)
	}
	cfg := s.cfg.Pipeline
	cfg.PW = snap.PW
	cfg.Postprocess = snap.Postprocess
	cfg.FlowScale = snap.FlowScale
	cfg.RefineR = snap.RefineR
	cfg.BM = snap.BM
	cfg.Flow = snap.Flow
	cfg.Adaptive = nil
	if snap.Adaptive != nil {
		a := *snap.Adaptive
		cfg.Adaptive = &a
	}

	sess := &session{
		id:      snap.ID,
		pw:      snap.PW,
		pipe:    core.New(s.matcher, cfg),
		created: time.Now(),
	}
	if err := sess.pipe.SetState(snap.State); err != nil {
		return nil, err
	}
	sess.frames.Store(snap.Frames)
	sess.keyFrames.Store(snap.KeyFrames)
	if snap.W > 0 {
		sess.w, sess.h = snap.W, snap.H
	}
	if snap.Preset != nil {
		if snap.Preset.Scene.W*snap.Preset.Scene.H > s.cfg.MaxPixels {
			return nil, fmt.Errorf("preset size %dx%d exceeds this server's %d-pixel cap",
				snap.Preset.Scene.W, snap.Preset.Scene.H, s.cfg.MaxPixels)
		}
		if snap.Preset.Scene.FrameCount > s.cfg.MaxPresetFrames {
			return nil, fmt.Errorf("preset length %d exceeds this server's %d-frame cap",
				snap.Preset.Scene.FrameCount, s.cfg.MaxPresetFrames)
		}
		sess.preset = &presetSource{
			name: snap.Preset.Name,
			cfg:  snap.Preset.Scene,
			seq:  dataset.Generate(snap.Preset.Scene),
			next: int(snap.Preset.Next),
		}
	}
	if snap.Calib != nil {
		c := *snap.Calib
		sess.calib = &c
	}
	sess.touch()
	return sess, nil
}

// --- HTTP handlers ------------------------------------------------------

// SessionList is the body of GET /v1/sessions.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	list := SessionList{Sessions: []SessionInfo{}}
	for _, sess := range s.tab.list() {
		list.Sessions = append(list.Sessions, s.info(sess))
	}
	writeJSON(w, http.StatusOK, list)
}

// handleGetSnapshot serializes a session. It deliberately works while the
// server drains — serving snapshots to the migration protocol is the point
// of draining gracefully. A session with queued frames answers 409 (the
// snapshot would silently miss them); callers quiesce and retry.
func (s *Server) handleGetSnapshot(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if sess.pendingFrames.Load() > 0 {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "session has frames in flight; retry once it is quiescent")
		return
	}
	buf := EncodeSnapshot(s.snapshotOf(sess))
	s.snapshotsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-ASV-Snapshot-Version", fmt.Sprint(SnapshotVersion))
	w.Header().Set("Content-Length", fmt.Sprint(len(buf)))
	//asvlint:ignore droppederr a short write mid-reply means the client hung up; no recovery
	w.Write(buf)
}

// handlePutSnapshot installs a snapshot under the path id, creating the
// session or replacing a quiescent same-id one (the restore half of
// migration and crash recovery).
func (s *Server) handlePutSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	id := r.PathValue("id")
	if !validSessionID(id) {
		writeError(w, http.StatusBadRequest, "invalid session id")
		return
	}
	if cur := s.tab.get(id); cur != nil && cur.pendingFrames.Load() > 0 {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "existing session has frames in flight")
		return
	}
	limit := int64(s.cfg.MaxPixels)*12 + 1<<20 // three float32 planes + slack
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading snapshot: "+err.Error())
		return
	}
	sess, err := s.restore(id, body)
	if err != nil {
		status := http.StatusUnprocessableEntity
		var snapErr *SnapshotError
		if errors.As(err, &snapErr) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err.Error())
		return
	}
	s.snapshotsRestored.Add(1)
	writeJSON(w, http.StatusOK, s.info(sess))
}

// restore is the one path from snapshot bytes to a resident session: decode,
// check the snapshot is for id, rebuild it under this server's limits,
// install it. A *SnapshotError means the bytes themselves are unacceptable
// (damaged, wrong version, another session's); any other error means a
// well-formed snapshot this server's limits refuse.
func (s *Server) restore(id string, buf []byte) (*session, error) {
	snap, err := DecodeSnapshot(buf, s.cfg.MaxPixels)
	if err != nil {
		return nil, err
	}
	if snap.ID != id {
		return nil, snapErrf("is for session %q, not %q", snap.ID, id)
	}
	sess, err := s.sessionFromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	s.installSession(sess)
	return sess, nil
}

// installSession adds sess to the table, spilling whichever session the
// capacity eviction displaced.
func (s *Server) installSession(sess *session) {
	if evicted := s.tab.add(sess); evicted != nil {
		s.spill(evicted)
	}
}

// --- disk spill store ---------------------------------------------------

// spillPath returns the snapshot file for a session id, or "" when the
// spill store is disabled or the id is unsafe as a filename.
func (s *Server) spillPath(id string) string {
	if s.cfg.SpillDir == "" || !validSessionID(id) {
		return ""
	}
	return filepath.Join(s.cfg.SpillDir, id+".asvsnap")
}

// spill writes an evicted session's snapshot to the spill store (no-op when
// disabled).
func (s *Server) spill(sess *session) {
	if s.cfg.SpillDir != "" {
		s.persist(sess.id, EncodeSnapshot(s.snapshotOf(sess)), &s.spilled)
	}
}

// persist is the one path from encoded snapshot bytes to id's spill file:
// an atomic write (temp file + rename) that bumps wrote on success. Failures
// only bump spill_errors — neither eviction nor a frame reply may block on a
// sick disk. No-op when the spill store is disabled.
func (s *Server) persist(id string, buf []byte, wrote *atomic.Int64) {
	path := s.spillPath(id)
	if path == "" {
		return
	}
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, buf, 0o644)
	if err == nil {
		if err = os.Rename(tmp, path); err != nil {
			//asvlint:ignore droppederr best-effort cleanup of the temp file after the rename failed
			os.Remove(tmp)
		}
	}
	if err != nil {
		s.spillErrors.Add(1)
		return
	}
	wrote.Add(1)
}

// dropSpill removes a session's spill file (explicit DELETE).
func (s *Server) dropSpill(id string) {
	if path := s.spillPath(id); path != "" {
		//asvlint:ignore droppederr removing a spill file that may not exist; absence is the goal
		os.Remove(path)
	}
}

// lookup resolves a session id: the in-memory table first, then the spill
// store. A disk hit transparently re-materializes the session — the
// mechanism behind both cold-session eviction and a shard adopting a dead
// peer's sessions from a shared spill directory. The file is left in place;
// it is overwritten by the next checkpoint or eviction and removed by
// explicit DELETE.
func (s *Server) lookup(id string) *session {
	if sess := s.tab.get(id); sess != nil {
		return sess
	}
	path := s.spillPath(id)
	if path == "" {
		return nil
	}
	s.restoreMu.Lock()
	defer s.restoreMu.Unlock()
	if sess := s.tab.get(id); sess != nil { // lost the race to another restorer
		return sess
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.spillErrors.Add(1)
		}
		return nil
	}
	sess, err := s.restore(id, buf)
	if err != nil {
		s.spillErrors.Add(1)
		return nil
	}
	s.diskRestores.Add(1)
	return sess
}
