package serve

import (
	"errors"
	"fmt"
	"time"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/quality"
	"asv/internal/stereo"
)

// The frame scheduler. A frame's life is admit → wait turn → run →
// checkpoint → reply, and at shutdown drain:
//
//   - submit admits the frame against the in-flight bound and appends it to
//     its session's FIFO, starting the session's drainer if none is running;
//   - drain (one goroutine per session with queued work) runs the session's
//     frames one at a time in admission order, each holding one of the
//     Workers slots — so a session's ISM state machine is single-threaded
//     and in order, and at most Workers frames run at once;
//   - process runs the frame, writes its checkpoint, settles the counters
//     and only then replies;
//   - Close flips draining under the same lock submit admits under, then
//     waits for every drainer to run its queue dry.
//
// A frame starts the moment its session is idle and a slot is free.

// workItem is one admitted frame waiting for (or undergoing) processing.
// For preset sessions left/right are nil and runFrame draws the next
// synthetic pair instead.
type workItem struct {
	sess        *session
	left, right *imgproc.Image
	enqueued    time.Time // admitted; the queue stage runs from here to its slot
	reply       chan frameReply
	// wantLeft asks runFrame to capture the (rectified) left view in the
	// reply; cloud responses use it as the points' intensity channel.
	wantLeft bool
}

// frameReply is what process hands back to the blocked HTTP handler.
type frameReply struct {
	res       core.Result
	frame     int // per-session frame index (0-based)
	rung      int // ladder rung the frame was served at (0 = full fidelity)
	stats     stereo.DispStats
	queueWait time.Duration
	compute   time.Duration
	err       error
	// left is the rectified left view of this frame, captured only when the
	// work item asked for it (cloud intensity).
	left *imgproc.Image
}

var (
	errDraining        = errors.New("server is draining")
	errQueueFull       = errors.New("admission queue full")
	errLadderExhausted = errors.New("overloaded: even the cheapest rung cannot meet the session deadline")
)

// submit is the admission window: it refuses the frame with errDraining
// once Close has begun, with errQueueFull or errLadderExhausted past the
// in-flight bound, and otherwise queues it behind its session's earlier
// frames. The reply arrives on it.reply.
//
// Gold frames get the plain QueueDepth bound: at most that many frames in
// the system (queued or running). Best-effort frames may overcommit it —
// degrading drains a backlog far faster than rung-0 service — but once past
// the gold bound they are admitted only while the ladder controller predicts
// some rung can still meet the session's deadline.
func (s *Server) submit(it *workItem) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		s.drained503.Add(1)
		return errDraining
	}
	sess := it.sess
	limit := int64(s.cfg.QueueDepth)
	if sess.slo == quality.BestEffort {
		limit *= bestEffortOvercommit
	}
	cur := s.inflight.Load() + 1
	var err error
	if cur > limit {
		err = errQueueFull
	} else if sess.slo == quality.BestEffort && cur > int64(s.cfg.QueueDepth) {
		if _, admit := s.ctl.Pick(int(cur)-1, s.cfg.Workers, sess.deadlineMs); !admit {
			err = errLadderExhausted
		}
	}
	if err != nil {
		s.rejected.Add(1)
		return err
	}
	s.inflight.Add(1)
	s.accepted.Add(1)
	sess.pendingFrames.Add(1)
	it.enqueued = time.Now()
	sess.queue = append(sess.queue, it)
	if !sess.running {
		sess.running = true
		s.drainers.Add(1)
		go s.drain(sess)
	}
	return nil
}

// drain runs sess's queued frames until none is left. Blocked slot sends
// are served first come, first served, so sessions take turns.
func (s *Server) drain(sess *session) {
	defer s.drainers.Done()
	for {
		s.mu.Lock()
		if len(sess.queue) == 0 {
			sess.running = false
			s.mu.Unlock()
			return
		}
		it := sess.queue[0]
		sess.queue[0] = nil
		sess.queue = sess.queue[1:]
		s.mu.Unlock()

		s.slots <- struct{}{}
		s.mu.Lock()
		busy := int64(len(s.slots))
		s.slotStarts++
		s.slotBusySum += busy
		s.slotBusyMax = max(s.slotBusyMax, busy)
		s.mu.Unlock()
		s.process(it, time.Since(it.enqueued))
		<-s.slots
	}
}

// process runs one frame — the ISM step for its session at its rung,
// key-frame matching or concurrent L/R flow + propagation + refinement, via
// quality.Step, whose rung-0 frame is pipeline.ProcessFrame, the frame
// pipeline.StreamFrames loops over too, so the served frame and the batch
// stream are one frame path observing the same metric stages — and replies.
func (s *Server) process(it *workItem, queueWait time.Duration) {
	rep := frameReply{queueWait: queueWait}
	s.cfg.Metrics.Stage("queue").Observe(queueWait)
	defer func() {
		// A panic on this worker's own goroutine becomes a 500 on this one
		// request; the session's pipeline state is intact because core
		// commits state only after a frame fully succeeds. It covers this
		// goroutine only: a panic on one the frame starts (the right eye's
		// flow in core, par's workers) ends the process, so a pipeline the
		// kernels cannot run is refused before it becomes a session
		// (core.Config.Validate in newSession).
		if r := recover(); r != nil {
			rep.err = fmt.Errorf("internal: frame processing panicked: %v", r)
		}
		// The counters settle before the reply, whether or not a client is
		// still there to read it: whoever has seen frame N's reply also sees
		// it completed and its session quiescent.
		it.sess.pendingFrames.Add(-1)
		s.inflight.Add(-1)
		s.completed.Add(1)
		it.reply <- rep
	}()

	// The checkpoint is encoded inside the run lock (consistent state),
	// written here outside it, and only then is the reply sent: when the
	// cadence is every frame, a client that has seen frame N's reply is
	// guaranteed the spill store holds frame N's state — the invariant the
	// chaos recovery path depends on. The deleted mark is read after the
	// write, so a DELETE that removed the file first is not undone.
	if checkpoint := s.runFrame(it, &rep); checkpoint != nil {
		s.persist(it.sess.id, checkpoint, &s.checkpoints)
		if it.sess.deleted.Load() {
			s.dropSpill(it.sess.id)
		}
	}
}

// runFrame picks the frame's rung and executes it with quality.Step under
// the session's run lock, which serializes the state mutation against
// snapshot encoding. Workers never contend on it (drain runs at most one
// frame per session), so in the steady state it is uncontended. The
// deferred unlock also covers kernel panics, which process turns into a
// 500. Returns the encoded checkpoint when one is due.
func (s *Server) runFrame(it *workItem, rep *frameReply) (checkpoint []byte) {
	it.sess.runMu.Lock()
	defer it.sess.runMu.Unlock()

	left, right := it.left, it.right
	if left == nil {
		left, right = it.sess.preset.frame()
	}
	if err := it.sess.checkGeometry(left, right); err != nil {
		rep.err = badFrameError{err}
		return nil
	}
	// Calibrated sessions rectify every incoming pair before matching —
	// the same rectify.RectifyPair an offline pipeline would run, so the
	// served disparities are bit-identical to rectifying first and serving
	// the rectified pair. Already-rectified rigs (zero rotations) skip the
	// identity warp.
	if calib := it.sess.calib; calib != nil && !calib.Rectified() {
		tr := time.Now()
		left, right = calib.RectifyPair(left, right)
		s.cfg.Metrics.Stage("rectify").Observe(time.Since(tr))
	}
	if it.wantLeft {
		rep.left = left
	}

	// Rung choice (DESIGN.md §12). Gold sessions run rung 0, which is the
	// undegraded ISM frame. Best-effort sessions ask the controller for the
	// cheapest rung predicted to meet their deadline at the current queue
	// depth. Either way the frame runs through quality.Step, the executor
	// the offline pricer scores, so quality_ladder.json prices what is
	// served.
	rung := 0
	if it.sess.slo == quality.BestEffort {
		queued := int(s.inflight.Load()) - 1 // frames waiting behind this one
		rung, _ = s.ctl.Pick(queued, s.cfg.Workers, it.sess.deadlineMs)
	}
	r := s.ladder[rung]
	if r.OP.PyrLevel != it.sess.level {
		// The flow kernels require consecutive frames to agree in size, so
		// a cross-level rung switch restarts the temporal chain; the next
		// frame below recovers with a key frame at the new resolution.
		it.sess.pipe.Reset()
		it.sess.level = r.OP.PyrLevel
	}

	t0 := time.Now()
	pipe := it.sess.pipe
	res := quality.Step(pipe, r, pipe.Config().PW, s.rungMatchers[rung], left, right, s.cfg.Metrics)
	rep.compute = time.Since(t0)
	rep.res = res
	rep.rung = rung
	rep.frame = int(it.sess.frames.Add(1)) - 1
	if res.IsKey {
		it.sess.keyFrames.Add(1)
	}
	rep.stats = stereo.DisparityStats(res.Disparity)
	it.sess.touch()

	// Every completed frame trains the controller's latency model for the
	// rung it ran at — gold traffic keeps rung 0 priced even when no
	// best-effort session is degraded.
	s.ctl.Observe(rung, float64(rep.compute)/1e6)
	s.rungServed[rung].Add(1)
	it.sess.lastRung.Store(int64(rung))
	if rung > 0 {
		s.degradedTotal.Add(1)
		it.sess.degradedFrames.Add(1)
	}

	if n := s.cfg.CheckpointEvery; n > 0 && s.cfg.SpillDir != "" && (rep.frame+1)%n == 0 {
		checkpoint = EncodeSnapshot(s.snapshotLocked(it.sess))
	}
	return checkpoint
}

// badFrameError marks client-caused frame failures (geometry mismatch) so
// the handler maps them to 422 instead of 500.
type badFrameError struct{ error }
