package main

import (
	"sync"
	"time"

	"asv/internal/core"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/pipeline"
	"asv/internal/stereo"
)

// blockFrames is the block size of the throughput estimate: a whole number
// of PW-4 periods, so every block holds the same mix of key and non-key
// frames.
const blockFrames = 16

// offlineBench is a set-up offline workload: one caller, one clip, and the
// oracle of its first frames.
type offlineBench struct {
	sp      spec
	clip    *clip
	oracle  *oracle
	matcher core.KeyMatcher
	cfg     core.Config
}

func setupOffline(sp spec, seed int64) (*offlineBench, error) {
	c, err := makeClip(sp, seed, 0, nil)
	if err != nil {
		return nil, err
	}
	b := &offlineBench{sp: sp, clip: c}
	b.matcher, b.cfg = matcherFor(sp)
	b.oracle = runOracle(sp, c, nil)
	return b, nil
}

// stream is one pipeline being fed the clip frame by frame.
type stream struct {
	b    *offlineBench
	p    *core.Pipeline
	next int
	tr   *tracer

	// Per measured frame.
	latMs []float64
	isKey []bool
	macs  []int64

	attempted, failed int
}

func (b *offlineBench) newStream(tr *tracer) *stream {
	return &stream{b: b, p: core.New(b.matcher, b.cfg), tr: tr}
}

// run feeds frames for dur. With record off (warm-up) only the correctness
// tally is kept.
func (s *stream) run(dur time.Duration, record bool) {
	until := time.Now().Add(dur)
	for time.Now().Before(until) {
		frame := s.next
		s.next++
		in := s.b.clip.in[pingPong(frame, clipFrames)]
		t0 := time.Now()
		res := s.step(in, frame)
		t1 := time.Now()
		s.attempted++
		if frame < oracleFrames && !sameBits(res.Disparity, s.b.oracle.disp[frame]) {
			s.failed++
		}
		if record {
			s.latMs = append(s.latMs, float64(t1.Sub(t0))/1e6)
			s.isKey = append(s.isKey, res.IsKey)
			s.macs = append(s.macs, res.MACs)
		}
	}
}

// step is one frame. Untraced it is the program's own entry point; traced
// it is the same calls unrolled into their public pieces, each in a span,
// and must give bit-identical disparities (the first oracleFrames are
// checked either way).
func (s *stream) step(in pair, frame int) core.Result {
	if s.tr == nil {
		return pipeline.ProcessFrame(s.p, s.b.matcher, in.left, in.right, nil)
	}
	p, tr, m := s.p, s.tr, s.b.matcher
	t0 := time.Now()
	id := tr.open("frame", 0, 0, frame, t0)
	var res core.Result
	if p.NextIsKey() {
		disp := m.Match(in.left, in.right)
		t1 := time.Now()
		tr.add("stereo.keymatch", id, 0, frame, t0, t1)
		res = p.ProcessKey(in.left, in.right, disp, m.MACs(in.left.W, in.left.H))
		tr.add("core.commit_key", id, 0, frame, t1, time.Now())
	} else {
		me := p.Config().MotionSource()
		prevL, prevR := p.PrevFrames()
		pairID := tr.open("flow.pair", id, 0, frame, t0)
		var fr flow.Field
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r0 := time.Now()
			fr = me.Estimate(prevR, in.right)
			tr.add("flow.right", pairID, 0, frame, r0, time.Now())
		}()
		fl := me.Estimate(prevL, in.left)
		tr.add("flow.left", pairID, 0, frame, t0, time.Now())
		wg.Wait()
		t1 := time.Now()
		tr.close(pairID, t1)
		res = p.ProcessNonKeyWith(in.left, in.right, fl, fr)
		tr.add("core.nonkey_commit", id, 0, frame, t1, time.Now())
	}
	tr.close(id, time.Now())
	return res
}

// fps is the median rate over blocks of blockFrames measured frames.
func (s *stream) fps() float64 { return steadyRate(s.latMs, blockFrames) }

func runOffline(sp spec, o options, h *hostCal) (*runResult, error) {
	r := newResult(sp, o)
	b, setupS, err := timedSetup(h, o.repeatSetup(),
		func() (*offlineBench, error) { return setupOffline(sp, o.seed) },
		func(*offlineBench) error { return nil })
	if err != nil {
		return nil, err
	}
	if o.trace {
		return r, b.traced(r, o, h)
	}

	s := b.newStream(nil)
	s.run(o.warmup(), false)
	r.Segments["measure"] = o.seconds
	cpuMs := h.sliced(o.part(1), func(d time.Duration) [][]float64 {
		n := len(s.latMs)
		s.run(d, true)
		return [][]float64{s.latMs[n:]}
	})
	r.HostCalMs = h.take()

	within := 0
	for _, ms := range s.latMs {
		if ms <= sp.LimitMs {
			within++
		}
	}
	frames := len(s.latMs)
	r.Attempted, r.Failed, r.Samples = s.attempted, s.failed, frames
	r.Metrics["setup_s"] = setupS
	r.Metrics["throughput_fps"] = s.fps()
	r.Metrics["latency_p50_ms"] = median(s.latMs)
	r.Metrics["latency_p95_ms"] = percentile(s.latMs, 0.95)
	r.Metrics["within_limit_frac"] = float64(within) / float64(max(frames, 1))
	r.Metrics["bad3_pct"] = b.oracle.bad3
	r.Metrics["cpu_ms_per_frame"] = cpuMs / float64(max(frames, 1))
	r.Metrics["peak_rss_mb"] = readUsage().maxRSSMB
	if s.next < oracleFrames {
		r.note("only %d of the %d oracle-checked frames ran", s.next, oracleFrames)
	}
	r.finish()
	return r, nil
}

// traced is the second run of an offline workload: an untraced reference
// stream and the traced stream, taking turns so that a drift of the host's
// speed falls on both and the difference between them is the tracing
// overhead; then the probes.
func (b *offlineBench) traced(r *runResult, o options, h *hostCal) error {
	const rounds, refShare, tracedShare = 3, 0.4, 0.4
	sp := b.sp
	ref := b.newStream(nil)
	ref.run(o.warmup(), false)
	tr := newTracer()
	s := b.newStream(tr)
	r.Segments["reference"], r.Segments["traced"] = o.part(refShare).Seconds(), o.part(tracedShare).Seconds()
	var mem memDelta
	var gets, hits int64
	h.burst()
	for i := 0; i < rounds; i++ {
		ref.run(o.part(refShare/rounds), true)
		gets0, hits0, _ := imgproc.PoolStats()
		mem0 := readMem()
		s.run(o.part(tracedShare/rounds), true)
		mem = mem.plus(memSince(mem0))
		gets1, hits1, _ := imgproc.PoolStats()
		gets, hits = gets+gets1-gets0, hits+hits1-hits0
		h.burst()
	}
	r.HostCalMs = h.take()

	spans := tr.all()
	if _, err := writeTrace(o.outDir, sp.Name, spans); err != nil {
		return err
	}
	dur := durations(spans)
	px := float64(sp.W * sp.H)
	m := r.Metrics
	m["stereo.keymatch_ms"] = median(dur["stereo.keymatch"])
	m["stereo.keymatch_ns_per_px_disp"] = m["stereo.keymatch_ms"] * 1e6 / (px * float64(sp.MaxDisp+1))
	m["flow.pair_ms"] = median(dur["flow.pair"])
	m["flow.single_ms"] = median(append(dur["flow.left"], dur["flow.right"]...))
	m["flow.ns_per_px"] = m["flow.single_ms"] * 1e6 / px
	m["core.nonkey_commit_ms"] = median(dur["core.nonkey_commit"])

	var keyMs, nonMs, macs []float64
	var keyMACs, nonMACs float64
	for i, ms := range s.latMs {
		macs = append(macs, float64(s.macs[i]))
		if s.isKey[i] {
			keyMs, keyMACs = append(keyMs, ms), float64(s.macs[i])
		} else {
			nonMs, nonMACs = append(nonMs, ms), float64(s.macs[i])
		}
	}
	m["core.key_frames"] = float64(len(keyMs))
	m["core.nonkey_frames"] = float64(len(nonMs))
	m["core.mmacs_per_frame"] = mean(macs) / 1e6
	if keyMACs > 0 {
		m["core.ns_per_mac_key"] = median(keyMs) * 1e6 / keyMACs
	}
	if nonMACs > 0 {
		m["core.ns_per_mac_nonkey"] = median(nonMs) * 1e6 / nonMACs
		m["core.nonkey_key_ratio"] = median(nonMs) / median(keyMs)
	}
	if gets > 0 {
		m["imgproc.pool_hit_frac"] = float64(hits) / float64(gets)
	}
	frames := float64(max(len(s.latMs), 1))
	m["runtime.alloc_kb_per_frame"] = mem.allocKB / frames
	m["runtime.gc_cycles"] = mem.gcCycles
	m["runtime.gc_pause_ms"] = mem.gcPauseMs
	m["trace.frame_cover_frac"] = coverFrac(spans, "frame")
	refFPS, tracedFPS := ref.fps(), s.fps()
	if refFPS > 0 {
		m["trace.overhead_frac"] = 1 - tracedFPS/refFPS
	}

	// Probe: the guided refine alone, on an oracle frame and its own
	// disparity, so that propagate can be read as commit minus refine.
	if sp.PW > 1 {
		in, init := b.clip.in[pingPong(oracleFrames-1, clipFrames)], b.oracle.disp[oracleFrames-1]
		m["stereo.refine_ms"] = probe(20, 300*time.Millisecond, func() {
			stereo.Refine(in.left, in.right, init, b.cfg.RefineR, b.cfg.BM)
		})
		m["core.propagate_ms"] = max(m["core.nonkey_commit_ms"]-m["stereo.refine_ms"], 0)
	}

	// One streaming pass against the serial loop, where there is a non-key
	// stage to overlap.
	if sp.Name == "offline_ism" && refFPS > 0 {
		n := 24
		if o.smoke {
			n = 8
		}
		batch := make([]pipeline.Frame, n)
		for i := range batch {
			in := b.clip.in[pingPong(i, clipFrames)]
			batch[i] = pipeline.Frame{Left: in.left, Right: in.right}
		}
		t0 := time.Now()
		out := pipeline.StreamFrames(b.matcher, b.cfg, batch, pipeline.Options{})
		m["pipeline.stream_fps"] = float64(len(out)) / time.Since(t0).Seconds()
		m["pipeline.stream_speedup_x"] = m["pipeline.stream_fps"] / refFPS
		s.attempted += len(out)
		for i, res := range out {
			if i < oracleFrames && !sameBits(res.Disparity, b.oracle.disp[i]) {
				s.failed++
			}
		}
	}

	r.Attempted, r.Failed = ref.attempted+s.attempted, ref.failed+s.failed
	r.Samples = len(s.latMs)
	if m["trace.frame_cover_frac"] < 0.95 {
		r.note("child spans cover only %.3f of the frame span", m["trace.frame_cover_frac"])
	}
	if m["trace.overhead_frac"] >= 0.05 {
		r.note("tracing overhead %.3f >= 0.05: traced numbers are inflated", m["trace.overhead_frac"])
	}
	r.finish()
	return nil
}
