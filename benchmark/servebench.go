package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	"asv/internal/cluster"
	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/metrics"
	"asv/internal/perception"
	"asv/internal/quality"
	"asv/internal/rectify"
	"asv/internal/serve"
	"asv/internal/stereo"
)

// Shares of -seconds. Untraced: a paced segment for latency, then a
// saturation segment for throughput. Traced: the paced segment again with
// spans on and, on the cluster workload, a paced segment straight at the
// shards.
const (
	pacedShare      = 0.65
	saturationShare = 0.35
	directShare     = 0.25
)

// satBlock is the block size of the saturation throughput estimate, per
// session: two PW-4 periods.
const satBlock = 8

// serveBench is a set-up serve workload: servers on loopback, sessions
// created, one client per session.
type serveBench struct {
	sp       spec
	calib    *perception.Calibration
	servers  []*serve.Server
	regs     []*metrics.Registry
	gateway  *cluster.Gateway
	base     string // what the clients talk to
	spillDir string
	clients  []*client
}

// client is one session's generator state. It is used from one goroutine.
type client struct {
	session int
	id      string
	base    string
	direct  string // the owning shard, for the gateway-hop comparison
	sp      spec
	http    *http.Client
	clip    *clip
	oracle  *oracle // nil on the best-effort workload
	next    int

	bad3Sum float64 // best-effort: scored from the decoded replies
	bad3N   int
}

func setupServe(sp spec, seed int64, outDir string) (b *serveBench, err error) {
	b = &serveBench{sp: sp}
	defer func() {
		if err != nil {
			//asvlint:ignore droppederr the set-up error is the one worth reporting
			b.close()
		}
	}()
	if sp.Cluster {
		if b.calib, err = benchCalibration(sp.W, sp.H); err != nil {
			return b, err
		}
	}
	matcher, _ := matcherFor(sp)
	shards := 1
	if sp.Cluster {
		shards = 2
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return b, err
		}
		if b.spillDir, err = os.MkdirTemp(outDir, "spill-"); err != nil {
			return b, err
		}
	}
	var urls []string
	for i := 0; i < shards; i++ {
		cfg := serve.DefaultConfig()
		if sp.Cluster {
			cfg.SpillDir, cfg.CheckpointEvery = b.spillDir, 1
		}
		srv := serve.New(matcher, cfg)
		b.servers, b.regs = append(b.servers, srv), append(b.regs, cfg.Metrics)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return b, err
		}
		urls = append(urls, "http://"+addr.String())
	}
	b.base = urls[0]
	var ring *cluster.Ring
	names := []string{"shard0", "shard1"}
	if sp.Cluster {
		gw, err := cluster.New(cluster.Config{Shards: []cluster.Shard{{Name: names[0], URL: urls[0]}, {Name: names[1], URL: urls[1]}}})
		if err != nil {
			return b, err
		}
		b.gateway = gw
		addr, err := gw.Start("127.0.0.1:0")
		if err != nil {
			return b, err
		}
		b.base = "http://" + addr.String()
		ring = cluster.NewRing(names, cluster.DefaultReplicas)
	}

	for i := 0; i < sessions; i++ {
		c := &client{session: i, id: fmt.Sprintf("bench-%d", i), base: b.base, direct: urls[0], sp: sp}
		// One connection per session, kept alive across frames.
		c.http = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		b.clients = append(b.clients, c)
		if c.clip, err = makeClip(sp, seed, i, b.calib); err != nil {
			return b, err
		}
		if sp.SLO == "gold" {
			c.oracle = runOracle(sp, c.clip, b.calib)
		}
		if ring != nil {
			// Choose an id the ring places on shard i, so the two sessions
			// never share a shard by luck of the hash.
			for k := 0; ring.Owner(c.id) != names[i%2]; k++ {
				c.id = fmt.Sprintf("bench-%d-%d", i, k)
			}
			c.direct = urls[i%2]
		}
		if err := c.create(b.calib); err != nil {
			return b, err
		}
	}
	return b, nil
}

func (c *client) create(calib *perception.Calibration) error {
	req := serve.CreateSessionRequest{ID: c.id, PW: c.sp.PW, SLO: c.sp.SLO, DeadlineMs: c.sp.DeadlineMs}
	if calib != nil {
		req.Calibration = calib.EncodeJSON()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("creating session %s: %w", c.id, err)
	}
	msg, err := io.ReadAll(resp.Body)
	//asvlint:ignore droppederr the body has been read in full; a close error changes nothing
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("creating session %s: status %d, %v: %s", c.id, resp.StatusCode, err, msg)
	}
	return nil
}

// close drains the servers and removes the spill directory.
func (b *serveBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range b.clients {
		c.http.CloseIdleConnections()
	}
	if b.gateway != nil {
		keep(b.gateway.Close(ctx))
	}
	for _, s := range b.servers {
		keep(s.Close(ctx))
	}
	if b.spillDir != "" {
		keep(os.RemoveAll(b.spillDir))
	}
	return first
}

// send submits the session's next frame and reads the whole reply. The
// first oracleFrames replies of a session are checked against the oracle;
// later ones only for status, framing and size.
func (c *client) send() (int, reply) {
	frame := c.next
	c.next++
	up := c.clip.uploads[pingPong(frame, clipFrames)]
	rep := reply{upBytes: len(up.body)}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/sessions/"+c.id+"/frames"+c.sp.Query, bytes.NewReader(up.body))
	if err != nil {
		return frame, rep
	}
	req.Header.Set("Content-Type", up.contentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return frame, rep
	}
	body, err := io.ReadAll(resp.Body)
	//asvlint:ignore droppederr the body has been read in full; a close error changes nothing
	resp.Body.Close()
	rep.downBytes = len(body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return frame, rep
	}
	rep.rung = resp.Header.Get("X-ASV-Rung")
	rep.degraded = resp.Header.Get("X-ASV-Degraded") == "true"
	rep.ok = c.accept(frame, resp.Header, body, &rep)
	return frame, rep
}

// accept parses one 200 reply and, for an oracle-checked frame, compares it.
func (c *client) accept(frame int, hdr http.Header, body []byte, rep *reply) bool {
	checked := frame < oracleFrames
	switch c.sp.Query {
	case "":
		var fr serve.FrameResponse
		if err := json.Unmarshal(body, &fr); err != nil || fr.Frame != frame {
			return false
		}
		rep.isKey, rep.queueMs, rep.computeMs = fr.IsKey, fr.QueueMs, fr.ComputeMs
		return !checked || (fr.Disparity == c.oracle.stats[frame] && fr.IsKey == c.oracle.isKey[frame])
	case "?cloud=bin":
		rep.isKey = hdr.Get("X-ASV-Is-Key") == "true"
		n, err := strconv.Atoi(hdr.Get("X-ASV-Points"))
		if err != nil {
			return false
		}
		rep.points = n
		return !checked || bytes.Equal(body, c.oracle.cloud[frame])
	default: // ?disparity=pfm, best effort: no oracle, but it must decode and fit
		rep.isKey = hdr.Get("X-ASV-Is-Key") == "true"
		if !checked {
			return len(body) > c.sp.W*c.sp.H*4
		}
		disp, err := imgproc.ReadPFM(bytes.NewReader(body))
		if err != nil || disp.W != c.sp.W || disp.H != c.sp.H {
			return false
		}
		c.bad3Sum += stereo.ThreePixelError(disp, c.clip.gt[pingPong(frame, clipFrames)])
		c.bad3N++
		return true
	}
}

// pacedAll and saturateAll run every session's generator at once. Sessions
// are offset by half a period so that the two schedules interleave. pacedAll
// returns when dur is over and every reply is in, so that one call after
// another keeps the rate.
func (b *serveBench) pacedAll(dur time.Duration, tr *tracer) [][]shot {
	period := time.Duration(float64(time.Second) / b.sp.RateFPS)
	start := time.Now().Add(2 * time.Millisecond)
	shots := eachSession(len(b.clients), func(i int) []shot {
		shots := paced(i, b.clients[i], start, time.Duration(i)*period/sessions, period, dur)
		traceShots(tr, shots)
		return shots
	})
	time.Sleep(time.Until(start.Add(dur)))
	return shots
}

func (b *serveBench) saturateAll(dur time.Duration) [][]shot {
	until := time.Now().Add(dur)
	return eachSession(len(b.clients), func(i int) []shot { return closedLoop(i, b.clients[i], until) })
}

// traceShots turns one session's shots into spans: request (due to done)
// over gen.late and http, and inside http the queue and compute times the
// server reported. Those two carry real durations but are laid end to end
// against the end of http, since the server reports no timestamps; what is
// left of http is serve.overhead.
func traceShots(tr *tracer, shots []shot) {
	if tr == nil {
		return
	}
	for _, s := range shots {
		req := tr.add("request", 0, s.session, s.frame, s.from(), s.done)
		if !s.due.IsZero() {
			tr.add("gen.late", req, s.session, s.frame, s.due, s.sent)
		}
		h := tr.add("http", req, s.session, s.frame, s.sent, s.done)
		if s.rep.ok && s.rep.computeMs > 0 {
			compute := s.done.Add(-time.Duration(s.rep.computeMs * 1e6))
			queue := compute.Add(-time.Duration(s.rep.queueMs * 1e6))
			tr.add("serve.queue", h, s.session, s.frame, queue, compute)
			tr.add("serve.compute", h, s.session, s.frame, compute, s.done)
		}
	}
}

// tally folds shots into the run's attempted/failed counts.
func tally(r *runResult, groups ...[][]shot) {
	for _, g := range groups {
		for _, shots := range g {
			for _, s := range shots {
				r.Attempted++
				if !s.rep.ok {
					r.Failed++
				}
			}
		}
	}
}

func flatten(g [][]shot) []shot {
	var out []shot
	for _, shots := range g {
		out = append(out, shots...)
	}
	return out
}

// completionGaps is what each completed frame of one session's closed loop
// cost in wall time: the gap since the previous completion, or since the
// first send. The saturation throughput is, per session, the median rate
// over blocks of satBlock of these; summed over sessions.
func completionGaps(shots []shot) []float64 {
	if len(shots) == 0 {
		return nil
	}
	var gapMs []float64
	edge := shots[0].sent
	for _, s := range shots {
		if s.rep.ok {
			gapMs = append(gapMs, float64(s.done.Sub(edge))/1e6)
			edge = s.done
		}
	}
	return gapMs
}

func runServe(sp spec, o options, h *hostCal) (*runResult, error) {
	r := newResult(sp, o)
	b, setupS, err := timedSetup(h, o.repeatSetup(),
		func() (*serveBench, error) { return setupServe(sp, o.seed, o.outDir) },
		(*serveBench).close)
	if err != nil {
		return nil, err
	}
	warm := b.saturateAll(o.warmup())
	if o.trace {
		err = b.traced(r, o, h, warm)
	} else {
		b.measure(r, o, h, warm, setupS)
	}
	if cerr := b.close(); err == nil {
		err = cerr
	}
	return r, err
}

// bad3 is the accuracy of the first oracleFrames frames per session: from
// the oracle on gold sessions (whose replies were checked to equal it),
// from the decoded replies on best-effort ones.
func (b *serveBench) bad3() float64 {
	var sum float64
	for _, c := range b.clients {
		if c.oracle != nil {
			sum += c.oracle.bad3
		} else if c.bad3N > 0 {
			sum += c.bad3Sum / float64(c.bad3N)
		}
	}
	return sum / float64(len(b.clients))
}

func (b *serveBench) measure(r *runResult, o options, h *hostCal, warm [][]shot, setupS float64) {
	sp := b.sp
	r.Segments["paced"], r.Segments["saturation"] = o.part(pacedShare).Seconds(), o.part(saturationShare).Seconds()
	tally(r, warm)

	// Paced, slice by slice: each slice restarts the schedule and the
	// sessions carry on where they were.
	var lat []float64
	sent := 0
	cpuMs := h.sliced(o.part(pacedShare), func(d time.Duration) [][]float64 {
		shots := b.pacedAll(d, nil)
		tally(r, shots)
		n := len(lat)
		for _, s := range flatten(shots) {
			sent++
			if s.rep.ok {
				lat = append(lat, s.latencyMs())
			}
		}
		return [][]float64{lat[n:]}
	})
	// Saturation likewise; each session's gaps between completions are
	// strung together over the slices.
	gapMs := make([][]float64, len(b.clients))
	cpuMs += h.sliced(o.part(saturationShare), func(d time.Duration) [][]float64 {
		sat := b.saturateAll(d)
		tally(r, sat)
		times := make([][]float64, len(sat))
		for i, shots := range sat {
			n := len(gapMs[i])
			gapMs[i] = append(gapMs[i], completionGaps(shots)...)
			times[i] = gapMs[i][n:]
		}
		return times
	})
	r.HostCalMs = h.take()

	within := 0
	for _, ms := range lat {
		if ms <= sp.LimitMs {
			within++
		}
	}
	completed := len(lat)
	var fps float64
	for _, gaps := range gapMs {
		fps += steadyRate(gaps, satBlock)
		completed += len(gaps)
	}

	r.Samples = len(lat)
	m := r.Metrics
	m["setup_s"] = setupS
	m["throughput_fps"] = fps
	m["latency_p50_ms"] = median(lat)
	m["latency_p95_ms"] = percentile(lat, 0.95)
	m["within_limit_frac"] = float64(within) / float64(max(sent, 1))
	m["bad3_pct"] = b.bad3()
	// The generator runs in this process, so its CPU is in here too.
	m["cpu_ms_per_frame"] = cpuMs / float64(max(completed, 1))
	m["peak_rss_mb"] = readUsage().maxRSSMB
	for _, c := range b.clients {
		if c.next < oracleFrames {
			r.note("session %d sent only %d of the %d oracle-checked frames", c.session, c.next, oracleFrames)
		}
	}
	r.finish()
}

// stageCount is a server metric stage's running total, summed over the
// shards' registries; meanSince is its mean in ms since an earlier reading.
type stageCount struct {
	total time.Duration
	n     int64
}

func (b *serveBench) stage(name string) stageCount {
	var sc stageCount
	for _, reg := range b.regs {
		st := reg.Stage(name)
		sc.total += st.Total()
		sc.n += st.Count()
	}
	return sc
}

func (sc stageCount) meanSince(before stageCount) float64 {
	if sc.n == before.n {
		return 0
	}
	return float64(sc.total-before.total) / 1e6 / float64(sc.n-before.n)
}

// counters reads one serve counter from every shard.
func (b *serveBench) counters(name string) []float64 {
	var out []float64
	for _, s := range b.servers {
		switch v := s.CountersSnapshot()[name].(type) {
		case int64:
			out = append(out, float64(v))
		case int:
			out = append(out, float64(v))
		case float64:
			out = append(out, v)
		}
	}
	return out
}

// stageNames are the server's metric stages and the per-layer metric each
// feeds. Only Total and Count are read: Stage.Quantile rounds to
// power-of-two bucket edges.
var stageNames = map[string]string{
	"queue":            "serve.queue_ms",
	"frame":            "serve.compute_ms",
	"keymatch":         "serve.keymatch_ms",
	"flow":             "serve.flow_ms",
	"propagate+refine": "serve.refine_ms",
	"rectify":          "serve.rectify_ms",
}

// traced is the second run of a serve workload.
func (b *serveBench) traced(r *runResult, o options, h *hostCal, warm [][]shot) error {
	sp := b.sp
	m := r.Metrics
	r.Segments["paced_traced"] = o.part(pacedShare).Seconds()
	// The spans are put together after the segment, from timestamps the
	// generator takes in any case, so tracing adds nothing to the load and
	// trace.overhead_frac stays 0.
	tr := newTracer()

	before := make(map[string]stageCount, len(stageNames))
	for name := range stageNames {
		before[name] = b.stage(name)
	}
	gets0, hits0, _ := imgproc.PoolStats()
	mem0 := readMem()
	h.burst()
	pacedShots := b.pacedAll(o.part(pacedShare), tr)
	h.burst()
	r.HostCalMs = h.take()
	mem := memSince(mem0)
	gets1, hits1, _ := imgproc.PoolStats()
	tally(r, warm, pacedShots)

	spans := tr.all()
	if _, err := writeTrace(o.outDir, sp.Name, spans); err != nil {
		return err
	}
	for name, metric := range stageNames {
		m[metric] = b.stage(name).meanSince(before[name])
	}

	var httpMs, nonKeyHTTPMs, lateMs, queueMs, computeMs, keyMs, nonMs []float64
	var up, down, points, bottom, degraded, ok float64
	ladder := quality.DefaultLadder()
	for _, s := range flatten(pacedShots) {
		lateMs = append(lateMs, s.lateMs())
		if !s.rep.ok {
			continue
		}
		ok++
		http := float64(s.done.Sub(s.sent)) / 1e6
		httpMs = append(httpMs, http)
		up, down, points = up+float64(s.rep.upBytes), down+float64(s.rep.downBytes), points+float64(s.rep.points)
		if s.rep.rung == ladder[len(ladder)-1].Name {
			bottom++
		}
		if s.rep.degraded {
			degraded++
		}
		if s.rep.isKey {
			m["core.key_frames"]++
			keyMs = append(keyMs, s.rep.computeMs)
		} else {
			m["core.nonkey_frames"]++
			nonMs = append(nonMs, s.rep.computeMs)
			nonKeyHTTPMs = append(nonKeyHTTPMs, http)
		}
		if sp.Query == "" {
			queueMs, computeMs = append(queueMs, s.rep.queueMs), append(computeMs, s.rep.computeMs)
		}
	}
	r.Samples = len(httpMs)
	// serve.overhead is what the client saw beyond the queue and compute
	// the server accounts for: transport, decode, encode, write — and, where
	// the "frame" stage does not cover them, pyramid, rectify, reproject and
	// checkpoint. JSON replies carry both per request, so the residual is
	// each http span's self time; otherwise it is a difference of means over
	// the same frames (means add up, medians of a two-mode latency do not).
	if len(queueMs) > 0 {
		m["serve.queue_ms"], m["serve.queue_p95_ms"] = median(queueMs), percentile(queueMs, 0.95)
		m["serve.compute_ms"] = median(computeMs)
		m["serve.overhead_ms"] = median(selfMs(spans)["http"])
		if median(keyMs) > 0 {
			m["core.nonkey_key_ratio"] = median(nonMs) / median(keyMs)
		}
	} else {
		m["serve.overhead_ms"] = max(mean(httpMs)-m["serve.queue_ms"]-m["serve.compute_ms"], 0)
	}
	if ok > 0 {
		m["serve.upload_bytes"], m["serve.reply_bytes"] = up/ok, down/ok
		m["perception.cloud_points"] = points / ok
		m["quality.bottom_rung_frac"], m["quality.degraded_frac"] = bottom/ok, degraded/ok
		m["runtime.alloc_kb_per_frame"] = mem.allocKB / ok
	}
	m["runtime.gc_cycles"], m["runtime.gc_pause_ms"] = mem.gcCycles, mem.gcPauseMs
	m["gen.late_p95_ms"] = percentile(lateMs, 0.95)
	m["trace.frame_cover_frac"] = coverFrac(spans, "request")
	if gets1 > gets0 {
		m["imgproc.pool_hit_frac"] = float64(hits1-hits0) / float64(gets1-gets0)
	}
	// Over the shards: events add up, the batch sizes do not.
	for _, name := range []string{"rejected_429", "checkpoints", "spill_errors"} {
		m["serve."+name] = sum(b.counters(name))
	}
	m["serve.batch_mean_frames"] = mean(b.counters("batch_mean_frames"))
	m["serve.batch_max_frames"] = slices.Max(b.counters("batch_max_frames"))
	if sp.Cluster {
		if err := b.clusterLayer(r, o, median(nonKeyHTTPMs)); err != nil {
			return err
		}
	}
	b.probes(m)

	if sp.SLO == "besteffort" && m["quality.bottom_rung_frac"] < 0.97 {
		r.note("only %.3f of the paced frames ran at the bottom rung: the workload is not measuring what it says", m["quality.bottom_rung_frac"])
	}
	if m["gen.late_p95_ms"] > 5 {
		r.note("generator ran %.2f ms late at p95: the paced latencies include a starved generator", m["gen.late_p95_ms"])
	}
	r.finish()
	return nil
}

// clusterLayer measures what the gateway adds — the median non-key http time
// through it against the same paced traffic sent straight at each session's
// shard — then the shard balance, the gateway's own error count and the
// snapshot codec.
func (b *serveBench) clusterLayer(r *runResult, o options, viaGatewayMs float64) error {
	m := r.Metrics
	r.Segments["paced_direct"] = o.part(directShare).Seconds()
	for _, c := range b.clients {
		c.base = c.direct
	}
	direct := b.pacedAll(o.part(directShare), nil)
	for _, c := range b.clients {
		c.base = b.base
	}
	tally(r, direct)
	// Non-key frames only, on both sides: the median of a mix of key and
	// non-key frames moves with the mix.
	var directMs []float64
	for _, s := range flatten(direct) {
		if s.rep.ok && !s.rep.isKey {
			directMs = append(directMs, float64(s.done.Sub(s.sent))/1e6)
		}
	}
	m["cluster.hop_ms"] = viaGatewayMs - median(directMs)

	done := b.counters("frames_completed")
	if len(done) == 2 && done[0]+done[1] > 0 {
		m["cluster.shard_skew"] = max(done[0]-done[1], done[1]-done[0]) / (done[0] + done[1])
	}

	resp, err := b.clients[0].http.Get(b.base + "/metrics")
	if err != nil {
		return fmt.Errorf("reading gateway metrics: %w", err)
	}
	var gw struct {
		ProxyErrors float64 `json:"proxy_errors"`
	}
	err = json.NewDecoder(resp.Body).Decode(&gw)
	//asvlint:ignore droppederr the decode error is the one that matters
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding gateway metrics: %w", err)
	}
	m["cluster.proxy_errors"] = gw.ProxyErrors

	// Snapshot codec: fetch one session's snapshot through the gateway, then
	// time the codec alone.
	resp, err = b.clients[0].http.Get(b.base + "/v1/sessions/" + b.clients[0].id + "/snapshot")
	if err != nil {
		return fmt.Errorf("fetching snapshot: %w", err)
	}
	buf, err := io.ReadAll(resp.Body)
	//asvlint:ignore droppederr the body has been read in full; a close error changes nothing
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching snapshot: status %d, %v", resp.StatusCode, err)
	}
	snap, err := serve.DecodeSnapshot(buf, decodeLimit)
	if err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}
	m["serve.snapshot_bytes"] = float64(len(buf))
	m["serve.snapshot_decode_ms"] = probe(50, 200*time.Millisecond, func() {
		//asvlint:ignore droppederr the same bytes decoded cleanly just above
		serve.DecodeSnapshot(buf, decodeLimit)
	})
	m["serve.snapshot_encode_ms"] = probe(50, 200*time.Millisecond, func() { serve.EncodeSnapshot(snap) })
	return nil
}

// probes time single calls into the modules a serve workload leans on,
// after the load, on session 0's inputs.
func (b *serveBench) probes(m map[string]float64) {
	const n, budget = 50, 200 * time.Millisecond
	sp, c := b.sp, b.clients[0]
	up := c.clip.uploads[0]
	decode := func() {
		for _, part := range [][]byte{up.left, up.right} {
			//asvlint:ignore droppederr these bytes decoded cleanly during set-up
			decodePart(sp.Upload, part)
		}
	}
	m["imgproc.decode_"+sp.Upload+"_ms"] = probe(n, budget, decode)

	if b.calib != nil {
		raw, in := c.clip.raw[0], c.clip.in[0]
		m["rectify.pair_ms"] = probe(n, budget, func() {
			rectify.RectifyPair(raw.left, raw.right, b.calib.Intrinsics(), b.calib.RotLeft(), b.calib.RotRight())
		})
		disp := c.oracle.disp[0]
		m["perception.reproject_ms"] = probe(n, budget, func() { perception.Reproject(disp, in.left, b.calib) })
		cloud := perception.Reproject(disp, in.left, b.calib)
		m["perception.encode_cloud_ms"] = probe(n, budget, func() { perception.EncodeCloud(cloud) })
	}

	if sp.SLO == "besteffort" {
		// Replay the bottom rung the way the server runs it.
		ladder := quality.DefaultLadder()
		rung := ladder[len(ladder)-1]
		top, cfg := matcherFor(sp)
		matcher := rung.BuildMatcher(top)
		p := core.New(top, cfg)
		frame := 0
		m["quality.step_ms"] = probe(n, budget, func() {
			in := c.clip.in[pingPong(frame, clipFrames)]
			frame++
			quality.Step(p, rung, sp.PW, matcher, in.left, in.right, nil)
		})
		in := c.clip.in[0]
		small := quality.DownsampleInput(in.left, rung.OP.PyrLevel)
		m["quality.pyramid_ms"] = probe(n, budget, func() {
			quality.DownsampleInput(in.left, rung.OP.PyrLevel)
			quality.DownsampleInput(in.right, rung.OP.PyrLevel)
			quality.UpsampleDisparity(small, sp.W, sp.H, rung.OP.PyrLevel)
		})
	}
}
