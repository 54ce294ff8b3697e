// Package loadgen replays synthetic stereo streams against a live depth
// server (internal/serve, or a cluster gateway in front of its shards) at a
// target aggregate QPS and reports latency percentiles and outcome counts.
// It is a client of serve's wire types only. cmd/asvload wraps it for the
// command line, including cluster mode, which fans the same workload out
// over several endpoints and reports aggregate percentiles.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/perception"
	"asv/internal/rectify"
	"asv/internal/serve"
)

// Config parameterizes one load run.
type Config struct {
	BaseURL  string  `json:"base_url"` // e.g. "http://127.0.0.1:8080"
	Sessions int     `json:"sessions"` // concurrent sessions to drive
	Frames   int     `json:"frames"`   // frames submitted per session
	QPS      float64 `json:"qps"`      // aggregate target rate (0 = as fast as possible)
	W        int     `json:"w"`
	H        int     `json:"h"`
	PW       int     `json:"pw"`
	Preset   string  `json:"preset"` // "sceneflow" or "kitti"
	Seed     int64   `json:"seed"`
	// Upload ships PGM-encoded frames in the request body instead of using
	// server-side preset sessions — exercises the decode path at the price
	// of client-side encoding.
	Upload bool `json:"upload"`
	// Raw ships unrectified uploads: each session is created with a
	// calibration carrying non-zero per-eye rotations, and every uploaded
	// pair is misaligned through it client-side, so the server's
	// rectify-before-match path is on the measured critical path. Implies
	// Upload.
	Raw bool `json:"raw"`
	// Format is the response format every frame requests: "json" (the
	// default), "disparity" (PFM), "depth" (PFM), or "cloud" (binary
	// codec). Depth and cloud sessions are created with a calibration.
	Format string `json:"format,omitempty"`
	// Mixed cycles the run's sessions through rectified and raw uploads and
	// all four response formats, exercising every serving path at once.
	// Per-session it overrides Raw and Format.
	Mixed bool `json:"mixed"`
	// SLO is the service class every session of this run declares: ""/"gold"
	// (never degraded, overload answers 429) or "besteffort" (the server may
	// degrade frames down the quality ladder instead of rejecting them).
	SLO string `json:"slo,omitempty"`
	// DeadlineMs is the per-frame latency target best-effort sessions carry
	// (0 uses the server default). Ignored for gold runs.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Retry429 is how many times a 429'd frame is retried (after honoring
	// the Retry-After hint) before it is abandoned. Zero keeps the default;
	// negative disables retries.
	Retry429 int `json:"retry_429"`
	// Max429Wait caps the per-retry sleep taken from the server's
	// Retry-After header, so a smoke run against a saturated server is not
	// dominated by sleeping. Zero keeps the default.
	Max429Wait time.Duration `json:"-"`
	// Timeout bounds each HTTP request.
	Timeout time.Duration `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Sessions < 1 {
		c.Sessions = 4
	}
	if c.Frames < 1 {
		c.Frames = 12
	}
	if c.W < 16 {
		c.W = 96
	}
	if c.H < 16 {
		c.H = 64
	}
	if c.PW < 1 {
		c.PW = 4
	}
	if c.Preset == "" {
		c.Preset = "sceneflow"
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Retry429 == 0 {
		c.Retry429 = 3
	}
	if c.Raw {
		c.Upload = true
	}
	if c.Format == "" {
		c.Format = "json"
	}
	if c.Max429Wait <= 0 {
		c.Max429Wait = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Report aggregates one run. Latency percentiles cover successful frame
// submissions only; error counts cover everything else.
type Report struct {
	Requests  int   `json:"requests"`
	OK        int   `json:"ok"`
	Rejected  int   `json:"rejected_429"`
	Retries   int   `json:"retries_429"` // 429s that were retried (⊆ Rejected)
	Dropped   int   `json:"dropped"`     // frames abandoned after exhausting retries
	Status4xx int   `json:"status_4xx"`  // non-429 client errors
	Status5xx int   `json:"status_5xx"`
	Transport int   `json:"transport_errors"`
	KeyFrames int   `json:"key_frames"`
	NonKey    int   `json:"non_key_frames"`
	DepthMaps int   `json:"depth_maps"`   // frames answered as metric depth
	Clouds    int   `json:"clouds"`       // frames answered as point clouds
	CloudPts  int64 `json:"cloud_points"` // total points across cloud replies
	// Degraded counts OK frames served below the ladder's top rung; Rungs
	// breaks all OK frames down by the rung name the reply carried
	// (X-ASV-Rung). Servers predating the ladder report neither.
	Degraded   int            `json:"degraded,omitempty"`
	Rungs      map[string]int `json:"rungs,omitempty"`
	DurationMs float64        `json:"duration_ms"`
	AchievedTP float64        `json:"achieved_rps"` // completed requests / duration
	OKRps      float64        `json:"ok_rps"`       // successful frames / duration
	P50Ms      float64        `json:"p50_ms"`
	P95Ms      float64        `json:"p95_ms"`
	P99Ms      float64        `json:"p99_ms"`
	MaxMs      float64        `json:"max_ms"`
}

// ClusterReport is a cluster-mode run: one Report per endpoint plus
// an aggregate whose percentiles are computed over the merged sample set
// (not averaged per-target percentiles, which would understate the tail).
type ClusterReport struct {
	Aggregate Report            `json:"aggregate"`
	Targets   map[string]Report `json:"targets"`
}

// collector tallies request outcomes and latency samples across the session
// goroutines of one run.
type collector struct {
	mu      sync.Mutex
	rep     Report
	samples []float64 // latency ms of OK requests, unsorted until finish
}

func (c *collector) record(status int, d time.Duration, isKey bool, transportErr bool, format string, points int, rung string, degraded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Requests++
	switch {
	case transportErr:
		c.rep.Transport++
	case status == http.StatusOK:
		c.rep.OK++
		c.samples = append(c.samples, float64(d)/1e6)
		if isKey {
			c.rep.KeyFrames++
		} else {
			c.rep.NonKey++
		}
		if rung != "" {
			if c.rep.Rungs == nil {
				c.rep.Rungs = make(map[string]int)
			}
			c.rep.Rungs[rung]++
		}
		if degraded {
			c.rep.Degraded++
		}
		switch format {
		case "depth":
			c.rep.DepthMaps++
		case "cloud":
			c.rep.Clouds++
			if points > 0 {
				c.rep.CloudPts += int64(points)
			}
		}
	case status == http.StatusTooManyRequests:
		c.rep.Rejected++
	case status >= 500:
		c.rep.Status5xx++
	default:
		c.rep.Status4xx++
	}
}

func (c *collector) retried() {
	c.mu.Lock()
	c.rep.Retries++
	c.mu.Unlock()
}

func (c *collector) dropped() {
	c.mu.Lock()
	c.rep.Dropped++
	c.mu.Unlock()
}

// finish stamps duration-derived rates and percentiles and returns the
// report plus the raw samples (for cluster-level aggregation).
func (c *collector) finish(elapsed time.Duration) (Report, []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.DurationMs = float64(elapsed) / 1e6
	if c.rep.DurationMs > 0 {
		c.rep.AchievedTP = float64(c.rep.Requests) / (c.rep.DurationMs / 1e3)
		c.rep.OKRps = float64(c.rep.OK) / (c.rep.DurationMs / 1e3)
	}
	setPercentiles(&c.rep, c.samples)
	return c.rep, c.samples
}

// setPercentiles fills rep's latency fields from samples (sorted in place).
// Each percentile is the nearest rank: the smallest sample with at least
// q·n samples at or below it.
func setPercentiles(rep *Report, samples []float64) {
	n := len(samples)
	if n == 0 {
		return
	}
	sort.Float64s(samples)
	pct := func(q float64) float64 {
		// The epsilon absorbs float excess in q·n (0.07·100 evaluates to
		// 7.000000000000001), which would otherwise round up a whole rank.
		rank := int(math.Ceil(q*float64(n) - 1e-9))
		return samples[max(rank, 1)-1]
	}
	rep.P50Ms = pct(0.50)
	rep.P95Ms = pct(0.95)
	rep.P99Ms = pct(0.99)
	rep.MaxMs = samples[n-1]
}

// Run drives the server at cfg.BaseURL. Each session goroutine submits
// its frames strictly in order (mirroring a real camera client); global
// pacing comes from a shared token bucket at cfg.QPS. The first error that
// prevents the run from even starting (e.g. session creation refused) is
// returned; per-request failures are tallied in the report instead.
func Run(cfg Config) (Report, error) {
	rep, _, err := runLoad(cfg)
	return rep, err
}

// RunCluster runs the same workload against every target concurrently —
// each target gets cfg.Sessions sessions and its own pacer — and merges the
// results. Aggregate percentiles come from the union of all latency
// samples, so the cluster p99 reflects the true tail across shards. A
// target that cannot even start (session creation refused) fails the whole
// run: a half-missing cluster would silently report inflated throughput.
func RunCluster(cfg Config, targets []string) (ClusterReport, error) {
	if len(targets) == 0 {
		return ClusterReport{}, fmt.Errorf("cluster load: no targets")
	}
	type result struct {
		target  string
		rep     Report
		samples []float64
		err     error
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			c := cfg
			c.BaseURL = target
			// Decorrelate the synthetic content across targets so every
			// shard is not matching the identical frames.
			c.Seed = cfg.Seed + int64(i)*1000
			rep, samples, err := runLoad(c)
			results[i] = result{target: target, rep: rep, samples: samples, err: err}
		}(i, target)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	out := ClusterReport{Targets: make(map[string]Report, len(targets))}
	var all []float64
	for _, r := range results {
		if r.err != nil {
			return ClusterReport{}, fmt.Errorf("target %s: %w", r.target, r.err)
		}
		out.Targets[r.target] = r.rep
		agg := &out.Aggregate
		agg.Requests += r.rep.Requests
		agg.OK += r.rep.OK
		agg.Rejected += r.rep.Rejected
		agg.Retries += r.rep.Retries
		agg.Dropped += r.rep.Dropped
		agg.Status4xx += r.rep.Status4xx
		agg.Status5xx += r.rep.Status5xx
		agg.Transport += r.rep.Transport
		agg.KeyFrames += r.rep.KeyFrames
		agg.NonKey += r.rep.NonKey
		agg.DepthMaps += r.rep.DepthMaps
		agg.Clouds += r.rep.Clouds
		agg.CloudPts += r.rep.CloudPts
		agg.Degraded += r.rep.Degraded
		for rung, n := range r.rep.Rungs {
			if agg.Rungs == nil {
				agg.Rungs = make(map[string]int)
			}
			agg.Rungs[rung] += n
		}
		all = append(all, r.samples...)
	}
	out.Aggregate.DurationMs = float64(elapsed) / 1e6
	if out.Aggregate.DurationMs > 0 {
		out.Aggregate.AchievedTP = float64(out.Aggregate.Requests) / (out.Aggregate.DurationMs / 1e3)
		out.Aggregate.OKRps = float64(out.Aggregate.OK) / (out.Aggregate.DurationMs / 1e3)
	}
	setPercentiles(&out.Aggregate, all)
	return out, nil
}

// loadFormats are the response formats mixed mode cycles through.
var loadFormats = []string{"json", "disparity", "depth", "cloud"}

// scenario resolves what session i of the run does: whether its uploads are
// raw (misaligned, server rectifies) and which response format it requests.
func (c Config) scenario(i int) (raw bool, format string) {
	if c.Mixed {
		return c.Upload && i%2 == 1, loadFormats[i%len(loadFormats)]
	}
	return c.Raw, c.Format
}

// calibrated reports whether session i needs a camera model: raw uploads
// (the server must rectify) or a triangulating response format.
func (c Config) calibrated(i int) bool {
	raw, format := c.scenario(i)
	return raw || format == "depth" || format == "cloud"
}

// loadCalibration is the camera model load sessions use; raw sessions get
// non-zero per-eye rotations so rectification is a real warp.
func loadCalibration(cfg Config, raw bool) *perception.Calibration {
	c := perception.DefaultCalibration(cfg.W, cfg.H)
	if raw {
		c.LeftRPY = [3]float64{0.004, -0.003, 0.002}
		c.RightRPY = [3]float64{-0.002, 0.005, -0.003}
	}
	return c
}

// formatQuery maps a response format name to the frame-submission query.
func formatQuery(format string) (string, error) {
	switch format {
	case "", "json":
		return "", nil
	case "disparity":
		return "?disparity=pfm", nil
	case "depth":
		return "?depth=pfm", nil
	case "cloud":
		return "?cloud=bin", nil
	default:
		return "", fmt.Errorf("unknown response format %q (json|disparity|depth|cloud)", format)
	}
}

func runLoad(cfg Config) (Report, []float64, error) {
	cfg = cfg.withDefaults()
	client := &http.Client{Timeout: cfg.Timeout}
	if _, err := formatQuery(cfg.Format); err != nil {
		return Report{}, nil, err
	}

	// Pre-encode upload bodies once per session so client-side encoding
	// cost does not pollute the measured latencies.
	var uploads [][]framePayload
	if cfg.Upload {
		uploads = make([][]framePayload, cfg.Sessions)
		for i := range uploads {
			var misalign *perception.Calibration
			if raw, _ := cfg.scenario(i); raw {
				misalign = loadCalibration(cfg, true)
			}
			frames, err := encodeFrames(cfg, cfg.Seed+int64(i), misalign)
			if err != nil {
				return Report{}, nil, fmt.Errorf("encoding upload frames: %w", err)
			}
			uploads[i] = frames
		}
	}

	ids := make([]string, cfg.Sessions)
	for i := range ids {
		id, err := createSession(client, cfg, i)
		if err != nil {
			return Report{}, nil, err
		}
		ids[i] = id
	}

	// Token bucket: one token per request, refilled at QPS. Buffer a small
	// burst so pacing jitter does not serialize the workers.
	tokens := make(chan struct{}, cfg.Sessions)
	stopPacer := make(chan struct{})
	if cfg.QPS > 0 {
		go func() {
			t := time.NewTicker(time.Duration(float64(time.Second) / cfg.QPS))
			defer t.Stop()
			for {
				select {
				case <-stopPacer:
					return
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					default:
					}
				}
			}
		}()
	}

	col := &collector{}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, format := cfg.scenario(i)
			//asvlint:ignore droppederr cfg.Format was validated at run start; per-session formats come from loadFormats
			query, _ := formatQuery(format)
			for f := 0; f < cfg.Frames; f++ {
				// A frame is attempted up to 1+Retry429 times: a 429 is
				// real backpressure, but a camera client does not drop a
				// frame on the floor the moment the queue blips.
				for attempt := 0; ; attempt++ {
					if cfg.QPS > 0 {
						<-tokens
					}
					var body io.Reader
					contentType := ""
					if cfg.Upload {
						p := uploads[i][f%len(uploads[i])]
						body = bytes.NewReader(p.body)
						contentType = p.contentType
					}
					tReq := time.Now()
					res, err := submitFrame(client, cfg.BaseURL, ids[i], query, body, contentType)
					if err != nil {
						col.record(0, 0, false, true, format, 0, "", false)
						break
					}
					col.record(res.status, time.Since(tReq), res.isKey, false, format, res.points, res.rung, res.degraded)
					if res.status != http.StatusTooManyRequests {
						break
					}
					if attempt >= cfg.Retry429 {
						col.dropped()
						break
					}
					col.retried()
					// Honor the server's Retry-After hint, capped so a
					// saturated smoke run is not dominated by sleeping.
					wait := res.retryAfter
					if wait <= 0 || wait > cfg.Max429Wait {
						wait = cfg.Max429Wait
					}
					time.Sleep(wait)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stopPacer)

	rep, samples := col.finish(time.Since(t0))
	return rep, samples, nil
}

// createSession opens one serving session; preset mode asks the server to
// synthesize frames, upload mode leaves the session empty.
func createSession(client *http.Client, cfg Config, i int) (string, error) {
	req := serve.CreateSessionRequest{PW: cfg.PW, SLO: cfg.SLO, DeadlineMs: cfg.DeadlineMs}
	if !cfg.Upload {
		req.Preset = cfg.Preset
		req.W, req.H = cfg.W, cfg.H
		req.Frames = cfg.Frames
		req.Seed = cfg.Seed + int64(i)
	}
	if cfg.calibrated(i) {
		raw, _ := cfg.scenario(i)
		req.Calibration = loadCalibration(cfg, raw).EncodeJSON()
	}
	buf, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("encoding session request: %w", err)
	}
	resp, err := client.Post(cfg.BaseURL+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", fmt.Errorf("creating session: %w", err)
	}
	//asvlint:ignore droppederr response body close error is not actionable in a load generator
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		//asvlint:ignore droppederr body is best-effort color for the error message below
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("creating session: %s: %s", resp.Status, body)
	}
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("decoding session info: %w", err)
	}
	//asvlint:ignore droppederr best-effort drain so the connection can be reused
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return info.ID, nil
}

// submitResult is what one frame submission yielded: the HTTP status, the
// stats the reply carried (key split, cloud points, served rung), and the
// Retry-After hint on 429s.
type submitResult struct {
	status     int
	isKey      bool
	points     int
	rung       string
	degraded   bool
	retryAfter time.Duration
}

// submitFrame posts one frame (query selects the response format) and
// parses just enough of the reply: the JSON stats for the default format,
// the X-ASV-* headers for the binary ones (the served rung always travels
// in headers). The body is always fully drained and closed — on the
// decode-failure and non-200 paths too — so the client's connection pool
// actually gets reuse instead of leaking a connection per error.
func submitFrame(client *http.Client, baseURL, id, query string, body io.Reader, contentType string) (submitResult, error) {
	if body == nil {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/sessions/"+id+"/frames"+query, body)
	if err != nil {
		return submitResult{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return submitResult{}, err
	}
	defer func() {
		// Binary replies (PFM, clouds) are image-sized; drain them fully so
		// the connection is actually reusable.
		//asvlint:ignore droppederr best-effort drain so the connection can be reused
		io.Copy(io.Discard, resp.Body)
		//asvlint:ignore droppederr response body close error is not actionable in a load generator
		resp.Body.Close()
	}()
	res := submitResult{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		res.rung = resp.Header.Get("X-ASV-Rung")
		//asvlint:ignore droppederr header absent on pre-ladder servers; false is the right default
		res.degraded, _ = strconv.ParseBool(resp.Header.Get("X-ASV-Degraded"))
		if query != "" {
			//asvlint:ignore droppederr absent/garbled header reads as false; stats only lose the key split
			res.isKey, _ = strconv.ParseBool(resp.Header.Get("X-ASV-Is-Key"))
			//asvlint:ignore droppederr header only present on cloud replies; zero is the right default
			res.points, _ = strconv.Atoi(resp.Header.Get("X-ASV-Points"))
			return res, nil
		}
		var fr serve.FrameResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			return res, nil // count as OK; stats only lose key split
		}
		res.isKey = fr.IsKey
		return res, nil
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			res.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return res, nil
}

// framePayload is one pre-encoded multipart upload body.
type framePayload struct {
	body        []byte
	contentType string
}

// encodeFrames renders a synthetic sequence and packs each stereo pair as a
// multipart PGM upload. A non-nil misalign warps each pair off the
// rectified frame through the calibration's per-eye rotations first —
// simulating the raw capture a physical rig would upload.
func encodeFrames(cfg Config, seed int64, misalign *perception.Calibration) ([]framePayload, error) {
	scene := dataset.SceneFlowLike(cfg.W, cfg.H, cfg.Frames, seed)[0]
	if cfg.Preset == "kitti" {
		scene = dataset.KITTILike(cfg.W, cfg.H, 1, seed)[0]
		scene.FrameCount = cfg.Frames
	}
	seq := dataset.Generate(scene)
	out := make([]framePayload, 0, len(seq.Frames))
	for _, fr := range seq.Frames {
		left, right := fr.Left, fr.Right
		if misalign != nil {
			left = rectify.Misalign(left, misalign.Intrinsics(), misalign.RotLeft())
			right = rectify.Misalign(right, misalign.Intrinsics(), misalign.RotRight())
		}
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for _, part := range []struct {
			name string
			im   *imgproc.Image
		}{{"left", left}, {"right", right}} {
			fw, err := mw.CreateFormFile(part.name, part.name+".pgm")
			if err != nil {
				return nil, err
			}
			if err := imgproc.WritePGM(fw, part.im); err != nil {
				return nil, err
			}
		}
		if err := mw.Close(); err != nil {
			return nil, err
		}
		out = append(out, framePayload{body: buf.Bytes(), contentType: mw.FormDataContentType()})
	}
	return out, nil
}
