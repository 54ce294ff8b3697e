// Command asvload generates load against a running asvserve instance, or an
// asvgate in front of its shards: it opens concurrent preset sessions,
// replays their server-synthesized stereo streams at a target aggregate QPS,
// and reports nearest-rank latency percentiles plus the outcome counts
// (OK / 429 backpressure / errors) as text or JSON. It is a client of
// serve's wire types only; the repository benchmark has its own load
// generator.
//
// Usage:
//
//	asvload -addr http://127.0.0.1:8080 -sessions 4 -frames 25 -qps 40
//	asvload -addr http://127.0.0.1:8080 -slo besteffort -deadline-ms 60
//	asvload -addr http://127.0.0.1:8080 -json            # machine output
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asv/internal/serve"
)

const (
	preset = "sceneflow" // the synthetic scene every session replays
	seed   = 7           // scene seed of session 0; session i uses seed+i
	// retry429 is how many times a 429'd frame is retried, after honoring
	// the Retry-After hint, before it is dropped: a 429 is real
	// backpressure, but a camera client does not drop a frame the moment
	// the queue blips.
	retry429 = 3
	// max429Wait caps each retry's Retry-After sleep, so a run against a
	// saturated server is not dominated by sleeping.
	max429Wait     = 50 * time.Millisecond
	requestTimeout = 30 * time.Second
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asvload:", err)
		os.Exit(1)
	}
}

// config is one load run.
type config struct {
	addr             string // base URL, e.g. "http://127.0.0.1:8080"
	sessions, frames int    // concurrent sessions; frames submitted per session
	qps              float64
	w, h, pw         int
	slo              string  // "" (gold) or "besteffort"
	deadlineMs       float64 // best-effort per-frame target (0 = server default)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asvload", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "base URL of the asvserve (or asvgate) instance")
	fs.IntVar(&cfg.sessions, "sessions", 4, "concurrent sessions")
	fs.IntVar(&cfg.frames, "frames", 12, "frames per session")
	fs.Float64Var(&cfg.qps, "qps", 0, "aggregate target request rate (0 = as fast as possible)")
	fs.IntVar(&cfg.w, "w", 96, "frame width")
	fs.IntVar(&cfg.h, "h", 64, "frame height")
	fs.IntVar(&cfg.pw, "pw", 4, "propagation window")
	fs.StringVar(&cfg.slo, "slo", "", "session service class (gold|besteffort); besteffort lets the server degrade accuracy under load instead of rejecting")
	fs.Float64Var(&cfg.deadlineMs, "deadline-ms", 0, "per-frame latency target for besteffort sessions (0 = server default)")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The pacer ticks every second/qps; a rate whose interval truncates to
	// 0 ns would panic time.NewTicker.
	if math.IsNaN(cfg.qps) || math.IsInf(cfg.qps, 0) || (cfg.qps > 0 && float64(time.Second)/cfg.qps < 1) {
		return fmt.Errorf("-qps %g: want a finite rate of at most 1e9 requests/s", cfg.qps)
	}

	rep, err := runLoad(cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(buf))
		return nil
	}
	fmt.Fprintf(out, "asvload: %d requests in %.0f ms (%.1f ok/s)\n", rep.Requests, rep.DurationMs, rep.OKRps)
	fmt.Fprintf(out, "  ok %d  429 %d (retried %d, dropped %d)  4xx %d  5xx %d  transport %d\n",
		rep.OK, rep.Rejected, rep.Retries, rep.Dropped, rep.Status4xx, rep.Status5xx, rep.Transport)
	if len(rep.Rungs) > 0 {
		names := make([]string, 0, len(rep.Rungs))
		for name := range rep.Rungs {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			names[i] = fmt.Sprintf("%s %d", name, rep.Rungs[name])
		}
		fmt.Fprintf(out, "  rungs: %s  (degraded %d)\n", strings.Join(names, "  "), rep.Degraded)
	}
	fmt.Fprintf(out, "  latency ms: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
		rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MaxMs)
	return nil
}

// report aggregates one run. Latency percentiles cover successful frame
// submissions only; error counts cover everything else.
type report struct {
	Requests  int `json:"requests"`
	OK        int `json:"ok"`
	Rejected  int `json:"rejected_429"`
	Retries   int `json:"retries_429"` // 429s that were retried (⊆ Rejected)
	Dropped   int `json:"dropped"`     // frames abandoned after exhausting retries
	Status4xx int `json:"status_4xx"`  // non-429 client errors
	Status5xx int `json:"status_5xx"`
	Transport int `json:"transport_errors"`
	// Degraded counts OK frames served below the ladder's top rung; Rungs
	// breaks all OK frames down by the rung name the reply carried
	// (X-ASV-Rung).
	Degraded   int            `json:"degraded,omitempty"`
	Rungs      map[string]int `json:"rungs,omitempty"`
	DurationMs float64        `json:"duration_ms"`
	OKRps      float64        `json:"ok_rps"` // successful frames / duration
	P50Ms      float64        `json:"p50_ms"`
	P95Ms      float64        `json:"p95_ms"`
	P99Ms      float64        `json:"p99_ms"`
	MaxMs      float64        `json:"max_ms"`

	samples []float64 // latency ms of OK requests, unsorted until the end
}

// record tallies one submission's outcome; status 0 is a transport error.
func (r *report) record(res submitResult, d time.Duration) {
	r.Requests++
	switch {
	case res.status == 0:
		r.Transport++
	case res.status == http.StatusOK:
		r.OK++
		r.samples = append(r.samples, float64(d)/1e6)
		if res.rung != "" {
			if r.Rungs == nil {
				r.Rungs = make(map[string]int)
			}
			r.Rungs[res.rung]++
		}
		if res.degraded {
			r.Degraded++
		}
	case res.status == http.StatusTooManyRequests:
		r.Rejected++
	case res.status >= 500:
		r.Status5xx++
	default:
		r.Status4xx++
	}
}

// setPercentiles fills rep's latency fields from samples (sorted in place).
// Each percentile is the nearest rank: the smallest sample with at least
// q·n samples at or below it.
func setPercentiles(rep *report, samples []float64) {
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

// runLoad drives the server at cfg.addr. Each session goroutine submits its
// frames strictly in order, as a camera client would; global pacing comes
// from a shared token bucket at cfg.qps. An error that keeps the run from
// starting (session creation refused) is returned; per-request failures are
// tallied in the report instead.
func runLoad(cfg config) (*report, error) {
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	ids := make([]string, cfg.sessions)
	for i := range ids {
		id, err := createSession(client, cfg, i)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}

	// Token bucket: one token per request, refilled at qps. Buffer a small
	// burst so pacing jitter does not serialize the sessions.
	tokens := make(chan struct{}, cfg.sessions)
	stopPacer := make(chan struct{})
	var pacer sync.WaitGroup
	defer func() {
		close(stopPacer)
		pacer.Wait()
	}()
	if cfg.qps > 0 {
		pacer.Add(1)
		go func() {
			defer pacer.Done()
			t := time.NewTicker(time.Duration(float64(time.Second) / cfg.qps))
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

	rep := &report{}
	var mu sync.Mutex
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range cfg.frames {
				for attempt := 0; ; attempt++ {
					if cfg.qps > 0 {
						<-tokens
					}
					tReq := time.Now()
					res := submitFrame(client, cfg.addr, id)
					mu.Lock()
					rep.record(res, time.Since(tReq))
					retry := res.status == http.StatusTooManyRequests && attempt < retry429
					switch {
					case retry:
						rep.Retries++
					case res.status == http.StatusTooManyRequests:
						rep.Dropped++
					}
					mu.Unlock()
					if !retry {
						break
					}
					wait := res.retryAfter
					if wait <= 0 || wait > max429Wait {
						wait = max429Wait
					}
					time.Sleep(wait)
				}
			}
		}()
	}
	wg.Wait()

	rep.DurationMs = float64(time.Since(t0)) / 1e6
	if rep.DurationMs > 0 {
		rep.OKRps = float64(rep.OK) / (rep.DurationMs / 1e3)
	}
	setPercentiles(rep, rep.samples)
	return rep, nil
}

// createSession opens preset session i, whose frames the server synthesizes.
func createSession(client *http.Client, cfg config, i int) (string, error) {
	buf, err := json.Marshal(serve.CreateSessionRequest{
		PW: cfg.pw, Preset: preset, W: cfg.w, H: cfg.h, Frames: cfg.frames, Seed: seed + int64(i),
		SLO: cfg.slo, DeadlineMs: cfg.deadlineMs,
	})
	if err != nil {
		return "", fmt.Errorf("encoding session request: %w", err)
	}
	resp, err := client.Post(cfg.addr+"/v1/sessions", "application/json", bytes.NewReader(buf))
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
	return info.ID, nil
}

// submitResult is what one frame submission yielded: the HTTP status (0 on
// a transport error), the rung the reply was served at, and the Retry-After
// hint on 429s.
type submitResult struct {
	status     int
	rung       string
	degraded   bool
	retryAfter time.Duration
}

// submitFrame posts session id's next frame. The reply body is always
// drained and closed, so the client's connections are reused.
func submitFrame(client *http.Client, addr, id string) submitResult {
	resp, err := client.Post(addr+"/v1/sessions/"+id+"/frames", "", nil)
	if err != nil {
		return submitResult{}
	}
	defer func() {
		//asvlint:ignore droppederr best-effort drain so the connection can be reused
		io.Copy(io.Discard, resp.Body)
		//asvlint:ignore droppederr response body close error is not actionable in a load generator
		resp.Body.Close()
	}()
	res := submitResult{status: resp.StatusCode}
	switch resp.StatusCode {
	case http.StatusOK:
		res.rung = resp.Header.Get("X-ASV-Rung")
		//asvlint:ignore droppederr an absent header reads as not degraded
		res.degraded, _ = strconv.ParseBool(resp.Header.Get("X-ASV-Degraded"))
	case http.StatusTooManyRequests:
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			res.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return res
}
