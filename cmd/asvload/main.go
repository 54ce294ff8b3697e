// Command asvload generates load against a running asvserve instance: it
// opens concurrent sessions, replays synthetic stereo streams at a target
// aggregate QPS, and reports latency percentiles plus the outcome counts
// (OK / 429 backpressure / errors).
//
// Cluster mode (-addrs) fans the same workload out over several endpoints —
// typically one asvgate or the shards directly — and reports per-target
// numbers plus an aggregate whose percentiles cover the union of all
// latency samples (the true cluster tail, not an average of tails).
//
// Usage:
//
//	asvload -addr http://127.0.0.1:8080 -sessions 4 -frames 25 -qps 40
//	asvload -addr http://127.0.0.1:8080 -upload          # ship PGM bytes
//	asvload -addr http://127.0.0.1:8080 -raw             # raw pairs, server rectifies
//	asvload -addr http://127.0.0.1:8080 -format cloud    # point-cloud replies
//	asvload -addr http://127.0.0.1:8080 -upload -mixed   # every serving path at once
//	asvload -addr http://127.0.0.1:8080 -json            # machine output
//	asvload -addrs http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"asv/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asvload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asvload", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the asvserve instance")
	addrs := fs.String("addrs", "", "comma-separated base URLs; cluster mode drives all of them concurrently (overrides -addr)")
	sessions := fs.Int("sessions", 4, "concurrent sessions (per target in cluster mode)")
	frames := fs.Int("frames", 12, "frames per session")
	qps := fs.Float64("qps", 0, "aggregate target request rate per target (0 = as fast as possible)")
	width := fs.Int("w", 96, "frame width")
	height := fs.Int("h", 64, "frame height")
	pw := fs.Int("pw", 4, "propagation window")
	preset := fs.String("preset", "sceneflow", "synthetic scene preset (sceneflow|kitti)")
	seed := fs.Int64("seed", 7, "scene seed")
	upload := fs.Bool("upload", false, "ship PGM frames in the request body instead of server-side presets")
	raw := fs.Bool("raw", false, "ship RAW (misaligned) uploads against calibrated sessions; the server rectifies before matching (implies -upload)")
	format := fs.String("format", "json", "response format each frame requests (json|disparity|depth|cloud)")
	mixed := fs.Bool("mixed", false, "cycle sessions through rectified/raw uploads and all response formats (overrides -raw/-format per session)")
	slo := fs.String("slo", "", "session service class (gold|besteffort); besteffort lets the server degrade accuracy under load instead of rejecting")
	deadlineMs := fs.Float64("deadline-ms", 0, "per-frame latency target for besteffort sessions (0 = server default)")
	retry429 := fs.Int("retry-429", 0, "retries per 429'd frame after honoring Retry-After (0 = default, negative disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := loadgen.Config{
		BaseURL:    *addr,
		Sessions:   *sessions,
		Frames:     *frames,
		QPS:        *qps,
		W:          *width,
		H:          *height,
		PW:         *pw,
		Preset:     *preset,
		Seed:       *seed,
		Upload:     *upload,
		Raw:        *raw,
		Format:     *format,
		Mixed:      *mixed,
		SLO:        *slo,
		DeadlineMs: *deadlineMs,
		Retry429:   *retry429,
		Timeout:    *timeout,
	}

	if *addrs != "" {
		var targets []string
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				targets = append(targets, a)
			}
		}
		crep, err := loadgen.RunCluster(cfg, targets)
		if err != nil {
			return err
		}
		if *asJSON {
			buf, err := json.MarshalIndent(crep, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(buf))
			return nil
		}
		names := make([]string, 0, len(crep.Targets))
		for name := range crep.Targets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			printReport(out, "  "+name, crep.Targets[name])
		}
		printReport(out, "aggregate", crep.Aggregate)
		return nil
	}

	rep, err := loadgen.Run(cfg)
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
	printReport(out, "asvload", rep)
	return nil
}

func printReport(out io.Writer, label string, rep loadgen.Report) {
	fmt.Fprintf(out, "%s: %d requests in %.0f ms (%.1f req/s achieved, %.1f ok/s)\n",
		label, rep.Requests, rep.DurationMs, rep.AchievedTP, rep.OKRps)
	fmt.Fprintf(out, "  ok %d (key %d, propagated %d)  429 %d (retried %d, dropped %d)  4xx %d  5xx %d  transport %d\n",
		rep.OK, rep.KeyFrames, rep.NonKey, rep.Rejected, rep.Retries, rep.Dropped,
		rep.Status4xx, rep.Status5xx, rep.Transport)
	if rep.DepthMaps > 0 || rep.Clouds > 0 {
		fmt.Fprintf(out, "  perception: depth maps %d  clouds %d (%d points)\n",
			rep.DepthMaps, rep.Clouds, rep.CloudPts)
	}
	if len(rep.Rungs) > 0 {
		names := make([]string, 0, len(rep.Rungs))
		for name := range rep.Rungs {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s %d", name, rep.Rungs[name]))
		}
		fmt.Fprintf(out, "  rungs: %s  (degraded %d)\n", strings.Join(parts, "  "), rep.Degraded)
	}
	fmt.Fprintf(out, "  latency ms: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
		rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MaxMs)
}
