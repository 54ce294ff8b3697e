// Command asvserve runs the stereo depth serving layer: a sessionful HTTP
// service in which every session is one ISM state machine — expensive
// key-frame matching every PW-th frame, motion-propagated refinement in
// between — fed by POSTed stereo pairs or server-side synthetic presets.
//
// Usage:
//
//	asvserve -addr :8080 -workers 4 -queue 64 -pw 4
//	asvserve -addr 127.0.0.1:0 -portfile /tmp/port   # CI: random port
//
// The server drains gracefully on SIGINT/SIGTERM: admission stops with
// 503, queued frames finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asv/internal/core"
	"asv/internal/serve"
	"asv/internal/stereo"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asvserve:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is cancelled (signal), then
// drains. Split from main so the cmd is testable end to end.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asvserve", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address (port 0 for ephemeral)")
	portfile := fs.String("portfile", "", "write the bound host:port to this file once listening (for CI)")
	workers := fs.Int("workers", 0, "max frames processed at once (0 = default)")
	queue := fs.Int("queue", 0, "admission queue depth; beyond it requests get 429 (0 = default)")
	sessions := fs.Int("max-sessions", 0, "session table capacity, LRU beyond it (0 = default)")
	ttl := fs.Duration("ttl", 0, "idle session time-to-live (0 = default)")
	pw := fs.Int("pw", 0, "default propagation window for new sessions (0 = default)")
	maxPixels := fs.Int("max-pixels", 0, "per-image upload pixel cap, oversize gets 413 (0 = default)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	spillDir := fs.String("spill-dir", "", "directory for session snapshots (eviction spill + checkpoints); share it across shards for failover")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint each session to -spill-dir every N frames (0 = only on eviction)")
	matcherName := fs.String("matcher", "bm", "key-frame matcher (bm|sgm)")
	maxDisp := fs.Int("maxdisp", 24, "matcher disparity search range")
	pacedFrameMs := fs.Int("paced-frame-ms", 0, "pace the key matcher to a fixed per-Match budget in ms (0 = off; for reproducible overload/degrade demos)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight work at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var matcher core.KeyMatcher
	switch *matcherName {
	case "bm":
		opt := stereo.DefaultBMOptions()
		opt.MaxDisp = *maxDisp
		matcher = core.BMMatcher{Opt: opt}
	case "sgm":
		opt := stereo.DefaultSGMOptions()
		opt.MaxDisp = *maxDisp
		matcher = core.SGMMatcher{Opt: opt}
	default:
		return fmt.Errorf("unknown matcher %q (bm|sgm)", *matcherName)
	}
	if *pacedFrameMs > 0 {
		matcher = serve.NewPacedKeyMatcher(matcher, time.Duration(*pacedFrameMs)*time.Millisecond)
	}

	cfg := serve.DefaultConfig()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *queue > 0 {
		cfg.QueueDepth = *queue
	}
	if *sessions > 0 {
		cfg.MaxSessions = *sessions
	}
	if *ttl > 0 {
		cfg.SessionTTL = *ttl
	}
	if *pw > 0 {
		cfg.PW = *pw
	}
	if *maxPixels > 0 {
		cfg.MaxPixels = *maxPixels
	}
	cfg.SpillDir = *spillDir
	if *checkpointEvery > 0 {
		if *spillDir == "" {
			return fmt.Errorf("-checkpoint-every needs -spill-dir")
		}
		cfg.CheckpointEvery = *checkpointEvery
	}
	cfg.EnablePprof = *pprofOn

	srv := serve.New(matcher, cfg)
	bound, err := srv.Start(*addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound.String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing portfile: %w", err)
		}
	}
	fmt.Fprintf(out, "asvserve: listening on %s (matcher %s, %d workers, queue %d)\n",
		bound, matcher.Name(), cfg.Workers, cfg.QueueDepth)

	<-ctx.Done()
	fmt.Fprintln(out, "asvserve: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Close(dctx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	fmt.Fprintln(out, "asvserve: drained, bye")
	return nil
}
