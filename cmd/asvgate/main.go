// Command asvgate runs the stateless gateway of a sharded asvserve cluster.
// Session ids are consistent-hashed onto the configured shards (sessions are
// sticky: the ISM state machine for a stream lives on exactly one shard);
// the gateway health-checks the shards, fails requests over to the ring's
// next owner when a shard dies, and migrates sessions off a shard via the
// snapshot/restore API when asked to drain it.
//
// Usage:
//
//	asvgate -addr :9100 -shards a=http://127.0.0.1:9101,b=http://127.0.0.1:9102
//	asvgate -addr 127.0.0.1:0 -portfile /tmp/port -shards http://127.0.0.1:9101
//
// Shards are "name=url" pairs; a bare url gets the name "shardN" by
// position. Names are ring identities — keep them stable across restarts
// and address changes, or every session moves.
//
// Ungraceful shard failure needs no operator action when the shards share a
// spill directory with per-frame checkpoints (asvserve -spill-dir ...
// -checkpoint-every 1): the failover owner restores the dead shard's
// sessions from their last checkpoints on first touch. Graceful removal is
// POST /v1/cluster/drain/{shard}.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asv/internal/cluster"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "asvgate:", err)
		os.Exit(1)
	}
}

// run starts the gateway and blocks until ctx is cancelled (signal). Split
// from main so the cmd is testable end to end.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asvgate", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":9100", "listen address (port 0 for ephemeral)")
	portfile := fs.String("portfile", "", "write the bound host:port to this file once listening (for CI)")
	shardsFlag := fs.String("shards", "", "comma-separated shard list, each name=url or a bare url (required)")
	replicas := fs.Int("replicas", 0, "consistent-hash vnodes per shard (0 = default)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "shard health probe period (0 disables probing)")
	healthTimeout := fs.Duration("health-timeout", 0, "per-probe timeout (0 = default)")
	closeTimeout := fs.Duration("close-timeout", 10*time.Second, "max time to wait for in-flight proxies at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	shards, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}

	g, err := cluster.New(cluster.Config{
		Shards:         shards,
		Replicas:       *replicas,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
	})
	if err != nil {
		return err
	}
	bound, err := g.Start(*addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound.String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing portfile: %w", err)
		}
	}
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.Name
	}
	fmt.Fprintf(out, "asvgate: listening on %s, routing to %d shards (%s)\n",
		bound, len(shards), strings.Join(names, ", "))

	<-ctx.Done()
	fmt.Fprintln(out, "asvgate: shutting down...")
	cctx, cancel := context.WithTimeout(context.Background(), *closeTimeout)
	defer cancel()
	if err := g.Close(cctx); err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	fmt.Fprintln(out, "asvgate: bye")
	return nil
}

// parseShards turns "a=http://h:1,b=http://h:2" (or bare urls) into the
// shard set. Bare urls are named by position, which is fine for throwaway
// clusters but unstable if the list is ever reordered — named shards are
// the production spelling.
func parseShards(s string) ([]cluster.Shard, error) {
	var shards []cluster.Shard
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, found := strings.Cut(part, "=")
		if !found {
			name, url = fmt.Sprintf("shard%d", i), part
		}
		if name == "" || url == "" {
			return nil, fmt.Errorf("bad shard %q (want name=url)", part)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("shard %q: url must start with http:// or https://", part)
		}
		shards = append(shards, cluster.Shard{Name: name, URL: url})
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("-shards is required (comma-separated name=url list)")
	}
	return shards, nil
}
