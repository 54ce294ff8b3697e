package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunServeAndDrain boots the server on an ephemeral port, verifies the
// portfile handshake and /healthz, then cancels the context (standing in
// for SIGTERM) and expects a clean drain.
func TestRunServeAndDrain(t *testing.T) {
	portfile := filepath.Join(t.TempDir(), "port")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-portfile", portfile,
			"-workers", "2", "-queue", "8", "-pw", "3",
		}, &out)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(portfile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("portfile never appeared; output so far: %s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v; output: %s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain confirmation in output: %s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-matcher", "fancy-dnn"},
		{"-addr", "not a listen address"},
	} {
		var out bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := run(ctx, args, &out)
		cancel()
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
