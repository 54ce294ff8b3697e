package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asv"
	"asv/internal/cluster"
	"asv/internal/serve"
)

func startShard(t *testing.T) string {
	t.Helper()
	opt := asv.DefaultBMOptions()
	opt.MaxDisp = 12
	srv := serve.New(asv.BMKeyMatcher{Opt: opt}, serve.DefaultConfig())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		//asvlint:ignore droppederr test shard close is best-effort cleanup
		srv.Close(ctx)
	})
	return "http://" + addr.String()
}

// TestRunGatewayEndToEnd boots two real shards and the gateway CLI on an
// ephemeral port, creates a session and submits a frame through the
// gateway, checks /v1/cluster reports both shards up, then cancels the
// context (standing in for SIGTERM) and expects a clean shutdown.
func TestRunGatewayEndToEnd(t *testing.T) {
	shardA, shardB := startShard(t), startShard(t)
	portfile := filepath.Join(t.TempDir(), "port")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-portfile", portfile,
			"-shards", "a=" + shardA + ",b=" + shardB,
			"-health-interval", "100ms",
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
	base := "http://" + addr

	body := `{"pw":2,"preset":"sceneflow","w":48,"h":32,"frames":4,"seed":11}`
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.ID == "" {
		t.Fatalf("create through gateway: %d %+v", resp.StatusCode, info)
	}

	resp, err = http.Post(base+"/v1/sessions/"+info.ID+"/frames", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame through gateway: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cluster struct {
		Shards []struct {
			Name string `json:"name"`
			Up   bool   `json:"up"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cluster); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cluster.Shards) != 2 {
		t.Fatalf("cluster info: %+v", cluster)
	}
	for _, s := range cluster.Shards {
		if !s.Up {
			t.Fatalf("shard %s reported down: %+v", s.Name, cluster)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v; output: %s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("gateway did not shut down after cancel")
	}
	if !strings.Contains(out.String(), "bye") {
		t.Fatalf("missing shutdown confirmation in output: %s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},                                       // no shards
		{"-shards", "a=ftp://wrong"},             // bad scheme
		{"-shards", "=http://127.0.0.1:1"},       // empty name
		{"-shards", "a=http://h:1,a=http://h:2"}, // duplicate name
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

func TestParseShards(t *testing.T) {
	shards, err := parseShards("a=http://h:1, http://h:2 ,c=https://h:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Shard{
		{Name: "a", URL: "http://h:1"},
		{Name: "shard1", URL: "http://h:2"},
		{Name: "c", URL: "https://h:3"},
	}
	if fmt.Sprint(shards) != fmt.Sprint(want) {
		t.Fatalf("parseShards = %+v, want %+v", shards, want)
	}
}
