package main

import (
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"itag/internal/errs"
	"itag/internal/store"
)

// TestBootServeSigtermDrain boots the full daemon in-process on ephemeral
// ports, verifies both listeners actually serve (API healthz, debug
// /metrics scrape, pprof index), then delivers a real SIGTERM and asserts
// the drain path exits cleanly.
func TestBootServeSigtermDrain(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "itag.wal")
	ready := make(chan [2]string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(
			[]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-db", dbPath, "-quiet", "-grace", "10s"},
			log.New(io.Discard, "", 0),
			func(apiAddr, debugAddr string) { ready <- [2]string{apiAddr, debugAddr} },
		)
	}()

	var apiAddr, dbgAddr string
	select {
	case addrs := <-ready:
		apiAddr, dbgAddr = addrs[0], addrs[1]
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if status, body := get("http://" + apiAddr + "/api/v1/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", status, body)
	}
	// Create real traffic so the scrape has route samples.
	resp, err := http.Post("http://"+apiAddr+"/api/v1/providers", "application/json", strings.NewReader(`{"name":"p"}`))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("provider create: %v %v", err, resp)
	}
	resp.Body.Close()

	if status, body := get("http://" + dbgAddr + "/metrics"); status != http.StatusOK ||
		!strings.Contains(body, "itag_http_requests_total") ||
		!strings.Contains(body, "itag_store_commits_total") {
		t.Errorf("debug /metrics = %d (len %d)", status, len(body))
	}
	if status, _ := get("http://" + dbgAddr + "/debug/pprof/"); status != http.StatusOK {
		t.Errorf("pprof index status = %d", status)
	}
	// The scrape endpoint must not leak onto the API listener.
	if status, _ := get("http://" + apiAddr + "/metrics"); status != http.StatusNotFound {
		t.Errorf("API-listener /metrics status = %d, want 404", status)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drain exit = %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestBootClusterMode boots the daemon as a (single-member) cluster node
// and verifies the cluster surface serves: the ring endpoint, routed API
// traffic through the slot's backend, and the replication families on the
// debug scrape. Flag validation failures must be reported, not crash.
func TestBootClusterMode(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	if err := run([]string{"-cluster-slot", "alpha", "-db", ""}, logger, nil); err == nil ||
		!strings.Contains(err.Error(), "-db") {
		t.Fatalf("cluster mode without -db: err = %v", err)
	}
	if err := run([]string{"-cluster-slot", "alpha", "-db", t.TempDir(), "-cluster-ring", "garbage"}, logger, nil); err == nil {
		t.Fatal("cluster mode accepted a malformed ring")
	}

	ready := make(chan [2]string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(
			[]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-db", t.TempDir(),
				"-cluster-slot", "alpha", "-cluster-ring", "alpha=http://127.0.0.1:1",
				"-quiet", "-grace", "10s"},
			logger,
			func(apiAddr, debugAddr string) { ready <- [2]string{apiAddr, debugAddr} },
		)
	}()

	var apiAddr, dbgAddr string
	select {
	case addrs := <-ready:
		apiAddr, dbgAddr = addrs[0], addrs[1]
	case err := <-errCh:
		t.Fatalf("cluster daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("cluster daemon never became ready")
	}

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if status, body := get("http://" + apiAddr + "/api/v1/cluster/ring"); status != http.StatusOK ||
		!strings.Contains(body, `"slot":"alpha"`) {
		t.Errorf("cluster ring = %d %q", status, body)
	}
	resp, err := http.Post("http://"+apiAddr+"/api/v1/providers", "application/json", strings.NewReader(`{"name":"p"}`))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("provider create through cluster node: %v %v", err, resp)
	}
	resp.Body.Close()
	if status, body := get("http://" + dbgAddr + "/metrics"); status != http.StatusOK ||
		!strings.Contains(body, "itag_cluster_ring_version") ||
		!strings.Contains(body, "itag_http_requests_total") {
		t.Errorf("cluster debug /metrics = %d (len %d)", status, len(body))
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("cluster drain exit = %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cluster daemon did not exit after SIGTERM")
	}
}

// TestBootRejectsRetiredShardLayout pins what is left of the in-process
// partitioner at the daemon's edge: the -shards flag is gone (an old
// command line fails loudly instead of silently running unpartitioned),
// so is -group-commit (the writer's natural batching is the one commit
// path), and a -db path holding the shard-NNN.wal families a sharded daemon wrote
// is refused instead of having a fresh, empty WAL created beside the data.
func TestBootRejectsRetiredShardLayout(t *testing.T) {
	shardedDir := t.TempDir()
	for _, name := range []string{"shard-000.wal.seg-00000001", "shard-001.wal.seg-00000001", "shard-001.wal.snapshot"} {
		if err := os.WriteFile(filepath.Join(shardedDir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		args []string
		want []string // substrings of the error
	}{
		{"-shards is an unknown flag", []string{"-db", "", "-shards", "4"},
			[]string{"flag provided but not defined", "-shards"}},
		{"-group-commit is an unknown flag", []string{"-db", "", "-group-commit", "1ms"},
			[]string{"flag provided but not defined", "-group-commit"}},
		{"-db names a sharded directory", []string{"-addr", "127.0.0.1:0", "-db", shardedDir},
			[]string{"retired sharded layout", shardedDir}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, log.New(io.Discard, "", 0), func(string, string) {
				t.Error("daemon became ready")
				_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
			})
			if err == nil {
				t.Fatal("run accepted the retired setup")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
	if _, err := store.Open(shardedDir, store.Options{}); errs.CategoryOf(err) != errs.CategoryValidation {
		t.Errorf("store.Open on a sharded directory: err = %v, want a validation error", err)
	}
	left, _ := filepath.Glob(filepath.Join(shardedDir, "*"))
	if len(left) != 3 {
		t.Errorf("the refused open changed the directory: %v", left)
	}
}
