package main

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"itag/client"
	"itag/internal/errs"
	"itag/internal/store"
)

// bootDaemon runs the daemon in-process with args plus ephemeral listeners
// and waits until it is ready. stop delivers a real SIGTERM and requires the
// drain path to exit cleanly.
func bootDaemon(t *testing.T, args ...string) (apiAddr, debugAddr string, stop func()) {
	t.Helper()
	ready := make(chan [2]string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(
			append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet", "-grace", "10s"}, args...),
			log.New(io.Discard, "", 0),
			func(apiAddr, debugAddr string) { ready <- [2]string{apiAddr, debugAddr} },
		)
	}()
	select {
	case addrs := <-ready:
		apiAddr, debugAddr = addrs[0], addrs[1]
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return apiAddr, debugAddr, func() {
		t.Helper()
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
}

// httpGet returns the status and body of a GET.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestBootServeSigtermDrain boots the full daemon in-process on ephemeral
// ports, verifies both listeners actually serve (API healthz, debug
// /metrics scrape, pprof index), then delivers a real SIGTERM and asserts
// the drain path exits cleanly.
func TestBootServeSigtermDrain(t *testing.T) {
	apiAddr, dbgAddr, stop := bootDaemon(t, "-db", filepath.Join(t.TempDir(), "itag.wal"))

	if status, body := httpGet(t, "http://"+apiAddr+"/api/v1/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", status, body)
	}
	// Create real traffic so the scrape has route samples.
	resp, err := http.Post("http://"+apiAddr+"/api/v1/providers", "application/json", strings.NewReader(`{"name":"p"}`))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("provider create: %v %v", err, resp)
	}
	resp.Body.Close()

	if status, body := httpGet(t, "http://"+dbgAddr+"/metrics"); status != http.StatusOK ||
		!strings.Contains(body, "itag_http_requests_total") ||
		!strings.Contains(body, "itag_store_commits_total") {
		t.Errorf("debug /metrics = %d (len %d)", status, len(body))
	}
	if status, _ := httpGet(t, "http://"+dbgAddr+"/debug/pprof/"); status != http.StatusOK {
		t.Errorf("pprof index status = %d", status)
	}
	// The scrape endpoint must not leak onto the API listener.
	if status, _ := httpGet(t, "http://"+apiAddr+"/metrics"); status != http.StatusNotFound {
		t.Errorf("API-listener /metrics status = %d, want 404", status)
	}

	stop()
}

// TestRestartResumesFromWAL: a daemon restarted on its WAL comes back as
// what the WAL says. It boots, takes a provider, a tagger, a manual project,
// two submitted and judged posts, two provider ratings and one task still
// leased, drains on SIGTERM, and boots again on the same path: the stored
// project issues tasks again (IDs above every stored one), reports the spend
// and the posts that were acknowledged, both users read as they did before,
// and new registrations get IDs no stored record has — where a boot that
// skipped core.Service.ResumeRuns answered "no live run for project" and
// minted prov-000001 again, over the stored provider.
func TestRestartResumesFromWAL(t *testing.T) {
	ctx := context.Background()
	dbPath := filepath.Join(t.TempDir(), "itag.wal")
	boot := func() (base string, stop func()) {
		t.Helper()
		apiAddr, _, stop := bootDaemon(t, "-db", dbPath)
		return "http://" + apiAddr, stop
	}
	userBody := func(base, id string) string {
		t.Helper()
		status, body := httpGet(t, base+"/api/v1/users/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET user %s = %d %q", id, status, body)
		}
		return body
	}
	postsByResource := func(c *client.Client, proj string) map[string]int {
		t.Helper()
		page, err := c.Export(ctx, proj, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		posts := make(map[string]int)
		for _, row := range page.Items {
			posts[row.ID] = row.Posts
		}
		return posts
	}

	base, stop := boot()
	c := client.New(base, nil)
	prov, err := c.RegisterProvider(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := c.RegisterTagger(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: prov, Name: "manual", Budget: 10, PayPerTask: 0.25,
		Resources: []client.UploadedResource{
			{ID: "u1", Kind: "url", Name: "example.com"},
			{ID: "u2", Kind: "url", Name: "example.org"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two posts: the provider approves the first and rejects the second, and
	// the tagger rates the provider once each way.
	var submitted client.Task // the later of the two
	seqs := make(map[string]uint64)
	for _, approved := range []bool{true, false} {
		var err error
		if submitted, err = c.RequestTask(ctx, proj, tagger); err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitTask(ctx, proj, submitted.ID, []string{"go", "database"}); err != nil {
			t.Fatal(err)
		}
		seqs[submitted.ResourceID]++
		if err := c.JudgePost(ctx, proj, submitted.ResourceID, seqs[submitted.ResourceID], approved); err != nil {
			t.Fatal(err)
		}
		if err := c.RateProvider(ctx, prov, approved); err != nil {
			t.Fatal(err)
		}
	}
	leased, err := c.RequestTask(ctx, proj, tagger)
	if err != nil {
		t.Fatal(err)
	}
	aliceBefore := userBody(base, prov)
	bobBefore := userBody(base, tagger)
	if u, err := c.GetUser(ctx, tagger); err != nil || u.Judged != 2 || u.JudgedOK != 1 ||
		u.Earned != 0.25 || u.EarnedTotal != 0.25 || u.ApprovalRate != 0.5 {
		t.Fatalf("tagger before the restart = %+v, %v; want 2 judged, 1 approved, earned one pay", u, err)
	}
	if u, err := c.GetUser(ctx, prov); err != nil || u.Judged != 2 || u.JudgedOK != 1 || u.ApprovalRate != 0.5 {
		t.Fatalf("provider before the restart = %+v, %v; want 2 ratings, 1 positive", u, err)
	}
	postsBefore := postsByResource(c, proj)
	if postsBefore["u1"]+postsBefore["u2"] != 2 || len(postsBefore) != 2 {
		t.Fatalf("export before the restart = %v", postsBefore)
	}
	stop()

	base, stop = boot()
	defer stop()
	c = client.New(base, nil)
	// What was acknowledged is what is reported: the two submitted posts were
	// paid for, and the task leased before the restart is still held — its
	// pay debited, pending, and submittable by its tagger.
	info, err := c.GetProject(ctx, proj)
	if err != nil {
		t.Fatal(err)
	}
	if info.Spent != 3 || info.PendingTasks != 1 {
		t.Errorf("after the restart spent = %d, pending = %d; want the acknowledged posts and the held lease, 1 pending", info.Spent, info.PendingTasks)
	}
	// The judgments and ratings are the user records': the same counts,
	// approval rates and earnings as before the restart.
	if after := userBody(base, tagger); after != bobBefore {
		t.Errorf("the tagger's record changed across the restart:\nbefore %s\nafter  %s", bobBefore, after)
	}
	if err := c.SubmitTask(ctx, proj, leased.ID, []string{"go", "after-restart"}); err != nil {
		t.Errorf("submit of the task leased before the restart: %v", err)
	}
	if info, err = c.GetProject(ctx, proj); err != nil || info.Spent != 3 || info.PendingTasks != 0 {
		t.Errorf("after the held lease was submitted: spent = %d, pending = %d, %v; want 3, 0", info.Spent, info.PendingTasks, err)
	}
	postsBefore[leased.ResourceID]++
	if posts := postsByResource(c, proj); len(posts) != 2 || posts["u1"] != postsBefore["u1"] || posts["u2"] != postsBefore["u2"] {
		t.Errorf("export after the restart = %v, before it %v", posts, postsBefore)
	}
	if task, err := c.RequestTask(ctx, proj, tagger); err != nil {
		t.Errorf("RequestTask on the stored project after the restart: %v", err)
	} else if task.ID <= leased.ID || task.ID <= submitted.ID {
		t.Errorf("task %s issued after the restart is not above the stored %s and %s", task.ID, submitted.ID, leased.ID)
	}
	stored := map[string]bool{prov: true, tagger: true, proj: true}
	mallory, err := c.RegisterProvider(ctx, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	proj2, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: mallory, Name: "second", Budget: 5,
		Resources: []client.UploadedResource{{ID: "v1", Kind: "url", Name: "example.net"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stored[mallory] || stored[proj2] {
		t.Errorf("IDs minted after the restart (%s, %s) reuse a stored one of %v", mallory, proj2, stored)
	}
	if after := userBody(base, prov); after != aliceBefore {
		t.Errorf("the first provider's record changed across the restart:\nbefore %s\nafter  %s", aliceBefore, after)
	}
}

// TestChaosSpecArmsTheStoreBeforeItOpens: a -chaos-spec's disk faults are
// the store's fault hook from its first file operation. A torn write pinned
// to creates kills the store in recovery, so the daemon does not boot; a
// stall and a torn write boot it, the first write answers io_failure, and
// the next boot without chaos recovers the store and serves writes.
func TestChaosSpecArmsTheStoreBeforeItOpens(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "itag.wal")
	err := run([]string{"-addr", "127.0.0.1:0", "-quiet", "-db", dbPath, "-chaos-spec", "torn-write,op=create"},
		log.New(io.Discard, "", 0), func(string, string) { t.Error("a store crashed in recovery booted") })
	if !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("boot with a torn create = %v, want the store's crash", err)
	}

	register := func(base string) int {
		t.Helper()
		resp, err := http.Post(base+"/api/v1/providers", "application/json", strings.NewReader(`{"name":"p"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	apiAddr, _, stop := bootDaemon(t, "-db", dbPath, "-chaos-spec", "stall=1ms,host=itag.wal,op=sync;torn-write,host=itag.wal.seg-")
	if got := register("http://" + apiAddr); got != http.StatusInternalServerError {
		t.Fatalf("a write through a torn segment answered %d, want 500", got)
	}
	stop()
	apiAddr, _, stop = bootDaemon(t, "-db", dbPath)
	defer stop()
	if got := register("http://" + apiAddr); got != http.StatusCreated {
		t.Fatalf("a write after recovery answered %d, want 201", got)
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

	apiAddr, dbgAddr, stop := bootDaemon(t, "-db", t.TempDir(),
		"-cluster-slot", "alpha", "-cluster-ring", "alpha=http://127.0.0.1:1")

	if status, body := httpGet(t, "http://"+apiAddr+"/api/v1/cluster/ring"); status != http.StatusOK ||
		!strings.Contains(body, `"slot":"alpha"`) {
		t.Errorf("cluster ring = %d %q", status, body)
	}
	resp, err := http.Post("http://"+apiAddr+"/api/v1/providers", "application/json", strings.NewReader(`{"name":"p"}`))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("provider create through cluster node: %v %v", err, resp)
	}
	resp.Body.Close()
	if status, body := httpGet(t, "http://"+dbgAddr+"/metrics"); status != http.StatusOK ||
		!strings.Contains(body, "itag_cluster_ring_version") ||
		!strings.Contains(body, "itag_http_requests_total") {
		t.Errorf("cluster debug /metrics = %d (len %d)", status, len(body))
	}

	stop()
}

// TestBootRejectsRetiredShardLayout pins what is left of the in-process
// partitioner at the daemon's edge: the -shards flag is gone (an old
// command line fails loudly instead of silently running unpartitioned),
// so is -group-commit (the writer's natural batching is the one commit
// path), and a -db path holding the shard-NNN.wal families a sharded daemon wrote
// is refused instead of having a fresh, empty WAL created beside the data —
// as is a -db path that is itself the pre-PR-3 single-file WAL, whose reader
// is gone. Likewise a flag the chosen mode cannot honour is a boot error, not a
// silent no-op.
func TestBootRejectsRetiredShardLayout(t *testing.T) {
	shardedDir := t.TempDir()
	for _, name := range []string{"shard-000.wal.seg-00000001", "shard-001.wal.seg-00000001", "shard-001.wal.snapshot"} {
		if err := os.WriteFile(filepath.Join(shardedDir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Likewise the single-file WAL nothing has written since PR 3.
	legacyWAL := filepath.Join(t.TempDir(), "itag.wal")
	if err := os.WriteFile(legacyWAL, []byte(`{"seq":1,"op":"put","table":"t","key":"a","value":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	type rejected struct {
		name string
		args []string
		want []string // substrings of the error
	}
	cases := []rejected{
		{"-shards is an unknown flag", []string{"-db", "", "-shards", "4"},
			[]string{"flag provided but not defined", "-shards"}},
		{"-group-commit is an unknown flag", []string{"-db", "", "-group-commit", "1ms"},
			[]string{"flag provided but not defined", "-group-commit"}},
		{"-db names a sharded directory", []string{"-addr", "127.0.0.1:0", "-db", shardedDir},
			[]string{"retired sharded layout", shardedDir}},
		{"-db names a pre-segment single-file WAL", []string{"-addr", "127.0.0.1:0", "-db", legacyWAL},
			[]string{"pre-segment single-file WAL", legacyWAL, "PR 22"}},
	}
	// Every simulation run steps on its own goroutine: the step pool's two
	// sizing flags are gone, and a standalone daemon given one does not boot.
	for _, bound := range []string{"min", "max"} {
		name := "-pool-" + bound
		cases = append(cases, rejected{name + " is an unknown flag",
			[]string{"-addr", "127.0.0.1:0", "-db", "", name, "4"},
			[]string{"flag provided but not defined", name}})
	}
	// A cluster slot's stack takes none of the standalone server's tuning:
	// a flag it would parse and drop is refused, whatever value it is set to.
	for _, flagArgs := range [][]string{
		{"-admission"}, {"-slo-p99", "200ms"}, {"-resp-cache-bytes", "0"},
	} {
		cases = append(cases, rejected{
			name: flagArgs[0] + " with -cluster-slot",
			args: append([]string{"-addr", "127.0.0.1:0", "-db", t.TempDir(),
				"-cluster-slot", "alpha", "-cluster-ring", "alpha=http://127.0.0.1:1"}, flagArgs...),
			want: []string{flagArgs[0], "not supported with -cluster-slot"},
		})
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
	if left, _ := filepath.Glob(legacyWAL + "*"); len(left) != 1 {
		t.Errorf("the refused open started a segment family beside the old WAL: %v", left)
	}
}

// TestClusterSigtermEndsReplicateExchanges boots two members of one quorum
// ring in-process, each the other's follower, with -write-timeout 1s and a
// -grace far longer than the test allows. A replicate exchange is one
// long-lived request: it must keep acking once it has been open for longer
// than the write timeout, and SIGTERM must end it — as it ends SSE streams —
// so that both daemons drain within a few seconds instead of waiting out the
// grace period on each other's open exchanges.
func TestClusterSigtermEndsReplicateExchanges(t *testing.T) {
	var addrs [2]string
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	ring := "alpha=http://" + addrs[0] + ",beta=http://" + addrs[1]
	type member struct {
		debug string
		exit  chan error
	}
	var members [2]member
	for i, slot := range []string{"alpha", "beta"} {
		ready := make(chan string, 1)
		members[i].exit = make(chan error, 1)
		go func() {
			members[i].exit <- run([]string{"-addr", addrs[i], "-debug-addr", "127.0.0.1:0", "-quiet", "-db", t.TempDir(),
				"-cluster-slot", slot, "-cluster-ring", ring, "-cluster-quorum", "-cluster-pull-interval", "100ms",
				"-write-timeout", "1s", "-grace", "30s"},
				log.New(io.Discard, "", 0), func(_, debugAddr string) { ready <- debugAddr })
		}()
		select {
		case members[i].debug = <-ready:
		case err := <-members[i].exit:
			t.Fatalf("%s exited before ready: %v", slot, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never became ready", slot)
		}
	}
	post := func(name string) {
		t.Helper()
		resp, err := http.Post("http://"+addrs[0]+"/api/v1/providers", "application/json", strings.NewReader(`{"name":"`+name+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-Itag-Quorum") != "ok" {
			t.Fatalf("post %s: %d, X-Itag-Quorum %q; want 201 acked by the follower", name, resp.StatusCode, resp.Header.Get("X-Itag-Quorum"))
		}
	}
	// Failed shipments so far (alpha may have tried beta before it was up).
	pushErrors := func() string {
		_, body := httpGet(t, "http://"+members[0].debug+"/metrics")
		return grepLines(body, "itag_cluster_push_errors_total{")
	}
	post("first")
	before := pushErrors()
	time.Sleep(1500 * time.Millisecond) // the exchanges outlive the write timeout
	post("second")
	if after := pushErrors(); after != before {
		t.Errorf("an exchange broke while it was open: failed shipments went from\n%s\nto\n%s", before, after)
	}

	start := time.Now()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i, slot := range []string{"alpha", "beta"} {
		select {
		case err := <-members[i].exit:
			if err != nil {
				t.Errorf("%s drained with %v", slot, err)
			}
		case <-time.After(5*time.Second - time.Since(start)):
			t.Fatalf("%s did not exit within 5s of SIGTERM: its open replicate exchange held the drain", slot)
		}
	}
	t.Logf("both members drained in %v", time.Since(start))
}

// grepLines returns the lines of s that contain sub.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
