package client

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"itag/internal/core"
	"itag/internal/server"
	"itag/internal/store"
)

// countingServer is an unstarted httptest server that counts the connections
// it accepts.
func countingServer(h http.Handler) (*httptest.Server, *atomic.Int64) {
	srv := httptest.NewUnstartedServer(h)
	opened := new(atomic.Int64)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	return srv, opened
}

// oneConnPerHost is an HTTP client that may hold one connection per server:
// a call that cannot reuse it waits for it to close, then dials.
func oneConnPerHost(t *testing.T) *http.Client {
	tr := &http.Transport{MaxConnsPerHost: 1}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// TestSDKKeepsOneConnection: every call reads its response to EOF, so one
// caller's calls share one keep-alive connection — the tagger's loop, every
// call that decodes nothing, an error and a 304 alike. A body closed unread
// costs the connection, and each round would dial again.
func TestSDKKeepsOneConnection(t *testing.T) {
	ctx := context.Background()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 7)
	t.Cleanup(svc.Close)
	web := server.New(svc, nil)
	srv, opened := countingServer(web)
	srv.Start()
	t.Cleanup(srv.Close)
	c := New(srv.URL, oneConnPerHost(t))

	prov, err := c.RegisterProvider(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := c.RegisterTagger(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := c.CreateProject(ctx, CreateProjectReq{
		ProviderID: prov, Name: "keepalive", Budget: 100, PayPerTask: 0.05, Strategy: "fp-mu",
		Resources: []UploadedResource{{ID: "r1", Kind: "url", Name: "r1"}, {ID: "r2", Kind: "url", Name: "r2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var first Task
	for i := 0; i < 20; i++ {
		task, err := c.RequestTask(ctx, proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = task
		}
		if err := c.SubmitTask(ctx, proj, task.ID, []string{"go", "db"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, call := range []struct {
		name string
		fn   func() error
	}{
		{"Health", func() error { return c.Health(ctx) }},
		{"AddBudget", func() error { return c.AddBudget(ctx, proj, 5) }},
		{"SwitchStrategy", func() error { return c.SwitchStrategy(ctx, proj, "fp") }},
		{"PromoteResource", func() error { return c.PromoteResource(ctx, proj, "r2") }},
		{"StopResource", func() error { return c.StopResource(ctx, proj, "r2") }},
		{"ResumeResource", func() error { return c.ResumeResource(ctx, proj, "r2") }},
		{"RateProvider", func() error { return c.RateProvider(ctx, prov, true) }},
		{"JudgePost", func() error { return c.JudgePost(ctx, proj, first.ResourceID, 1, true) }},
	} {
		if err := call.fn(); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
	}
	var ae *APIError
	if err := c.SubmitTask(ctx, proj, "no-such-task", []string{"x"}); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("submit of an unknown task = %v, want a 400", err)
	}
	before := web.RespCacheStats().NotModified
	for i := 0; i < 2; i++ {
		if _, err := c.GetResource(ctx, proj, "r1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := web.RespCacheStats().NotModified - before; got != 1 {
		t.Fatalf("the second GetResource drew %d 304s, want 1", got)
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("the run opened %d connections, want 1", n)
	}

	// A ClusterClient keeps one per node: writes routed to the node the ring
	// names take a 421 hop to the owner, and the refused attempt, the ring
	// refresh it triggers and the write itself all reuse what is open.
	var (
		stubs  [2]*stubNode
		srvs   [2]*httptest.Server
		counts [2]*atomic.Int64
	)
	ring := &RingInfo{Version: 1, VNodes: 4}
	for i, slot := range []string{"a", "b"} {
		stubs[i] = &stubNode{t: t, name: slot, ring: ring}
		srvs[i], counts[i] = countingServer(stubs[i])
		ring.Members = append(ring.Members, RingMember{Slot: slot, Addr: "http://" + srvs[i].Listener.Addr().String()})
	}
	for _, s := range srvs {
		s.Start()
		t.Cleanup(s.Close)
	}
	cc := NewCluster([]string{ring.Members[0].Addr}, oneConnPerHost(t))
	const key = "proj-000001"
	named, err := cc.Leader(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	routed, owner := 0, 1
	if named.base != ring.Members[0].Addr {
		routed, owner = 1, 0
	}
	stubs[owner].owner = true
	stubs[routed].hint = ring.Members[owner].Addr
	for i := 0; i < 5; i++ {
		if err := cc.SubmitTask(ctx, key, "task", []string{"go"}); err != nil {
			t.Fatalf("routed write %d: %v", i, err)
		}
		if err := cc.JudgePost(ctx, key, "r1", 1, true); err != nil {
			t.Fatalf("routed judge %d: %v", i, err)
		}
	}
	if stubs[routed].misdirected != 10 {
		t.Fatalf("the ring-named node refused %d writes, want all 10 (one 421 hop each)", stubs[routed].misdirected)
	}
	for i, n := range counts {
		if got := n.Load(); got != 1 {
			t.Errorf("node %s accepted %d connections, want 1", stubs[i].name, got)
		}
	}
}

// TestSDKTruncatedBodyAfter2xx: a 2xx is the server's answer — the status is
// written after the commit — so a body cut short afterwards does not fail a
// call that decodes nothing; a call that decodes the body reports the read.
func TestSDKTruncatedBodyAfter2xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "64")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"project":{"id":`))
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	c := New(srv.URL, srv.Client())
	if err := c.SubmitTask(ctx, "proj-1", "task-1", []string{"go"}); err != nil {
		t.Errorf("SubmitTask after a 200 with a truncated body = %v, want nil", err)
	}
	if _, err := c.GetProject(ctx, "proj-1"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("GetProject of a truncated body = %v, want the read error", err)
	}
}
