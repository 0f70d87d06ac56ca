package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"itag/internal/cluster"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// TestRingWireFormRoundTrips pins the one thing the SDK and the server
// still have to agree on now that they share the ring code: the JSON wire
// form. The ring a node serves must decode into the SDK's public RingInfo
// and encode back to the very bytes the node sent.
func TestRingWireFormRoundTrips(t *testing.T) {
	cc, tr, _ := startTestCluster(t, []string{"alpha", "beta", "gamma"})
	resp, err := tr.Client().Get("http://beta/api/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info RingInfo
	if err := json.Unmarshal(served, &info); err != nil {
		t.Fatalf("served ring does not decode into RingInfo: %v\n%s", err, served)
	}
	back, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(back), strings.TrimSpace(string(served)); got != want {
		t.Fatalf("RingInfo re-encodes differently:\n got %s\nwant %s", got, want)
	}
	// And the ring the SDK installs is that same table.
	if err := cc.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cc.Ring(), info) {
		t.Fatalf("installed ring %+v, served %+v", cc.Ring(), info)
	}
}

// TestSDKDependsOnlyOnTheRingLeaf pins the SDK's import boundary: of the
// server's internal packages it may reach only two leaves, internal/ring and
// the JSON codec internal/wire, and each of them imports nothing but the
// standard library — so importing the SDK never drags the store, the cluster
// node or the HTTP server into a client binary.
func TestSDKDependsOnlyOnTheRingLeaf(t *testing.T) {
	nonStd := func(pkg string) []string {
		out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.ImportPath}}{{end}}", pkg).Output()
		if err != nil {
			t.Skipf("go list unavailable: %v", err)
		}
		return strings.Fields(string(out))
	}
	if got, want := nonStd("itag/client"), []string{"itag/internal/ring", "itag/internal/wire", "itag/client"}; !reflect.DeepEqual(got, want) {
		t.Errorf("client's non-stdlib dependencies = %v, want %v", got, want)
	}
	for _, leaf := range []string{"itag/internal/ring", "itag/internal/wire"} {
		if got, want := nonStd(leaf), []string{leaf}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s's non-stdlib dependencies = %v, want only itself", leaf, got)
		}
	}
}

// startTestCluster boots an in-process cluster and returns a ClusterClient
// wired to it over the fake network, plus the transport for failure drills.
func startTestCluster(t *testing.T, slots []string) (*ClusterClient, *cluster.HandlerTransport, map[string]*cluster.Node) {
	t.Helper()
	tr := cluster.NewHandlerTransport()
	members := make([]cluster.Member, len(slots))
	for i, s := range slots {
		members[i] = cluster.Member{Slot: s, Addr: "http://" + s}
	}
	ring, err := cluster.NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[string]*cluster.Node, len(slots))
	for _, s := range slots {
		n, err := cluster.New(cluster.Options{
			Slot: s, Ring: ring.Clone(), Dir: t.TempDir(),
			Store: store.Options{SegmentBytes: 4096}, Seed: 11,
			Replicas: 2, PullInterval: 5 * time.Millisecond,
			HTTPClient: tr.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[s] = n
		tr.Register(s, n.Handler())
		t.Cleanup(func() { _ = n.Close() })
	}
	cc := NewCluster([]string{"http://" + slots[0]}, tr.Client())
	return cc, tr, nodes
}

// seedClusterProject provisions a project with participants directly on
// whichever node mints it, returning (ownerSlot, projectID, taggerID).
func seedClusterProject(t *testing.T, nodes map[string]*cluster.Node) (string, string, string) {
	t.Helper()
	ctx := context.Background()
	var slot string
	for s := range nodes {
		slot = s
		break
	}
	svc := nodes[slot].Service(slot)
	if _, err := svc.RegisterProvider(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	tagger, err := svc.RegisterTagger(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	provider, err := svc.RegisterProvider(ctx, "p2")
	if err != nil {
		t.Fatal(err)
	}
	project, err := svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: provider, Name: "sdk-test", Budget: 100, PayPerTask: 0.05,
		Strategy: "random",
		Resources: []dataset.Resource{
			{ID: "res-0000", Name: "res-0000", Popularity: 1},
			{ID: "res-0001", Name: "res-0001", Popularity: 1},
		},
		SeedPosts: map[string][][]string{"res-0000": {{"go", "seed"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return slot, project, tagger
}

// TestClusterClientRoutesAndFollowsPromotion drives the SDK against a live
// in-process cluster: routed task flow through the leader, follower reads,
// and transparent re-routing after a promotion invalidates the ring.
func TestClusterClientRoutesAndFollowsPromotion(t *testing.T) {
	ctx := context.Background()
	cc, tr, nodes := startTestCluster(t, []string{"alpha", "beta", "gamma"})
	slot, project, tagger := seedClusterProject(t, nodes)

	if err := cc.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if v := cc.Ring().Version; v != 1 {
		t.Fatalf("ring version %d, want 1", v)
	}

	// The routed task flow lands on the owner without the caller naming it.
	task, err := cc.RequestTask(ctx, project, tagger)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.SubmitTask(ctx, project, task.ID, []string{"go", "sdk"}); err != nil {
		t.Fatal(err)
	}
	info, err := cc.GetProject(ctx, project)
	if err != nil {
		t.Fatal(err)
	}
	if info.Project.ID != project {
		t.Fatalf("GetProject = %+v", info)
	}
	// The resource screen is the live run's: owner only, follower reads or not.
	for _, c := range []*ClusterClient{cc, cc.WithFollowerReads()} {
		if st, err := c.GetResource(ctx, project, task.ResourceID); err != nil || st.ID != task.ResourceID || st.Posts == 0 {
			t.Fatalf("GetResource = %+v, %v; want %s with the post just submitted", st, err, task.ResourceID)
		}
	}

	// Follower reads serve once replication catches up.
	stale := cc.WithFollowerReads()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = stale.GetProject(ctx, project); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower read never caught up: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Promote a follower; the SDK still holds the old ring, hits the old
	// owner's slot led elsewhere, and must recover on its own. Wait for
	// the survivor's replica to absorb the leader's full WAL first —
	// promoting mid-pull would legitimately lose the unreplicated tail,
	// which is not the behavior under test here.
	var surv string
	for s := range nodes {
		if s != slot {
			surv = s
			break
		}
	}
	leaderSeq := nodes[slot].DB(slot).AppliedSeq()
	deadline = time.Now().Add(5 * time.Second)
	for {
		rdb := nodes[surv].ReplicaDB(slot)
		if rdb != nil && rdb.AppliedSeq() >= leaderSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor replica never caught up to leader seq %d", leaderSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tr.Register(slot, nil)
	if err := nodes[surv].Promote(ctx, slot); err != nil {
		t.Fatal(err)
	}
	// The dead node's address stays dark: the SDK must discover the new
	// ring through the survivors, not through a revived host.
	task, err = cc.RequestTask(ctx, project, tagger)
	if err != nil {
		t.Fatalf("routed request after promotion: %v", err)
	}
	if err := cc.SubmitTask(ctx, project, task.ID, []string{"go", "after-promote"}); err != nil {
		t.Fatal(err)
	}
	if v := cc.Ring().Version; v < 2 {
		t.Fatalf("SDK did not adopt the promoted ring (version %d)", v)
	}
	if st, err := cc.GetResource(ctx, project, task.ResourceID); err != nil || st.ID != task.ResourceID {
		t.Fatalf("GetResource after promotion = %+v, %v", st, err)
	}

	// Export through the SDK sees both phases' tags.
	page, err := cc.Export(ctx, project, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]bool{}
	for _, r := range page.Items {
		for _, tf := range r.TopTags {
			tags[tf.Tag] = true
		}
	}
	if !tags["sdk"] || !tags["after-promote"] {
		t.Fatalf("export missing phase tags: %v", tags)
	}
}

// stubNode is a cluster node reduced to what validators need: it serves the
// ring, answers every other GET with one body under one ETag of its own, 304
// to that tag, and counts what it was offered. Without the follower-read
// header, or with refuse set, a node that does not own the key answers 421,
// naming hint as the owner when it is set.
type stubNode struct {
	t      *testing.T
	name   string
	ring   *RingInfo
	owner  bool
	refuse bool
	hint   string

	full, notModified, foreign, misdirected int
}

func (s *stubNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Path == "/api/v1/cluster/ring" {
		_ = json.NewEncoder(w).Encode(s.ring)
		return
	}
	if !s.owner && (s.refuse || r.Header.Get("X-Itag-Read") != "follower") {
		s.misdirected++
		if s.hint != "" {
			w.Header().Set("X-Itag-Owner", s.hint)
		}
		w.WriteHeader(http.StatusMisdirectedRequest)
		_, _ = w.Write([]byte(`{"error":{"code":"not_owner","message":"led elsewhere"}}`))
		return
	}
	etag := `"` + s.name + `-v1"`
	w.Header().Set("Etag", etag)
	switch inm := r.Header.Get("If-None-Match"); inm {
	case etag:
		s.notModified++
		w.WriteHeader(http.StatusNotModified)
		return
	case "":
	default:
		s.foreign++
		s.t.Errorf("%s was offered %s, a validator it never minted", s.name, inm)
	}
	s.full++
	// One body decodes as an export page and as a resource screen.
	_, _ = w.Write([]byte(`{"id":"` + s.name + `","items":[{"id":"` + s.name + `","top_tags":[{"tag":"go"}]}]}`))
}

// TestClusterClientRevalidatesPerNode: a ClusterClient revalidates the way a
// Client does, and a validator goes back only to the node that minted it —
// two nodes answering one path under different tags each see their own tag
// or none, a fallback to the leader neither offers the follower's tag nor
// costs the follower its entry, and every copy and node client derived from
// one ClusterClient shares the one cache.
func TestClusterClientRevalidatesPerNode(t *testing.T) {
	ctx := context.Background()
	tr := cluster.NewHandlerTransport()
	ring := &RingInfo{Version: 1, VNodes: 4, Members: []RingMember{{Slot: "a", Addr: "http://a"}, {Slot: "b", Addr: "http://b"}}}
	cc := NewCluster([]string{"http://a"}, tr.Client())
	nodes := map[string]*stubNode{}
	for _, m := range ring.Members {
		nodes[m.Addr] = &stubNode{t: t, name: m.Slot, ring: ring}
		tr.Register(m.Slot, nodes[m.Addr])
	}
	const project = "proj-000001"
	leaderClient, err := cc.Leader(ctx, project)
	if err != nil {
		t.Fatal(err)
	}
	leader := nodes[leaderClient.base]
	leader.owner = true
	follower := nodes["http://a"]
	if follower == leader {
		follower = nodes["http://b"]
	}
	stale := cc.WithFollowerReads()
	export := func(c *ClusterClient, from *stubNode, when string) ExportPage {
		t.Helper()
		page, err := c.Export(ctx, project, "", 2)
		if err != nil || len(page.Items) != 1 || page.Items[0].ID != from.name || page.Items[0].TopTags[0].Tag != "go" {
			t.Fatalf("%s: Export = %+v, %v; want %s's page", when, page, err, from.name)
		}
		return page
	}
	counts := func(n *stubNode, full, notModified int, when string) {
		t.Helper()
		if n.full != full || n.notModified != notModified {
			t.Fatalf("%s: %s served %d full and %d not-modified answers, want %d and %d", when, n.name, n.full, n.notModified, full, notModified)
		}
	}

	first := export(stale, follower, "first follower read")
	first.Items[0].TopTags[0].Tag = "MUTATED" // results are the caller's
	export(stale, follower, "second follower read")
	counts(follower, 1, 1, "the same follower read again")
	counts(leader, 0, 0, "two follower reads")

	// The follower refuses (too stale): the leader is asked, and is not
	// offered the follower's tag (stubNode fails the test if it is).
	follower.refuse = true
	export(stale, leader, "fallback to the leader")
	counts(leader, 1, 0, "first fallback")
	export(stale, leader, "second fallback")
	counts(leader, 1, 1, "second fallback")
	// Back in bounds, the follower's entry is still there, beside the leader's.
	follower.refuse = false
	export(stale, follower, "follower back in bounds")
	counts(follower, 1, 2, "follower back in bounds")
	export(cc, leader, "leader read")
	counts(leader, 1, 2, "leader read")

	// Copies, and the node clients handed out, share the one cache.
	export(cc.WithRetry(1, time.Millisecond).WithFollowerReads(), follower, "derived copy")
	counts(follower, 1, 3, "a WithRetry/WithFollowerReads copy")
	for i := 0; i < 2; i++ {
		c, err := cc.Leader(ctx, project)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if st, err := c.GetResource(ctx, project, "r1"); err != nil || st.ID != leader.name {
				t.Fatalf("Leader().GetResource = %+v, %v", st, err)
			}
		}
	}
	counts(leader, 2, 5, "four GetResource calls over two Leader() clients")
	if st, err := cc.GetResource(ctx, project, "r1"); err != nil || st.ID != leader.name {
		t.Fatalf("GetResource = %+v, %v", st, err)
	}
	counts(leader, 2, 6, "the routed GetResource")
	if follower.foreign+leader.foreign != 0 {
		t.Fatalf("%d validators crossed nodes", follower.foreign+leader.foreign)
	}
}
