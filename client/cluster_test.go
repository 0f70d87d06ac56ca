package client

import (
	"context"
	"encoding/json"
	"io"
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
// server's internal packages it may reach only internal/ring, and that leaf
// imports nothing but the standard library — so importing the SDK never
// drags the store, the cluster node or the HTTP server into a client binary.
func TestSDKDependsOnlyOnTheRingLeaf(t *testing.T) {
	nonStd := func(pkg string) []string {
		out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.ImportPath}}{{end}}", pkg).Output()
		if err != nil {
			t.Skipf("go list unavailable: %v", err)
		}
		return strings.Fields(string(out))
	}
	if got, want := nonStd("itag/client"), []string{"itag/internal/ring", "itag/client"}; !reflect.DeepEqual(got, want) {
		t.Errorf("client's non-stdlib dependencies = %v, want %v", got, want)
	}
	if got, want := nonStd("itag/internal/ring"), []string{"itag/internal/ring"}; !reflect.DeepEqual(got, want) {
		t.Errorf("internal/ring's non-stdlib dependencies = %v, want only itself", got)
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
