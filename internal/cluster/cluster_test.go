package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// testCluster is an in-process cluster wired over an in-memory Network.
type testCluster struct {
	t     *testing.T
	tr    *Network
	nodes map[string]*Node
	httpc *http.Client
	torn  tornStores
}

// tornStores is a test cluster's store fault hook, given to every store its
// nodes open: a store whose base path is armed crashes at its next write to
// a segment, half the write on disk — a process dying mid-append.
type tornStores struct{ armed sync.Map }

func (ts *tornStores) fault(op store.FileOp, path string, n int) (bool, int) {
	base, _, seg := strings.Cut(path, ".seg-")
	if _, armed := ts.armed.Load(base); !seg || op != store.FileWrite || !armed {
		return false, 0
	}
	return true, n / 2
}

// tear arms db's next segment write to tear.
func (tc *testCluster) tear(db *store.DB) { tc.torn.armed.Store(db.Path(), true) }

// startCluster boots one node per slot, all sharing one fake-network
// transport. The heartbeat interval is short so a retry or an idle stream
// costs milliseconds of test time.
func startCluster(t *testing.T, slots []string, tune func(*Options)) *testCluster {
	t.Helper()
	tr := NewNetwork()
	t.Cleanup(tr.Close) // after every node's Close
	members := make([]Member, len(slots))
	for i, s := range slots {
		members[i] = Member{Slot: s, Addr: "http://" + s}
	}
	ring, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, tr: tr, nodes: make(map[string]*Node), httpc: tr.Client()}
	for _, s := range slots {
		o := Options{
			Slot:         s,
			Ring:         ring.Clone(),
			Dir:          t.TempDir(),
			Store:        store.Options{SegmentBytes: 4096, Fault: tc.torn.fault},
			Seed:         7,
			Replicas:     2,
			PullInterval: 5 * time.Millisecond,
			HTTPClient:   tr.Client(),
		}
		if tune != nil {
			tune(&o)
		}
		n, err := New(o)
		if err != nil {
			t.Fatalf("start node %s: %v", s, err)
		}
		tc.nodes[s] = n
		tr.Register(s, n.Handler())
		t.Cleanup(func() { _ = n.Close() })
	}
	return tc
}

// do performs one request against the fake network and decodes out.
func (tc *testCluster) do(method, url string, body, out any, hdr ...string) (*http.Response, error) {
	tc.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			tc.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		tc.t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := tc.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp, fmt.Errorf("decode %s: %w (body %q)", url, err, data)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

// seedProject provisions a manual project (with participants) on the node
// that owns its minted ID and returns (ownerSlot, projectID, taggerID).
func (tc *testCluster) seedProject(nres int) (string, string, string) {
	tc.t.Helper()
	ctx := context.Background()
	// Any node works: its ID filter mints a locally-owned project.
	var slot string
	for s := range tc.nodes {
		slot = s
		break
	}
	svc := tc.nodes[slot].Service(slot)
	provider, err := svc.RegisterProvider(ctx, "cluster-provider")
	if err != nil {
		tc.t.Fatal(err)
	}
	tagger, err := svc.RegisterTagger(ctx, "cluster-tagger")
	if err != nil {
		tc.t.Fatal(err)
	}
	resources := make([]dataset.Resource, nres)
	seeds := make(map[string][][]string, nres)
	for i := range resources {
		id := fmt.Sprintf("res-%04d", i)
		resources[i] = dataset.Resource{ID: id, Name: id, Popularity: 1}
		seeds[id] = [][]string{{"go", "seed"}}
	}
	project, err := svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: provider, Name: "cluster-test",
		Budget: 500, PayPerTask: 0.05, Strategy: "random",
		Resources: resources, SeedPosts: seeds,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	// The filter guarantees the minted IDs route home.
	ring := tc.nodes[slot].Ring()
	if got := ring.Owner(project); got != slot {
		tc.t.Fatalf("minted project %s is owned by %s, not %s", project, got, slot)
	}
	return slot, project, tagger
}

// waitCaughtUp blocks until every follower of slot has applied the
// leader's current watermark.
func (tc *testCluster) waitCaughtUp(slot string) {
	tc.t.Helper()
	leader := tc.nodes[slot].DB(slot)
	deadline := time.Now().Add(5 * time.Second)
	for {
		want := leader.AppliedSeq()
		ok := true
		for s, n := range tc.nodes {
			if s == slot {
				continue
			}
			if rep := n.ReplicaDB(slot); rep != nil && rep.AppliedSeq() < want {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("followers of %s never caught up to seq %d", slot, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterRoutingReplicationAndFollowerReads drives the happy path end
// to end over the fake network: entity-group placement, 421 redirects with
// owner hints, WAL-segment replication to both followers, opt-in follower
// reads, and the lag watermark in the Prometheus exposition.
func TestClusterRoutingReplicationAndFollowerReads(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	slot, project, tagger := tc.seedProject(8)

	// Work the project over HTTP through its owner.
	ownerURL := "http://" + slot
	for i := 0; i < 5; i++ {
		var task store.TaskRec
		resp, err := tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/tasks",
			map[string]string{"tagger_id": tagger}, &task)
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("request task: %v (status %v)", err, resp.Status)
		}
		resp, err = tc.do(http.MethodPost,
			fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", ownerURL, project, task.ID),
			map[string][]string{"tags": {"go", "cluster"}}, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("submit task: %v (status %v)", err, resp.Status)
		}
	}

	// A non-owner node redirects with the owner's address and the
	// not_owner envelope code.
	var other string
	for s := range tc.nodes {
		if s != slot {
			other = s
			break
		}
	}
	resp, err := tc.do(http.MethodGet, "http://"+other+"/api/v1/projects/"+project, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("non-owner read: status %v, want 421", resp.Status)
	}
	if got := resp.Header.Get(HeaderOwner); got != ownerURL {
		t.Fatalf("X-Itag-Owner = %q, want %q", got, ownerURL)
	}
	body, _ := io.ReadAll(resp.Body)
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != api.CodeNotOwner {
		t.Fatalf("421 body = %s, want code %q", body, api.CodeNotOwner)
	}

	// Both followers converge on the leader's watermark, and an opt-in
	// follower read serves the replicated state.
	tc.waitCaughtUp(slot)
	var info struct {
		Project struct {
			ID string `json:"id"`
		} `json:"project"`
	}
	resp, err = tc.do(http.MethodGet, "http://"+other+"/api/v1/projects/"+project, nil, &info,
		HeaderRead, ReadFollower)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("follower read: status %v body %s", resp.Status, body)
	}
	if got := resp.Header.Get(HeaderServedBy); got != other {
		t.Fatalf("X-Itag-Served-By = %q, want %q", got, other)
	}
	if info.Project.ID != project {
		t.Fatalf("follower read returned project %q, want %q", info.Project.ID, project)
	}

	// A follower export matches the leader's, byte for byte.
	var leaderExport, followerExport json.RawMessage
	if _, err := tc.do(http.MethodGet, ownerURL+"/api/v1/projects/"+project+"/export", nil, &leaderExport); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.do(http.MethodGet, "http://"+other+"/api/v1/projects/"+project+"/export", nil, &followerExport,
		HeaderRead, ReadFollower); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leaderExport, followerExport) {
		t.Fatalf("follower export diverges from leader:\n%s\nvs\n%s", leaderExport, followerExport)
	}

	// The scrape surface carries both ends of the node's streams — follower
	// lag and applied seq per followed slot, shipments and the per-follower
	// watermark per led slot, in async mode too — as a parseable exposition,
	// and nothing of the retired pull loop.
	rec := httptest.NewRecorder()
	tc.nodes[other].PromHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := api.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if err := api.CheckHistograms(fams); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, f := range fams {
		found[f.Name] = true
		if strings.HasPrefix(f.Name, "itag_cluster_pull") {
			t.Errorf("exposition still carries %s", f.Name)
		}
		switch f.Name {
		case "itag_cluster_pushes_total", "itag_cluster_push_bytes_total", "itag_cluster_quorum_confirmed_seq":
			for _, smp := range f.Samples {
				labels := map[string]string{}
				for _, l := range smp.Labels {
					labels[l.Name] = l.Value
				}
				if labels["slot"] == "" || labels["follower"] == "" {
					t.Errorf("%s sample lacks a slot or follower label: %v", f.Name, smp.Labels)
				}
			}
			if len(f.Samples) != 2 {
				t.Errorf("%s has %d samples, want one per follower of the led slot", f.Name, len(f.Samples))
			}
		}
	}
	for _, want := range []string{
		"itag_cluster_ring_version", "itag_cluster_leader_applied_seq",
		"itag_cluster_replica_applied_seq", "itag_cluster_replica_lag",
		"itag_cluster_pushes_total", "itag_cluster_push_bytes_total", "itag_cluster_quorum_confirmed_seq",
	} {
		if !found[want] {
			t.Errorf("exposition is missing %s", want)
		}
	}

	// Sanity: the status endpoint agrees the follower is caught up, and the
	// leader's reports each follower's watermark at its own.
	var st statusResp
	if _, err := tc.do(http.MethodGet, "http://"+other+"/api/v1/cluster/status", nil, &st); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Slots {
		if s.Slot == slot && s.Role == "follower" && s.Lag != 0 {
			t.Errorf("status reports lag %d for caught-up follower", s.Lag)
		}
	}
	// (A follower has applied a shipment a moment before the leader reads its
	// ack, so the leader's view is polled.)
	waitFor(t, 5*time.Second, "the leader's status to show both followers acked up to its watermark", func() bool {
		if _, err := tc.do(http.MethodGet, ownerURL+"/api/v1/cluster/status", nil, &st); err != nil {
			t.Fatal(err)
		}
		for _, s := range st.Slots {
			if s.Slot != slot {
				continue
			}
			if len(s.Followers) != 2 {
				t.Fatalf("leader status names %d followers of %s, want 2: %+v", len(s.Followers), slot, s)
			}
			return s.Followers[0].AckedSeq == s.AppliedSeq && s.Followers[1].AckedSeq == s.AppliedSeq
		}
		return false
	})
}

// TestFollowerReadFreshAfterLeaderWrite pins the bounded-staleness
// contract against decode caching: a follower read decodes a record, the
// leader then mutates it, and once the follower's watermark catches up a
// re-read must serve the new state. The replica's Catalog caches that
// decode, and its response cache the encoded body, so both must have been
// invalidated by the replicated apply (Catalog.ApplyReplicated) — a write
// slipped in underneath the Catalog would leave them served forever.
func TestFollowerReadFreshAfterLeaderWrite(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta"}, nil)
	slot, project, _ := tc.seedProject(4)
	ownerURL := "http://" + slot
	var other string
	for s := range tc.nodes {
		if s != slot {
			other = s
		}
	}

	// Prime the replica's read path with the pre-write state.
	tc.waitCaughtUp(slot)
	var info struct {
		Project struct {
			Budget int `json:"budget"`
		} `json:"project"`
	}
	resp, err := tc.do(http.MethodGet, "http://"+other+"/api/v1/projects/"+project, nil, &info,
		HeaderRead, ReadFollower)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("priming follower read: %v (status %v)", err, resp.Status)
	}
	before := info.Project.Budget

	resp, err = tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/budget",
		map[string]int{"extra": 77}, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("add budget: %v (status %v)", err, resp.Status)
	}

	tc.waitCaughtUp(slot)
	resp, err = tc.do(http.MethodGet, "http://"+other+"/api/v1/projects/"+project, nil, &info,
		HeaderRead, ReadFollower)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower re-read: %v (status %v)", err, resp.Status)
	}
	if got, want := info.Project.Budget, before+77; got != want {
		t.Fatalf("follower read budget = %d after leader write, want %d (stale decode served past the watermark)", got, want)
	}
}

// TestClusterPromotionAfterCrash is the kill-a-node drill in test form: a
// leader's store is torn mid-append and the leader is dropped from the
// network; a follower promotes its replica, resumes the interrupted run,
// pushes a bumped ring, and serves every acknowledged write plus new ones.
func TestClusterPromotionAfterCrash(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	slot, project, tagger := tc.seedProject(8)
	ownerURL := "http://" + slot

	// Acknowledged writes: tasks completed over HTTP before the crash.
	acked := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		var task store.TaskRec
		if _, err := tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/tasks",
			map[string]string{"tagger_id": tagger}, &task); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.do(http.MethodPost,
			fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", ownerURL, project, task.ID),
			map[string][]string{"tags": {"go", "pre-crash"}}, nil); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, task.ID)
	}
	tc.waitCaughtUp(slot)

	// Kill the leader: every further append crashes, and the node drops
	// off the network.
	tc.tear(tc.nodes[slot].DB(slot))
	tc.tr.Register(slot, nil)

	// Promote on a surviving follower.
	var surv string
	for s := range tc.nodes {
		if s != slot {
			surv = s
			break
		}
	}
	var promoted struct {
		Slot        string `json:"slot"`
		RingVersion uint64 `json:"ring_version"`
	}
	resp, err := tc.do(http.MethodPost, "http://"+surv+"/api/v1/cluster/promote",
		map[string]string{"slot": slot}, &promoted)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %v (status %v)", err, resp.Status)
	}
	if promoted.RingVersion < 2 {
		t.Fatalf("promotion did not bump the ring: %+v", promoted)
	}

	// The promoted node serves the acknowledged writes...
	survURL := "http://" + surv
	var info struct {
		Project struct {
			ID string `json:"id"`
		} `json:"project"`
		Spent int `json:"spent"`
	}
	if resp, err = tc.do(http.MethodGet, survURL+"/api/v1/projects/"+project, nil, &info); err != nil || resp.StatusCode != 200 {
		t.Fatalf("read after promote: %v (status %v)", err, resp.Status)
	}
	if info.Project.ID != project {
		t.Fatalf("promoted read: got %+v", info)
	}
	// Every acknowledged submission survives: the export carries the
	// pre-crash tags.
	var export json.RawMessage
	if _, err := tc.do(http.MethodGet, survURL+"/api/v1/projects/"+project+"/export", nil, &export); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(export, []byte("pre-crash")) {
		t.Fatalf("acknowledged tags missing from post-promotion export: %s", export)
	}
	for _, id := range acked {
		resp, err := tc.do(http.MethodGet, survURL+"/api/v1/projects/"+project, nil, nil)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("acked task %s lost after promote: %v %v", id, err, resp.Status)
		}
	}

	// ...and accepts new ones: the interrupted manual run was resumed.
	var task store.TaskRec
	resp, err = tc.do(http.MethodPost, survURL+"/api/v1/projects/"+project+"/tasks",
		map[string]string{"tagger_id": tagger}, &task)
	if err != nil || resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("new task after promote: %v (status %v, body %s)", err, resp.Status, body)
	}
	for _, old := range acked {
		if task.ID == old {
			t.Fatalf("post-promotion task reused acknowledged ID %s", task.ID)
		}
	}
	if _, err := tc.do(http.MethodPost,
		fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", survURL, project, task.ID),
		map[string][]string{"tags": {"go", "post-promote"}}, nil); err != nil {
		t.Fatal(err)
	}

	// The third node learned the pushed ring and redirects to the new
	// leader now.
	var third string
	for s := range tc.nodes {
		if s != slot && s != surv {
			third = s
			break
		}
	}
	var ringGot Ring
	if _, err := tc.do(http.MethodGet, "http://"+third+"/api/v1/cluster/ring", nil, &ringGot); err != nil {
		t.Fatal(err)
	}
	if ringGot.Version != promoted.RingVersion {
		t.Fatalf("third node ring v%d, want v%d", ringGot.Version, promoted.RingVersion)
	}
	resp, err = tc.do(http.MethodGet, "http://"+third+"/api/v1/projects/"+project, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMisdirectedRequest || resp.Header.Get(HeaderOwner) != survURL {
		t.Fatalf("third node: status %v owner %q, want 421 owned by %q",
			resp.Status, resp.Header.Get(HeaderOwner), survURL)
	}

	// A stale ring push (the old version) must not roll the promotion back.
	oldRing := tc.nodes[third].Ring().Clone()
	oldRing.Version = 1
	resp, err = tc.do(http.MethodPost, "http://"+third+"/api/v1/cluster/ring", oldRing, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stale ring push: %v %v", err, resp.Status)
	}
	if got := tc.nodes[third].Ring().Version; got != promoted.RingVersion {
		t.Fatalf("stale push rolled the ring back to v%d", got)
	}
}

// TestPromotionKeepsTheFollowerStack: a promotion changes the role of the
// stack a follower has served reads from, not the stack. The promoted slot's
// store is the replica's own *store.DB, and the validators the follower
// minted for a project's dashboard and export, replayed as If-None-Match on
// the promoted leader after a post there, draw a 200 that shows the post —
// never a 304 for what the answer was before the role change.
func TestPromotionKeepsTheFollowerStack(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	slot, project, tagger := tc.seedProject(4)
	tc.waitCaughtUp(slot)
	surv := tc.pushedFollower(slot)
	survURL := "http://" + surv
	dashboard, export := "/api/v1/projects/"+project, "/api/v1/projects/"+project+"/export"
	type dash struct {
		Spent int `json:"spent"`
	}
	etags := map[string]string{}
	var before dash
	for _, path := range []string{dashboard, export} {
		resp, body := tc.get(survURL+path, HeaderRead, ReadFollower)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderServedBy) != surv || resp.Header.Get("Etag") == "" {
			t.Fatalf("follower read of %s: %d, served by %q, ETag %q", path, resp.StatusCode,
				resp.Header.Get(HeaderServedBy), resp.Header.Get("Etag"))
		}
		etags[path] = resp.Header.Get("Etag")
		if path == dashboard {
			if err := json.Unmarshal(body, &before); err != nil {
				t.Fatal(err)
			}
		}
	}
	replicaDB := tc.nodes[surv].ReplicaDB(slot)

	// The owner drops off the network, and the follower takes the slot over.
	tc.tear(tc.nodes[slot].DB(slot))
	tc.tr.Register(slot, nil)
	if err := tc.nodes[surv].Promote(context.Background(), slot); err != nil {
		t.Fatal(err)
	}
	if got := tc.nodes[surv].DB(slot); got == nil || got != replicaDB {
		t.Fatalf("the promoted slot's store is %p, want the replica's %p", got, replicaDB)
	}
	if rep := tc.nodes[surv].ReplicaDB(slot); rep != nil {
		t.Fatalf("the promoted slot is still followed, over %p", rep)
	}

	var task store.TaskRec
	resp, err := tc.do(http.MethodPost, survURL+dashboard+"/tasks", map[string]string{"tagger_id": tagger}, &task)
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("task on the promoted leader: %v (status %v)", err, resp.Status)
	}
	resp, err = tc.do(http.MethodPost, fmt.Sprintf("%s%s/tasks/%s/submit", survURL, dashboard, task.ID),
		map[string][]string{"tags": {"go", "after-promote"}}, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("submit on the promoted leader: %v (status %v)", err, resp.Status)
	}

	for _, path := range []string{dashboard, export} {
		resp, body := tc.get(survURL+path, "If-None-Match", etags[path])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s revalidated with the follower's %s after a post: %d, want 200", path, etags[path], resp.StatusCode)
		}
		if path == export && !bytes.Contains(body, []byte("after-promote")) {
			t.Fatalf("the export after the post does not show it: %s", body)
		}
		var after dash
		if path == dashboard {
			if err := json.Unmarshal(body, &after); err != nil || after.Spent <= before.Spent {
				t.Fatalf("dashboard spent %d after the post (%v), was %d", after.Spent, err, before.Spent)
			}
		}
	}
}

// signalReader reports the read-th Read on started, then reads r.
type signalReader struct {
	r       io.Reader
	read    int
	started chan struct{}
}

func (s *signalReader) Read(p []byte) (int, error) {
	if s.read--; s.read == 0 {
		close(s.started)
	}
	return s.r.Read(p)
}

// TestShipmentInFlightAcrossPromotion holds a shipment from the slot's owner
// between the fence and the apply — its payload is still being read — while
// the follower is promoted. The shipment must not land in what is now the
// leader's store, whose runs resumed from the catalog without it: the
// follower refuses it as misdirected, and the store holds no trace of it.
func TestShipmentInFlightAcrossPromotion(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	slot, _, _ := tc.seedProject(2)
	tc.waitCaughtUp(slot)
	surv := tc.pushedFollower(slot)
	owner, version := tc.nodes[slot].Ring().Addr(slot), tc.nodes[slot].Ring().Version
	tc.tr.Register(slot, nil)
	if err := tc.nodes[slot].Close(); err != nil {
		t.Fatal(err)
	}
	replicaDB := tc.nodes[surv].ReplicaDB(slot)
	at := replicaDB.AppliedSeq()

	rec, err := json.Marshal(store.Record{Seq: at + 1, Op: store.OpPut, Table: "inflight", Key: "k", Value: json.RawMessage(`{"by":"the old owner"}`)})
	if err != nil {
		t.Fatal(err)
	}
	frame := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(rec), rec)
	head := make([]byte, frameHeaderLen)
	head[0] = FormatFrames
	binary.BigEndian.PutUint64(head[1:], at)
	binary.BigEndian.PutUint64(head[9:], at+1)
	binary.BigEndian.PutUint64(head[17:], version)
	binary.BigEndian.PutUint64(head[25:], uint64(len(frame)))
	// The handler's first Read takes the frame's header; its second is the
	// payload's, past the frame's fence.
	pr, pw := io.Pipe()
	body := &signalReader{r: pr, read: 2, started: make(chan struct{})}
	req, err := http.NewRequest(http.MethodPost, "http://"+surv+"/api/v1/cluster/replicate?slot="+slot, body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	req.Header.Set(HeaderFrom, owner)
	req.Header.Set(HeaderRingVersion, strconv.FormatUint(version, 10))
	resp, err := tc.tr.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("opening the exchange: %v (%v)", err, resp)
	}
	defer resp.Body.Close()
	if _, err := pw.Write(head); err != nil {
		t.Fatal(err)
	}
	<-body.started // past the fence, reading the payload
	if err := tc.nodes[surv].Promote(context.Background(), slot); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(pw, frame); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	reply := make([]byte, replyLen)
	if _, err := io.ReadFull(resp.Body, reply); err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	code := binary.BigEndian.Uint64(reply[9:])
	rest, _ := io.ReadAll(resp.Body)

	if reply[0] != replyRefusal || code != http.StatusMisdirectedRequest {
		t.Fatalf("a shipment that outlived the promotion was answered %q %d, want a 421 refusal: %s", reply[0], code, rest)
	}
	db := tc.nodes[surv].DB(slot)
	if db != replicaDB {
		t.Fatalf("the promoted slot's store is %p, want the replica's %p", db, replicaDB)
	}
	if db.Has("inflight", "k") || db.AppliedSeq() != at {
		t.Fatalf("the shipment landed in the promoted store: applied seq %d (was %d)", db.AppliedSeq(), at)
	}
}

// TestPromoteRefusesAFailedReplica: a follower whose replica store tore a
// shipment holds a sticky storage failure. Promoting it would hand the slot
// to a store that refuses every write, so Promote refuses, and the slot stays
// followed.
func TestPromoteRefusesAFailedReplica(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	slot, _, _ := tc.seedProject(2)
	tc.waitCaughtUp(slot)
	surv := tc.pushedFollower(slot)
	replicaDB := tc.nodes[surv].ReplicaDB(slot)
	tc.tear(replicaDB)
	if _, err := tc.nodes[slot].Service(slot).RegisterTagger(context.Background(), "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the torn shipment", func() bool { return replicaDB.Err() != nil })
	tc.tr.Register(slot, nil)

	err := tc.nodes[surv].Promote(context.Background(), slot)
	if err == nil || !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("Promote over a failed replica store = %v, want a refusal carrying %v", err, store.ErrCrashed)
	}
	if got := tc.nodes[surv].ReplicaDB(slot); got != replicaDB {
		t.Fatalf("after the refusal the slot's replica is %p, want %p", got, replicaDB)
	}
	if db := tc.nodes[surv].DB(slot); db != nil {
		t.Fatalf("after the refusal the node leads the slot over %p", db)
	}
	if v := tc.nodes[surv].Ring().Version; v != tc.nodes[slot].Ring().Version {
		t.Fatalf("the refused promotion moved the ring to v%d", v)
	}
}

// manglingHandler proxies a follower's handler but corrupts the payload of
// every non-empty shipment frame on its way in, according to mode, keeping
// the exchange's framing intact.
type manglingHandler struct {
	inner http.Handler
	mode  string // "flip" | "truncate" | "garbage"
}

func (m *manglingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/cluster/replicate" {
		r.Body = io.NopCloser(&manglingBody{src: r.Body, mode: m.mode})
	}
	m.inner.ServeHTTP(w, r)
}

// manglingBody re-frames an exchange's request body with each payload
// mangled.
type manglingBody struct {
	src  io.Reader
	mode string
	out  []byte
}

func (m *manglingBody) Read(p []byte) (int, error) {
	for len(m.out) == 0 {
		head := make([]byte, frameHeaderLen)
		if _, err := io.ReadFull(m.src, head); err != nil {
			return 0, err
		}
		body := make([]byte, binary.BigEndian.Uint64(head[25:]))
		if _, err := io.ReadFull(m.src, body); err != nil {
			return 0, err
		}
		if len(body) > 0 {
			switch m.mode {
			case "flip":
				body[len(body)/2] ^= 0x40
			case "truncate":
				body = body[:len(body)-2] // cut mid-line: unterminated final record
			case "garbage":
				body = []byte("deadbeef not a frame\n")
			}
		}
		binary.BigEndian.PutUint64(head[25:], uint64(len(body)))
		m.out = append(head, body...)
	}
	n := copy(p, m.out)
	m.out = m.out[n:]
	return n, nil
}

// TestClusterFollowerIngestCorruption is the corruption drill: a follower
// fed flipped, truncated or garbage frames must refuse the whole shipment
// with a corruption-taxonomy error — watermark unmoved, no panic — and the
// leader counts the refusal once, under that category, for that follower.
// The stream then resumes from the unmoved watermark and catches the
// follower up without a gap once the wire is clean. With the corrupt wire
// stalling the watermark past the staleness bound, opt-in follower reads
// must refuse and redirect.
func TestClusterFollowerIngestCorruption(t *testing.T) {
	for _, mode := range []string{"flip", "truncate", "garbage"} {
		t.Run(mode, func(t *testing.T) {
			tc := startCluster(t, []string{"alpha", "beta"}, func(o *Options) {
				o.Replicas = 1
				o.StalenessBound = 2
				o.PullMaxBackoff = 40 * time.Millisecond
			})
			slot, project, tagger := tc.seedProject(4)
			var follower string
			for s := range tc.nodes {
				if s != slot {
					follower = s
					break
				}
			}
			tc.waitCaughtUp(slot)

			// Corrupt the wire into the follower, then write more.
			tc.tr.Register(follower, &manglingHandler{inner: tc.nodes[follower].Handler(), mode: mode})
			before := tc.nodes[follower].ReplicaDB(slot).AppliedSeq()
			ownerURL := "http://" + slot
			for i := 0; i < 8; i++ {
				var task store.TaskRec
				if _, err := tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/tasks",
					map[string]string{"tagger_id": tagger}, &task); err != nil {
					t.Fatal(err)
				}
				if _, err := tc.do(http.MethodPost,
					fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", ownerURL, project, task.ID),
					map[string][]string{"tags": {"go", "corrupt-phase"}}, nil); err != nil {
					t.Fatal(err)
				}
			}

			// The leader keeps shipping and the follower keeps refusing:
			// watermark frozen, the refusals counted on the leader by
			// category, both processes alive.
			waitFor(t, 5*time.Second, "the leader to count a corruption refusal", func() bool {
				for _, f := range collectNode(tc.nodes[slot]) {
					if f.Name != "itag_cluster_push_errors_total" {
						continue
					}
					for _, s := range f.Samples {
						labels := map[string]string{}
						for _, l := range s.Labels {
							labels[l.Name] = l.Value
						}
						if labels["category"] == "corruption" && labels["follower"] == follower && labels["slot"] == slot && s.Value > 0 {
							return true
						}
					}
				}
				return false
			})
			if got := tc.nodes[follower].ReplicaDB(slot).AppliedSeq(); got != before {
				t.Fatalf("corrupt shipment advanced the watermark: %d -> %d", before, got)
			}
			for _, st := range tc.nodes[slot].Status().Slots {
				if st.Slot == slot && (len(st.Followers) != 1 || st.Followers[0].AckedSeq != before) {
					t.Fatalf("the leader's watermark for the follower reads %+v, the follower is at %d", st.Followers, before)
				}
			}

			// Lag exceeds the bound as soon as the follower has heard how far
			// the leader got (the next shipment or probe, a backoff away): it
			// refuses the stale read.
			waitFor(t, 5*time.Second, "the follower to refuse the stale read with 421", func() bool {
				resp, err := tc.do(http.MethodGet, "http://"+follower+"/api/v1/projects/"+project, nil, nil,
					HeaderRead, ReadFollower)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode == http.StatusMisdirectedRequest
			})

			// Clean wire: the follower catches up with no gap — its applied
			// watermark reaches the leader's exactly.
			tc.tr.Register(follower, tc.nodes[follower].Handler())
			tc.waitCaughtUp(slot)
			leaderSeq := tc.nodes[slot].DB(slot).AppliedSeq()
			if got := tc.nodes[follower].ReplicaDB(slot).AppliedSeq(); got != leaderSeq {
				t.Fatalf("follower at %d, leader at %d after clean catch-up", got, leaderSeq)
			}
			resp, err := tc.do(http.MethodGet, "http://"+follower+"/api/v1/projects/"+project, nil, nil,
				HeaderRead, ReadFollower)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("follower read after recovery: %v (status %v)", err, resp.Status)
			}
		})
	}
}

// TestClusterSmallPullBudget replays the bootstrap-wedge regression: a
// shipment budget (Options.PullBytes) far smaller than the leader's tail —
// and smaller than the project-creation batch record itself. The sender must
// page at record boundaries and ship the oversized record alone, and the
// follower must read the whole body rather than truncating it at the budget
// (a truncated body is refused whole, the watermark never moves, and the
// identical next shipment wedges the stream permanently).
func TestClusterSmallPullBudget(t *testing.T) {
	const budget = 256
	tc := startCluster(t, []string{"alpha", "beta"}, func(o *Options) {
		o.Replicas = 1
		o.PullBytes = budget
	})
	slot, project, tagger := tc.seedProject(16)
	ownerURL := "http://" + slot
	for i := 0; i < 5; i++ {
		var task store.TaskRec
		if _, err := tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/tasks",
			map[string]string{"tagger_id": tagger}, &task); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.do(http.MethodPost,
			fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", ownerURL, project, task.ID),
			map[string][]string{"tags": {"go", "tiny-budget"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	tc.waitCaughtUp(slot)
	// The project-creation record alone is larger than the budget, and it
	// arrived: the follower serves the project it created.
	leader, oversize := tc.nodes[slot].DB(slot), false
	for from := uint64(0); from < leader.AppliedSeq(); {
		data, last, err := leader.ReplTail(from, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		oversize = oversize || len(data) > budget
		from = last
	}
	if !oversize {
		t.Fatalf("no page of the leader's tail exceeds the %d-byte budget: the test no longer ships an oversized record", budget)
	}
	var follower string
	for s := range tc.nodes {
		if s != slot {
			follower = s
		}
	}
	resp, err := tc.do(http.MethodGet, "http://"+follower+"/api/v1/projects/"+project, nil, nil, HeaderRead, ReadFollower)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read of the replicated project: %v (status %v)", err, resp.Status)
	}
}

// TestPromHandlerContentType: a node's scrape carries the exposition
// Content-Type, charset included, whether it leads a slot or — here just
// deposed — nothing.
func TestPromHandlerContentType(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta"}, nil)
	node := tc.nodes["alpha"]
	scrape := func(when string) {
		t.Helper()
		rec := httptest.NewRecorder()
		node.PromHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if got := rec.Header().Get("Content-Type"); got != api.ExpositionContentType {
			t.Errorf("%s: Content-Type = %q, want %q", when, got, api.ExpositionContentType)
		}
		if _, err := api.ParseExposition(rec.Body); err != nil {
			t.Errorf("%s: exposition does not parse: %v", when, err)
		}
	}
	scrape("leading alpha")
	moved := node.Ring().Clone()
	moved.Version++
	for i := range moved.Members {
		moved.Members[i].Addr = "http://beta"
	}
	if !node.installRing(moved) {
		t.Fatal("the ring deposing alpha was not installed")
	}
	if node.DB("alpha") != nil {
		t.Fatal("alpha still leads a slot")
	}
	scrape("leading nothing")
}

// TestClusterRingConflictConverges pins the split-ring tiebreak: two nodes
// concurrently minting the same ring version with different content (e.g.
// each promoting a different slot of a dead node) must converge on one
// deterministic winner — not each keep its own v(N+1) forever — and the
// conflict must be visible in the status/metrics counter.
func TestClusterRingConflictConverges(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	base := tc.nodes["alpha"].Ring()
	mint := func(addr string) *Ring {
		r := base.Clone()
		r.Version++
		for i := range r.Members {
			if r.Members[i].Slot == "gamma" {
				r.Members[i].Addr = addr
			}
		}
		return r
	}
	ringA, ringB := mint("http://alpha"), mint("http://beta")

	// Deliver the conflicting pushes in opposite orders to the two nodes.
	tc.nodes["alpha"].installRing(ringA)
	tc.nodes["beta"].installRing(ringB)
	tc.nodes["alpha"].installRing(ringB)
	tc.nodes["beta"].installRing(ringA)

	a, b := tc.nodes["alpha"].Ring(), tc.nodes["beta"].Ring()
	if a.Version != base.Version+1 || b.Version != base.Version+1 {
		t.Fatalf("versions diverged: alpha v%d, beta v%d", a.Version, b.Version)
	}
	if ak, bk := a.ContentKey(), b.ContentKey(); ak != bk {
		t.Fatalf("nodes hold diverging rings at the same version:\nalpha %q\nbeta  %q", ak, bk)
	}
	// Re-delivering the losing ring stays a no-op on both.
	loser := ringA
	if a.ContentKey() == ringA.ContentKey() {
		loser = ringB
	}
	if tc.nodes["alpha"].installRing(loser) || tc.nodes["beta"].installRing(loser) {
		t.Fatal("losing ring was re-installed after convergence")
	}
	for _, s := range []string{"alpha", "beta"} {
		if got := tc.nodes[s].Status().RingConflicts; got == 0 {
			t.Errorf("node %s observed a ring conflict but counts none", s)
		}
	}
}

// TestClusterCompactionSnapshotShip pins the snapshot path end to end,
// through the stream: a follower that was away while the leader compacted
// its WAL cannot be fed the tail it missed, so the stream's next frame is the
// snapshot image — installed, fsynced and acked like any shipment — and the
// frames written after the cut follow it.
func TestClusterCompactionSnapshotShip(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta"}, func(o *Options) {
		o.Replicas = 1
		o.PullMaxBackoff = 20 * time.Millisecond
	})
	slot, project, tagger := tc.seedProject(4)
	var follower string
	for s := range tc.nodes {
		if s != slot {
			follower = s
			break
		}
	}
	tc.waitCaughtUp(slot)
	rep := tc.nodes[follower].ReplicaDB(slot)
	behind := rep.AppliedSeq()

	// The follower drops off the network; the leader writes on and compacts
	// away the tail the follower would have needed.
	tc.tr.Register(follower, nil)
	ownerURL := "http://" + slot
	post := func(tag string) {
		t.Helper()
		var task store.TaskRec
		if _, err := tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/tasks",
			map[string]string{"tagger_id": tagger}, &task); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.do(http.MethodPost,
			fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", ownerURL, project, task.ID),
			map[string][]string{"tags": {"go", tag}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		post("compacted")
	}
	leader := tc.nodes[slot].DB(slot)
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	cut := leader.Stats().SnapshotSeq
	if _, _, err := leader.ReplTail(behind, 1<<20, nil); !errors.Is(err, store.ErrSnapshotNeeded) {
		t.Fatalf("ReplTail(%d) after the compaction = %v: the follower is not behind the cut", behind, err)
	}
	post("after-the-cut")

	// Back on the network: snapshot first, then the frames past it.
	tc.tr.Register(follower, tc.nodes[follower].Handler())
	tc.waitCaughtUp(slot)
	// The image is cut when it ships, so it covers at least the compaction's.
	if got := rep.Stats().SnapshotSeq; got < cut {
		t.Fatalf("follower's snapshot covers seq %d, the leader's cut was at %d: no snapshot was installed", got, cut)
	}
	if got, want := rep.AppliedSeq(), leader.AppliedSeq(); got != want {
		t.Fatalf("follower at %d after the snapshot install, leader at %d", got, want)
	}
	_, want := tc.get(ownerURL + "/api/v1/projects/" + project + "/export")
	_, got := tc.get("http://"+follower+"/api/v1/projects/"+project+"/export", HeaderRead, ReadFollower)
	if !bytes.Equal(got, want) || !bytes.Contains(got, []byte("after-the-cut")) {
		t.Fatalf("follower export after the install differs from the leader's\nfollower %s\n  leader %s", got, want)
	}
}

// TestPromHandlerShowsEveryLedSlot: a node that leads two slots — its own and
// one promoted onto it — shows each slot's store and response-cache families
// in its one exposition, labeled by slot, and declares each family once.
func TestPromHandlerShowsEveryLedSlot(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta"}, nil)
	node := tc.nodes["beta"]
	tc.tr.Register("alpha", nil) // alpha drops off the network
	if err := node.Promote(context.Background(), "alpha"); err != nil {
		t.Fatal(err)
	}
	if node.DB("alpha") == nil || node.DB("beta") == nil {
		t.Fatal("beta does not lead both slots after the promotion")
	}
	rec := httptest.NewRecorder()
	node.PromHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	fams, err := api.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, family := range []string{"itag_store_commits_total", "itag_respcache_hits_total"} {
		slots := map[string]bool{}
		for _, f := range fams {
			if f.Name != family {
				continue
			}
			for _, smp := range f.Samples {
				for _, l := range smp.Labels {
					if l.Name == "slot" {
						slots[l.Value] = true
					}
				}
			}
		}
		if !slots["alpha"] || !slots["beta"] {
			t.Errorf("%s shows slots %v, want alpha and beta", family, slots)
		}
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Errorf("%s is declared %d times", family, n)
		}
	}
}
