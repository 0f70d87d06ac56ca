package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// testCluster is an in-process cluster wired over a HandlerTransport.
type testCluster struct {
	t     *testing.T
	tr    *HandlerTransport
	nodes map[string]*Node
	httpc *http.Client
}

// startCluster boots one node per slot, all sharing one fake-network
// transport. Pull intervals are short so replication converges in
// milliseconds of test time.
func startCluster(t *testing.T, slots []string, tune func(*Options)) *testCluster {
	t.Helper()
	tr := NewHandlerTransport()
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
			Store:        store.Options{SegmentBytes: 4096},
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

	// The scrape surface carries the replication watermarks: follower
	// lag and applied seq per followed slot, parseable exposition.
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
	}
	for _, want := range []string{
		"itag_cluster_ring_version", "itag_cluster_leader_applied_seq",
		"itag_cluster_replica_applied_seq", "itag_cluster_replica_lag",
		"itag_cluster_pulls_total", "itag_cluster_pull_bytes_total",
	} {
		if !found[want] {
			t.Errorf("exposition is missing %s", want)
		}
	}

	// Sanity: the status endpoint agrees the follower is caught up.
	var st statusResp
	if _, err := tc.do(http.MethodGet, "http://"+other+"/api/v1/cluster/status", nil, &st); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Slots {
		if s.Slot == slot && s.Role == "follower" && s.Lag != 0 {
			t.Errorf("status reports lag %d for caught-up follower", s.Lag)
		}
	}
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
// leader is wedged with the store's crash failpoint and dropped from the
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
	tc.nodes[slot].DB(slot).SetFailpoint(func(fp store.Failpoint) bool { return fp == store.FailAppendMid })
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

// manglingHandler proxies a node's handler but corrupts /cluster/wal
// response bodies according to mode.
type manglingHandler struct {
	inner http.Handler
	mode  string // "flip" | "truncate" | "garbage" | "clean"
}

func (m *manglingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.mode == "clean" || !strings.HasPrefix(r.URL.Path, "/api/v1/cluster/wal") {
		m.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	m.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	switch m.mode {
	case "flip":
		if len(body) > 0 {
			body = bytes.Clone(body)
			body[len(body)/2] ^= 0x40
		}
	case "truncate":
		if len(body) > 2 {
			body = body[:len(body)-2] // cut mid-line: unterminated final record
		}
	case "garbage":
		if len(body) > 0 {
			body = []byte("deadbeef not a frame\n")
		}
	}
	for k, vs := range rec.Header() {
		w.Header()[k] = vs
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// TestClusterFollowerIngestCorruption is the satellite corruption drill: a
// follower fed flipped, truncated or garbage segment bytes must reject the
// whole shipment with a corruption-taxonomy error — watermark unmoved, no
// panic — then catch up without a gap once the feed is clean. With the
// corrupt feed stalling the watermark past the staleness bound, opt-in
// follower reads must refuse and redirect.
func TestClusterFollowerIngestCorruption(t *testing.T) {
	for _, mode := range []string{"flip", "truncate", "garbage"} {
		t.Run(mode, func(t *testing.T) {
			tc := startCluster(t, []string{"alpha", "beta"}, func(o *Options) {
				o.Replicas = 1
				o.StalenessBound = 2
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

			// Corrupt the leader's replication feed, then write more.
			mangler := &manglingHandler{inner: tc.nodes[slot].Handler(), mode: mode}
			tc.tr.Register(slot, mangler)
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

			// The follower keeps pulling and keeps rejecting: watermark
			// frozen, corruption errors counted, process alive.
			deadline := time.Now().Add(5 * time.Second)
			var sawCorruption bool
			for !sawCorruption {
				if time.Now().After(deadline) {
					t.Fatal("follower never observed a corruption error")
				}
				for _, f := range tc.nodes[follower].Families() {
					if f.Name != "itag_cluster_pull_errors_total" {
						continue
					}
					for _, s := range f.Samples {
						for _, l := range s.Labels {
							if l.Name == "category" && l.Value == "corruption" && s.Value > 0 {
								sawCorruption = true
							}
						}
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
			if got := tc.nodes[follower].ReplicaDB(slot).AppliedSeq(); got != before {
				t.Fatalf("corrupt shipment advanced the watermark: %d -> %d", before, got)
			}

			// Lag now exceeds the bound: the follower refuses the stale read.
			resp, err := tc.do(http.MethodGet, "http://"+follower+"/api/v1/projects/"+project, nil, nil,
				HeaderRead, ReadFollower)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusMisdirectedRequest {
				t.Fatalf("stale follower read: status %v, want 421", resp.Status)
			}

			// Clean feed: the follower catches up with no gap — its applied
			// watermark reaches the leader's exactly.
			tc.tr.Register(slot, tc.nodes[slot].Handler())
			tc.waitCaughtUp(slot)
			leaderSeq := tc.nodes[slot].DB(slot).AppliedSeq()
			if got := tc.nodes[follower].ReplicaDB(slot).AppliedSeq(); got != leaderSeq {
				t.Fatalf("follower at %d, leader at %d after clean catch-up", got, leaderSeq)
			}
			resp, err = tc.do(http.MethodGet, "http://"+follower+"/api/v1/projects/"+project, nil, nil,
				HeaderRead, ReadFollower)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("follower read after recovery: %v (status %v)", err, resp.Status)
			}
		})
	}
}

// TestClusterSmallPullBudget replays the bootstrap-wedge regression: a pull
// budget far smaller than the leader's tail — and smaller than the
// project-creation batch record itself. The leader must page at record
// boundaries, ship the oversized record alone, and the puller must read the
// whole body rather than truncating it at the budget (a truncated body is
// rejected whole, the watermark never moves, and the identical next pull
// wedges replication permanently).
func TestClusterSmallPullBudget(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta"}, func(o *Options) {
		o.Replicas = 1
		o.PullBytes = 256
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

// TestClusterCompactionSnapshotShip pins the snapshot path end to end: a
// follower that joins (or falls behind) after the leader compacted its WAL
// must be bootstrapped with a snapshot cut, not an impossible tail replay.
func TestClusterCompactionSnapshotShip(t *testing.T) {
	// The follower's own puller is held at the gate until the manual pulls
	// below have run: its first round would otherwise race them, and
	// whichever came second saw a caught-up follower.
	gate := make(chan struct{})
	defer close(gate)
	tc := startCluster(t, []string{"alpha", "beta"}, func(o *Options) {
		o.Replicas = 1
		o.PullInterval = time.Hour
		o.pullGate = gate
	})
	slot, project, tagger := tc.seedProject(4)
	var follower string
	for s := range tc.nodes {
		if s != slot {
			follower = s
			break
		}
	}
	ownerURL := "http://" + slot
	for i := 0; i < 10; i++ {
		var task store.TaskRec
		if _, err := tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/tasks",
			map[string]string{"tagger_id": tagger}, &task); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.do(http.MethodPost,
			fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", ownerURL, project, task.ID),
			map[string][]string{"tags": {"go", "compacted"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Compact away the tail the follower would have needed.
	if err := tc.nodes[slot].DB(slot).Compact(); err != nil {
		t.Fatal(err)
	}

	rep := tc.nodes[follower].replicas[slot]
	progressed, err := tc.nodes[follower].pullOnce(context.Background(), rep)
	if err != nil {
		t.Fatalf("snapshot pull: %v", err)
	}
	if !progressed {
		t.Fatal("snapshot pull reported no progress")
	}
	leaderSeq := tc.nodes[slot].DB(slot).AppliedSeq()
	if got := rep.db.AppliedSeq(); got != leaderSeq {
		// One more round drains any frames written after the cut.
		if _, err := tc.nodes[follower].pullOnce(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
		if got := rep.db.AppliedSeq(); got != leaderSeq {
			t.Fatalf("follower at %d after snapshot install, leader at %d", got, leaderSeq)
		}
	}
}
