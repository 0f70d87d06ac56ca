package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"itag/internal/api"
	"itag/internal/chaos"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// TestQuorumWaiterPruning pins the waiter lifecycle of the quorum gate:
// every exit from wait() — confirmation, timeout, request cancellation,
// stream stop — must leave p.waiters empty. Timed-out waiters used to
// linger until the follower's watermark passed their sequence, so a
// prolonged follower outage with ongoing writes grew the slice (one entry
// plus a channel per degraded request) without bound.
func TestQuorumWaiterPruning(t *testing.T) {
	newSender := func() *sender {
		return &sender{notify: make(chan struct{}, 1), done: make(chan struct{})}
	}
	waiterCount := func(p *sender) int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.waiters)
	}

	// Already-confirmed sequences return without parking at all.
	p := newSender()
	p.acked.Store(10)
	if got := p.wait(context.Background(), 5, time.Minute); got != waitConfirmed {
		t.Fatalf("wait(confirmed seq) = %v, want waitConfirmed", got)
	}
	if n := waiterCount(p); n != 0 {
		t.Fatalf("confirmed fast path parked %d waiters", n)
	}

	// Timeout: the waiter must be pruned, not left for advance().
	p = newSender()
	if got := p.wait(context.Background(), 5, time.Millisecond); got != waitTimeout {
		t.Fatalf("wait(timeout) = %v, want waitTimeout", got)
	}
	if n := waiterCount(p); n != 0 {
		t.Fatalf("timed-out waiter leaked: %d entries", n)
	}

	// Request cancellation (client disconnect): pruned too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := p.wait(ctx, 5, time.Minute); got != waitCanceled {
		t.Fatalf("wait(canceled ctx) = %v, want waitCanceled", got)
	}
	if n := waiterCount(p); n != 0 {
		t.Fatalf("canceled waiter leaked: %d entries", n)
	}

	// Stream stop (demotion/shutdown): pruned.
	close(p.done)
	if got := p.wait(context.Background(), 5, time.Minute); got != waitStopped {
		t.Fatalf("wait(stopped stream) = %v, want waitStopped", got)
	}
	if n := waiterCount(p); n != 0 {
		t.Fatalf("stopped-stream waiter leaked: %d entries", n)
	}

	// Confirmation releases and prunes parked waiters.
	p = newSender()
	res := make(chan waitResult, 1)
	go func() { res <- p.wait(context.Background(), 3, time.Minute) }()
	waitFor(t, time.Second, "waiter to park", func() bool { return waiterCount(p) == 1 })
	p.advance(3)
	if got := <-res; got != waitConfirmed {
		t.Fatalf("wait(advanced) = %v, want waitConfirmed", got)
	}
	if n := waiterCount(p); n != 0 {
		t.Fatalf("confirmed waiter not pruned: %d entries", n)
	}
}

// TestClusterQuorumAckAndDegrade drives the quorum gate end to end: an
// acked write is follower-durable (X-Itag-Quorum: ok and the replica's
// watermark equals the leader's the moment the ack lands); with the
// follower dead the ack degrades within the bounded timeout — counted,
// stamped degraded, still a success status — and the stream catches the
// follower back up once it returns.
func TestClusterQuorumAckAndDegrade(t *testing.T) {
	const quorumTimeout = 200 * time.Millisecond
	tc := startCluster(t, []string{"alpha", "beta"}, func(o *Options) {
		o.Quorum = true
		o.QuorumTimeout = quorumTimeout
		o.PullMaxBackoff = 100 * time.Millisecond
	})
	slot, project, tagger := tc.seedProject(8)
	ownerURL := "http://" + slot
	var follower string
	for s := range tc.nodes {
		if s != slot {
			follower = s
		}
	}

	post := func(tag string) (*http.Response, error) {
		var task store.TaskRec
		resp, err := tc.do(http.MethodPost, ownerURL+"/api/v1/projects/"+project+"/tasks",
			map[string]string{"tagger_id": tagger}, &task)
		if err != nil || resp.StatusCode != http.StatusCreated {
			return resp, fmt.Errorf("request task: %v (status %v)", err, resp.Status)
		}
		return tc.do(http.MethodPost,
			fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", ownerURL, project, task.ID),
			map[string][]string{"tags": {"go", tag}}, nil)
	}

	// Healthy cluster: the ack carries quorum ok, and by the time it lands
	// the follower's disk has the write (watermarks equal — the test is
	// sequential, nothing else is writing).
	resp, err := post("quorum-ok")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("quorum write: %v (status %v)", err, resp.Status)
	}
	if got := resp.Header.Get(HeaderQuorum); got != QuorumOK {
		t.Fatalf("X-Itag-Quorum = %q, want %q", got, QuorumOK)
	}
	leaderSeq := tc.nodes[slot].DB(slot).AppliedSeq()
	if got := tc.nodes[follower].ReplicaDB(slot).AppliedSeq(); got != leaderSeq {
		t.Fatalf("acked write not on follower disk: replica at %d, leader at %d", got, leaderSeq)
	}
	// Reads bypass the gate: no quorum header.
	resp, err = tc.do(http.MethodGet, ownerURL+"/api/v1/projects/"+project, nil, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("read: %v (status %v)", err, resp.Status)
	}
	if got := resp.Header.Get(HeaderQuorum); got != "" {
		t.Fatalf("GET carries X-Itag-Quorum = %q, want none", got)
	}

	// Kill the follower. The next mutating ack must degrade — bounded by
	// the timeout, stamped, counted — not hang and not fail.
	tc.tr.Register(follower, nil)
	start := time.Now()
	resp, err = post("degraded-write")
	took := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded write: %v (status %v)", err, resp.Status)
	}
	if got := resp.Header.Get(HeaderQuorum); got != QuorumDegraded {
		t.Fatalf("X-Itag-Quorum = %q, want %q", got, QuorumDegraded)
	}
	if took < quorumTimeout || took > 10*quorumTimeout {
		t.Fatalf("degraded ack took %v, want roughly the %v timeout", took, quorumTimeout)
	}
	if got := tc.nodes[slot].Status().QuorumDegraded; got == 0 {
		t.Fatal("degrade not counted in quorum_degraded_total")
	}
	if got := tc.nodes[slot].Health(); got == HealthHealthy {
		t.Fatalf("leader health = %q right after a quorum degrade, want degraded or isolated", got)
	}

	// Follower returns: the stream catches it up, and quorum acks come back
	// once the peer breaker re-closes.
	tc.tr.Register(follower, tc.nodes[follower].Handler())
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = post("recovered-write")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("post-recovery write: %v (status %v)", err, resp.Status)
		}
		if resp.Header.Get(HeaderQuorum) == QuorumOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quorum acks never recovered after the follower returned")
		}
		time.Sleep(50 * time.Millisecond)
	}
	tc.waitCaughtUp(slot)

	// The new observability surface is scraped, not just counted.
	found := map[string]bool{}
	for _, f := range collectNode(tc.nodes[slot]) {
		found[f.Name] = true
	}
	for _, want := range []string{
		"itag_cluster_quorum_degraded_total", "itag_cluster_health_state",
		"itag_cluster_pushes_total", "itag_cluster_quorum_confirmed_seq",
		"itag_cluster_peer_breaker_opens_total", "itag_cluster_demotions_total",
	} {
		if !found[want] {
			t.Errorf("leader exposition is missing %s", want)
		}
	}
}

// TestClusterQuorumBatchAtTheCap sends one tasks:batch call at the 10 000
// item cap through a 3-node quorum ring. The call is one store commit, hence
// one WAL record of several MiB — larger than the replication byte budget
// and than a segment. ReplTail ships a first record however large, so the
// ack still comes back follower-durable (X-Itag-Quorum: ok), and both
// followers end up byte-identical to the leader.
func TestClusterQuorumBatchAtTheCap(t *testing.T) {
	const items = 10000
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, func(o *Options) {
		o.Quorum = true
		o.QuorumTimeout = 30 * time.Second // a degrade must be a failure here, not a slow box
	})
	ctx := context.Background()
	slot := "alpha"
	svc := tc.nodes[slot].Service(slot)
	provider, err := svc.RegisterProvider(ctx, "cap-provider")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := svc.RegisterTagger(ctx, "cap-tagger")
	if err != nil {
		t.Fatal(err)
	}
	resources := make([]dataset.Resource, 200)
	for i := range resources {
		id := fmt.Sprintf("res-%04d", i)
		resources[i] = dataset.Resource{ID: id, Name: id, Popularity: 1}
	}
	project, err := svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: provider, Name: "cap", Budget: items, PayPerTask: 0.05, Strategy: "fp-mu", Resources: resources,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := struct {
		Items []core.BatchItem `json:"items"`
	}{Items: make([]core.BatchItem, items)}
	for i := range req.Items {
		req.Items[i] = core.BatchItem{TaggerID: tagger, Tags: []string{"go", fmt.Sprintf("t%d", i%97), "cap"}}
	}
	leader := tc.nodes[slot].DB(slot)
	before := leader.Stats().Commits
	var out struct {
		OK, Failed int
	}
	resp, err := tc.do(http.MethodPost, "http://"+slot+"/api/v1/projects/"+project+"/tasks:batch", req, &out)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("tasks:batch: %v (status %v)", err, resp.Status)
	}
	if out.OK != items || out.Failed != 0 {
		t.Fatalf("ok = %d, failed = %d; want %d, 0", out.OK, out.Failed, items)
	}
	if got := resp.Header.Get(HeaderQuorum); got != QuorumOK {
		t.Fatalf("X-Itag-Quorum = %q, want %q", got, QuorumOK)
	}
	if got := leader.Stats().Commits - before; got != 1 {
		t.Fatalf("the call cost %d store commits, want 1", got)
	}
	tc.waitCaughtUp(slot)
	dump := func(db *store.DB) map[string]string {
		m := map[string]string{}
		for _, table := range db.Tables() {
			db.Scan(table, func(key string, raw []byte) bool {
				m[table+"\x00"+key] = string(raw)
				return true
			})
		}
		return m
	}
	want := dump(leader)
	if n := leader.Count(store.TablePosts); n != items {
		t.Fatalf("leader holds %d posts, want %d", n, items)
	}
	for _, f := range []string{"beta", "gamma"} {
		got := dump(tc.nodes[f].ReplicaDB(slot))
		if len(got) != len(want) {
			t.Fatalf("follower %s holds %d keys, leader %d", f, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("follower %s: key %q = %q, leader has %q", f, k, got[k], v)
			}
		}
	}
}

// TestClusterPromoteUnderPartition is the asymmetric failover drill the
// chaos layer exists for: the leader is partitioned away but NOT dead — it
// keeps acking writes it can no longer replicate. A follower promotes, the
// ring converges without the old leader's vote, and when the partition
// heals the deposed leader must discover the new ring, step down, and park
// its unreplicated tail — never resurrect it into the slot's history.
func TestClusterPromoteUnderPartition(t *testing.T) {
	sched := chaos.NewSchedule(42)
	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, func(o *Options) {
		o.PullMaxBackoff = 100 * time.Millisecond
		// Each node's outbound traffic goes through the chaos transport
		// under its own identity, so a partition cuts exactly the legs that
		// touch the faulted host — the test client stays un-faulted.
		o.HTTPClient = &http.Client{Transport: chaos.Wrap(o.HTTPClient.Transport, sched, o.Slot)}
	})
	slot, project, tagger := tc.seedProject(8)
	ownerURL := "http://" + slot

	post := func(url, tag string) {
		t.Helper()
		var task store.TaskRec
		resp, err := tc.do(http.MethodPost, url+"/api/v1/projects/"+project+"/tasks",
			map[string]string{"tagger_id": tagger}, &task)
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("request task at %s: %v (status %v)", url, err, resp.Status)
		}
		if resp, err = tc.do(http.MethodPost,
			fmt.Sprintf("%s/api/v1/projects/%s/tasks/%s/submit", url, project, task.ID),
			map[string][]string{"tags": {"go", tag}}, nil); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("submit at %s: %v (status %v)", url, err, resp.Status)
		}
	}

	post(ownerURL, "pre-partition")
	tc.waitCaughtUp(slot)

	// Cut the old leader off from both peers, both directions. It is still
	// up: clients that haven't heard about the failover keep hitting it.
	sched.Faults = append(sched.Faults, chaos.Fault{Kind: chaos.KindPartition, From: slot, To: "*"})
	sched.Start()
	defer sched.Stop()

	// Doomed writes: acked by the isolated leader, replicated nowhere.
	post(ownerURL, "doomed-tail")
	post(ownerURL, "doomed-tail")
	doomedSeq := tc.nodes[slot].DB(slot).AppliedSeq()

	// Promote on a survivor from its replica (pre-partition watermark).
	var surv string
	for s := range tc.nodes {
		if s != slot {
			surv = s
			break
		}
	}
	var promoted struct {
		RingVersion uint64 `json:"ring_version"`
	}
	resp, err := tc.do(http.MethodPost, "http://"+surv+"/api/v1/cluster/promote",
		map[string]string{"slot": slot}, &promoted)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %v (status %v)", err, resp.Status)
	}
	survURL := "http://" + surv

	// Exactly one ring: the survivor and the third node converge on the
	// promoted version while the partition holds.
	var third string
	for s := range tc.nodes {
		if s != slot && s != surv {
			third = s
		}
	}
	waitFor(t, 5*time.Second, "third node to learn the promoted ring", func() bool {
		return tc.nodes[third].Ring().Version == promoted.RingVersion
	})

	// The isolated node's shipments all fail, so its peer breakers open and it
	// classifies itself isolated: /healthz answers a fast 503 with
	// Retry-After so balancers route around it.
	waitFor(t, 5*time.Second, "old leader to classify itself isolated", func() bool {
		return tc.nodes[slot].Health() == HealthIsolated
	})
	resp, err = tc.do(http.MethodGet, ownerURL+"/api/v1/healthz", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("isolated healthz: status %v Retry-After %q, want 503 with a delay",
			resp.Status, resp.Header.Get("Retry-After"))
	}

	// Heal. Anti-entropy (its shipments refused with the newer ring version)
	// must lead the deposed leader to the new ring; it steps down and parks
	// its WAL.
	sched.Stop()
	waitFor(t, 15*time.Second, "deposed leader to adopt the new ring and step down", func() bool {
		n := tc.nodes[slot]
		if n.Ring().Version != promoted.RingVersion {
			return false
		}
		st := n.Status()
		if st.Demotions == 0 {
			return false
		}
		for _, s := range st.Slots {
			if s.Slot == slot && s.Role == "leader" {
				return false
			}
		}
		return true
	})

	// The deposed leader now redirects to the survivor instead of serving
	// its stale view.
	waitFor(t, 5*time.Second, "deposed leader to redirect", func() bool {
		resp, err := tc.do(http.MethodGet, ownerURL+"/api/v1/projects/"+project, nil, nil)
		return err == nil && resp.StatusCode == http.StatusMisdirectedRequest &&
			resp.Header.Get(HeaderOwner) == survURL
	})

	// The unreplicated tail was parked on disk, not deleted and not
	// replayed: .demoted-v<N> files exist under the old leader's dir.
	// Parking runs on a background goroutine after the streams drain and
	// the deposed store closes, so poll rather than glob once.
	waitFor(t, 10*time.Second, "demoted WAL tail to be parked", func() bool {
		parked, err := filepath.Glob(filepath.Join(tc.nodes[slot].opts.Dir, "*.demoted-v*"))
		return err == nil && len(parked) > 0
	})

	// And it never resurrects: the new leader's history carries the
	// pre-partition writes but not the doomed tail, even after the heal
	// settles and new writes land.
	post(survURL, "post-failover")
	resp, err = tc.do(http.MethodGet, survURL+"/api/v1/projects/"+project+"/export", nil, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("survivor export: %v (status %v)", err, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	export := string(raw)
	if !strings.Contains(export, "pre-partition") || !strings.Contains(export, "post-failover") {
		t.Fatalf("survivor export lost acknowledged history: %s", export)
	}
	if strings.Contains(export, "doomed-tail") {
		t.Fatalf("doomed tail resurrected into the slot's history (old leader was at seq %d): %s", doomedSeq, export)
	}

	// The healed node participates again: its health recovers off isolated.
	waitFor(t, 10*time.Second, "healed node to leave the isolated state", func() bool {
		return tc.nodes[slot].Health() != HealthIsolated
	})
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// collectNode builds one scrape of the node's series beyond its route
// registry.
func collectNode(n *Node) []api.Family {
	var x api.Exposition
	n.Collect(&x)
	return x.Families()
}
