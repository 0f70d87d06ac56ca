package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"itag/internal/chaos"
	"itag/internal/cluster"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// This file holds the S10 chaos drill: a 3-node quorum-mode cluster driven
// through a seeded fault schedule — a full partition of the leader, a disk
// stall on its WAL, then a leader kill and promotion — while a client
// records the durability stamp (X-Itag-Quorum) and wall time of every
// write. The drill proves the PR 10 robustness claims as gates:
//
//   - zero acked-write loss: every write acked "ok" (on the first
//     follower's disk) is served by that follower, promoted, after the kill;
//   - bounded unavailability: no operation ever hangs — partitioned writes
//     degrade within the quorum timeout, dead-leader writes fail fast with
//     taxonomy errors, nothing approaches the route timeout;
//   - graceful degradation round-trip: the partition produces degraded
//     leader-only acks (counted in itag_cluster_quorum_degraded_total) and
//     after the heal the quorum recovers to confirmed acks on its own.
//
// S10 measures behavior under faults, not throughput: its tables report ack
// classes and worst-case latencies per phase, so the drill runs the same
// shape at every size.

// s10Project is the provisioned project and the address serving it.
type s10Project struct {
	addr    string
	id      string
	taggers []string
}

// s10Cluster is a provisioned in-process cluster plus the drill's project.
type s10Cluster struct {
	tr      *cluster.HandlerTransport
	nodes   map[string]*cluster.Node // keyed by node name
	nodeOf  map[string]string        // slot -> node name
	dir     string
	project s10Project
}

func (c *s10Cluster) close() {
	for _, n := range c.nodes {
		_ = n.Close()
	}
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
	}
}

// s10Stats classifies the writes of one drill phase.
type s10Stats struct {
	writes, ok, degraded, failed int
	maxWall                      time.Duration
}

func (st *s10Stats) add(q string, wall time.Duration, err error) {
	st.writes++
	if wall > st.maxWall {
		st.maxWall = wall
	}
	switch {
	case err != nil:
		st.failed++
	case q == cluster.QuorumOK:
		st.ok++
	case q == cluster.QuorumDegraded:
		st.degraded++
	}
}

type s10Phase struct {
	name string
	s10Stats
}

// s10Outcome is everything the drill measured, ready for gating.
type s10Outcome struct {
	phases []s10Phase

	okTags, degradedTags []string // unique tag per write, by ack class
	lostOK               int      // ok-acked tags missing after failover
	degradedSurvived     int      // degraded-acked tags present after failover

	recovered       bool   // an ok ack arrived after the faults cleared
	failoverOK      bool   // an ok ack arrived from the promoted leader
	degradedCounter uint64 // leader's itag_cluster_quorum_degraded_total

	maxWall     time.Duration // worst op wall time across all phases
	deadFastMax time.Duration // worst wall time of a write to the dead leader
	bound       time.Duration // the unavailability bound the gate asserts

	leader, peer, slot string
}

// s10Post sends one JSON POST and decodes out, returning the response's
// X-Itag-Quorum stamp ("" when the response never arrived).
func s10Post(client *http.Client, url string, body, out any) (string, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	q := resp.Header.Get(cluster.HeaderQuorum)
	if resp.StatusCode >= 300 {
		return q, fmt.Errorf("POST %s: %s (%s)", url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return q, json.Unmarshal(data, out)
	}
	return q, nil
}

// s10WriteOnce performs one durable write — claim a task, submit it with a
// unique tag — and returns the submit's quorum stamp and the total wall
// time. The submit's stamp covers the claim too: an "ok" means the first
// follower's acked watermark covers the submit's sequence, which is after
// every record the iteration appended.
func s10WriteOnce(client *http.Client, base, tagger, tag string) (string, time.Duration, error) {
	start := time.Now()
	var task struct {
		ID string `json:"id"`
	}
	if _, err := s10Post(client, base+"/tasks", map[string]string{"tagger_id": tagger}, &task); err != nil {
		return "", time.Since(start), err
	}
	q, err := s10Post(client, base+"/tasks/"+task.ID+"/submit", map[string][]string{"tags": {"chaos", tag}}, nil)
	return q, time.Since(start), err
}

// s10Start boots a 3-node quorum cluster (one ring slot per node) whose
// inter-node traffic flows through the chaos schedule — each node's HTTP
// client is wrapped with its own ring identity so partitions and loss match
// by direction, the way they would on a real wire. The workload client
// (tr.Client()) stays un-faulted: the drill observes degradation from the
// outside.
func s10Start(seed int64, sched *chaos.Schedule, quorumTimeout, beat time.Duration) (*s10Cluster, error) {
	dir, err := os.MkdirTemp("", "itag-s10-")
	if err != nil {
		return nil, err
	}
	c := &s10Cluster{tr: cluster.NewHandlerTransport(), nodes: make(map[string]*cluster.Node),
		nodeOf: make(map[string]string), dir: dir}
	names := []string{"alpha", "beta", "gamma"}
	var members []cluster.Member
	for _, name := range names {
		members = append(members, cluster.Member{Slot: name + "-0", Addr: "http://s10-" + name})
		c.nodeOf[name+"-0"] = name
	}
	ring, err := cluster.NewRing(members)
	if err != nil {
		c.close()
		return nil, err
	}
	storeOpts := store.Options{SyncEvery: 1, SegmentBytes: 1 << 20}
	for _, name := range names {
		inner := c.tr.Client()
		n, err := cluster.New(cluster.Options{
			Slot: name + "-0", Ring: ring.Clone(), Dir: dir + "/" + name,
			Store: storeOpts, Seed: seed, Replicas: 2,
			PullInterval: beat, PullMaxBackoff: time.Second,
			Quorum: true, QuorumTimeout: quorumTimeout,
			HTTPClient: &http.Client{
				Timeout:   inner.Timeout,
				Transport: chaos.Wrap(inner.Transport, sched, "s10-"+name),
			},
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes[name] = n
		c.tr.Register("s10-"+name, n.Handler())
	}

	// One project, minted on its owning backend (the entity-group rule).
	ctx := context.Background()
	slot := names[0] + "-0"
	svc := c.nodes[names[0]].Service(slot)
	provider, err := svc.RegisterProvider(ctx, "s10-provider")
	if err != nil {
		c.close()
		return nil, err
	}
	proj := s10Project{addr: ring.Addr(slot), taggers: make([]string, 2)}
	for i := range proj.taggers {
		if proj.taggers[i], err = svc.RegisterTagger(ctx, fmt.Sprintf("s10-tagger-%02d", i)); err != nil {
			c.close()
			return nil, err
		}
	}
	resources := make([]dataset.Resource, 32)
	seeds := make(map[string][][]string, len(resources))
	for i := range resources {
		id := fmt.Sprintf("r-%04d", i)
		resources[i] = dataset.Resource{ID: id, Name: id, Popularity: 1}
		seeds[id] = [][]string{{"go", fmt.Sprintf("topic-%d", i%7)}}
	}
	proj.id, err = svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: provider, Name: "s10-chaos",
		Budget: 50000, PayPerTask: 0.05,
		Strategy: "random", Resources: resources, SeedPosts: seeds,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.project = proj
	return c, nil
}

// s10Drill runs the full chaos scenario once and returns what it measured.
func s10Drill(seed int64) (*s10Outcome, error) {
	const (
		quorumTimeout = 300 * time.Millisecond
		beat          = 20 * time.Millisecond // the streams' idle heartbeat
		partitionFor  = 1500 * time.Millisecond
		stallFor      = 1500 * time.Millisecond
		stallDelay    = 15 * time.Millisecond
		opBound       = 4 * time.Second // far below the 30s route timeout
	)
	sched := chaos.NewSchedule(seed)
	release := sched.Engage()
	defer release()
	c, err := s10Start(seed, sched, quorumTimeout, beat)
	if err != nil {
		return nil, err
	}
	defer c.close()

	client := c.tr.Client()
	proj := c.project
	var ring *cluster.Ring
	for _, n := range c.nodes {
		ring = n.Ring()
		break
	}
	slot := ring.Owner(proj.id)
	leader := c.nodeOf[slot]
	leaderAddr := "http://s10-" + leader
	if proj.addr != leaderAddr {
		return nil, fmt.Errorf("drill project %s not led by its minting node", proj.id)
	}
	// The quorum partner is the slot's first follower — the one whose acked
	// watermark "ok" acks wait on. Zero acked-write loss is proven by
	// promoting exactly that node.
	followers := ring.Followers(slot, 2)
	if len(followers) == 0 {
		return nil, fmt.Errorf("slot %s has no follower", slot)
	}
	peer := c.nodeOf[followers[0]]
	out := &s10Outcome{bound: opBound, leader: leader, peer: peer, slot: slot}

	// The schedule: a full partition of the leader for the first window,
	// then a stall on the leader's own WAL for the second. Appended before
	// Start, so the armed transports never race the mutation.
	sched.Faults = append(sched.Faults,
		chaos.Fault{Kind: chaos.KindPartition, From: leaderAddr, To: "*", For: partitionFor},
		chaos.Fault{Kind: chaos.KindDiskStall, Host: "/" + leader + "/", Delay: stallDelay,
			After: partitionFor, For: stallFor},
	)

	base := proj.addr + "/api/v1/projects/" + proj.id
	wseq := 0
	write := func(st *s10Stats, wbase, prefix string) (string, error) {
		wseq++
		tag := fmt.Sprintf("%s-%04d", prefix, wseq)
		q, wall, err := s10WriteOnce(client, wbase, proj.taggers[0], tag)
		st.add(q, wall, err)
		if wall > out.maxWall {
			out.maxWall = wall
		}
		if err == nil {
			switch q {
			case cluster.QuorumOK:
				out.okTags = append(out.okTags, tag)
			case cluster.QuorumDegraded:
				out.degradedTags = append(out.degradedTags, tag)
			}
		}
		return q, err
	}

	// Phase 1 — partition: the leader keeps serving, every ack degrades to
	// leader-only within the quorum timeout. Phase 2 — stall: the network
	// heals but the leader's disk hiccups on every WAL append; acks come
	// back "ok" once the peer's circuit breaker lets the stream through.
	var pPart, pStall, pRecover, pFail s10Stats
	start := time.Now()
	sched.Start()
	for time.Since(start) < partitionFor {
		if _, err := write(&pPart, base, "part"); err != nil {
			return out, fmt.Errorf("write under partition: %w", err)
		}
	}
	for time.Since(start) < partitionFor+stallFor {
		if _, err := write(&pStall, base, "stall"); err != nil {
			return out, fmt.Errorf("write under disk stall: %w", err)
		}
	}
	sched.Stop()

	// Phase 3 — recovery: with the faults gone the quorum must come back
	// on its own.
	deadline := time.Now().Add(10 * time.Second)
	for !out.recovered && time.Now().Before(deadline) {
		q, err := write(&pRecover, base, "recover")
		if err != nil {
			return out, fmt.Errorf("write after heal: %w", err)
		}
		out.recovered = q == cluster.QuorumOK
	}
	// A batch of confirmed writes the failover must preserve.
	for i := 0; i < 8; i++ {
		if _, err := write(&pRecover, base, "confirmed"); err != nil {
			return out, fmt.Errorf("confirmed write: %w", err)
		}
	}
	out.degradedCounter = c.nodes[leader].Status().QuorumDegraded

	// Phase 4 — kill and promote: the leader's next append tears and its
	// address drops off the network. Writes against it must fail fast (the
	// taxonomy error path), never hang; then the quorum partner is promoted
	// and checked for every ok-acked write.
	c.nodes[leader].DB(slot).SetFailpoint(func(fp store.Failpoint) bool { return fp == store.FailAppendMid })
	c.tr.Register("s10-"+leader, nil)
	for i := 0; i < 3; i++ {
		st := time.Now()
		_, _, err := s10WriteOnce(client, base, proj.taggers[0], fmt.Sprintf("dead-%d", i))
		wall := time.Since(st)
		if wall > out.deadFastMax {
			out.deadFastMax = wall
		}
		if err == nil {
			return out, fmt.Errorf("dead leader acked a write")
		}
	}
	var promoted struct {
		RingVersion uint64 `json:"ring_version"`
	}
	if _, err := s10Post(client, "http://s10-"+peer+"/api/v1/cluster/promote",
		map[string]string{"slot": slot}, &promoted); err != nil {
		return out, fmt.Errorf("promote: %w", err)
	}
	if promoted.RingVersion < 2 {
		return out, fmt.Errorf("promotion did not advance the ring")
	}

	newBase := "http://s10-" + peer + "/api/v1/projects/" + proj.id
	resp, err := client.Get(newBase + "/export")
	if err != nil {
		return out, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("export after promotion: %s", resp.Status)
	}
	for _, tag := range out.okTags {
		if !bytes.Contains(data, []byte(`"tag":"`+tag+`"`)) {
			out.lostOK++
		}
	}
	for _, tag := range out.degradedTags {
		if bytes.Contains(data, []byte(`"tag":"`+tag+`"`)) {
			out.degradedSurvived++
		}
	}

	// The promoted leader runs quorum mode too: poll until its own stream
	// to the remaining follower carries an ack.
	deadline = time.Now().Add(10 * time.Second)
	for !out.failoverOK && time.Now().Before(deadline) {
		q, err := write(&pFail, newBase, "post-failover")
		if err != nil {
			return out, fmt.Errorf("write after failover: %w", err)
		}
		out.failoverOK = q == cluster.QuorumOK
	}

	out.phases = []s10Phase{
		{name: "partition (leader cut off)", s10Stats: pPart},
		{name: "disk stall on the leader", s10Stats: pStall},
		{name: "healed (recovery + confirmed batch)", s10Stats: pRecover},
		{name: "after kill + promote", s10Stats: pFail},
	}
	return out, nil
}

// S10Chaos runs the seeded chaos drill against the quorum-mode cluster and
// gates on its three robustness claims. The drill is fixed-shape (it is
// time-windowed, not throughput-scaled), so -small runs assert the same
// gates as the committed artifact.
func S10Chaos(sz Sizes) (Result, error) {
	res := Result{
		ID:     "S10",
		Title:  "chaos drill: 3-node quorum cluster through partition, disk stall, leader kill + promote",
		Header: []string{"phase", "writes", "ok acks", "degraded acks", "errors", "max op"},
	}
	// Concurrent leader and follower fsyncs need scheduler slots to overlap
	// their blocking syscalls, as they would across real machines.
	prevProcs := runtime.GOMAXPROCS(0)
	if prevProcs < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prevProcs)
	}
	out, err := s10Drill(sz.Seed)

	b2r := func(ok bool) float64 {
		if ok {
			return 1
		}
		return 0
	}
	if out != nil {
		for _, ph := range out.phases {
			res.Rows = append(res.Rows, []string{ph.name, d(ph.writes), d(ph.ok), d(ph.degraded),
				d(ph.failed), fmt.Sprintf("%.0fms", ph.maxWall.Seconds()*1000)})
		}
		okAcked, degraded := len(out.okTags), len(out.degradedTags)
		res.Gates = append(res.Gates,
			Gate{Name: "quorum_zero_acked_write_loss",
				Ratio: b2r(err == nil && okAcked > 0 && out.lostOK == 0), Min: 1},
			Gate{Name: "bounded_unavailability",
				Ratio: b2r(err == nil && out.maxWall <= out.bound && out.deadFastMax <= out.bound), Min: 1},
			Gate{Name: "degrade_observed_and_recovered",
				Ratio: b2r(err == nil && degraded > 0 && out.degradedCounter > 0 && out.recovered && out.failoverOK), Min: 1},
		)
		res.Notes = append(res.Notes,
			fmt.Sprintf("topology: 3 nodes, quorum acks with a 300ms timeout; slot %s led by %s, first follower %s — the node promoted after the kill", out.slot, out.leader, out.peer),
			fmt.Sprintf("fault schedule (seed %d): 1.5s full partition of the leader, then 1.5s of 15ms stalls on every WAL append of the leader's disk, injected through internal/chaos (network faults on each node's wrapped transport, disk faults through the store failpoint hook)", sz.Seed),
			fmt.Sprintf("zero acked-write loss: %d writes acked ok (on the first follower's disk); %d missing from the promoted node's export", okAcked, out.lostOK),
			fmt.Sprintf("degraded acks are leader-only durability by contract: %d writes degraded during the faults, %d of them survived the failover anyway (the stream shipped them once it could)", degraded, out.degradedSurvived),
			fmt.Sprintf("bounded unavailability: worst op wall %.0fms with faults active, worst dead-leader error %.0fms — bound %.1fs, route timeout 30s; partitioned writes degrade within the quorum timeout instead of hanging, dead-leader writes fail fast with taxonomy errors", out.maxWall.Seconds()*1000, out.deadFastMax.Seconds()*1000, out.bound.Seconds()),
			fmt.Sprintf("degradation round-trip: leader counted %d in itag_cluster_quorum_degraded_total, quorum recovered to ok acks after the heal (%v) and again on the promoted leader (%v) with no operator action", out.degradedCounter, out.recovered, out.failoverOK),
			"the drill's workload client is un-faulted: degradation is observed from the outside, the way an SDK caller would see it",
		)
	} else {
		res.Gates = append(res.Gates,
			Gate{Name: "quorum_zero_acked_write_loss", Ratio: 0, Min: 1},
			Gate{Name: "bounded_unavailability", Ratio: 0, Min: 1},
			Gate{Name: "degrade_observed_and_recovered", Ratio: 0, Min: 1},
		)
	}
	if err != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("CHAOS DRILL FAILED: %v", err))
	}
	return res, nil
}
