package cluster_test

// Recorded-history checks of replication and failover over seeded fault
// schedules (ROADMAP item 1's seed). The file is written against the
// package's public surface — cluster.New, Handler, Promote, Close, and HTTP —
// so the identical file runs against any commit that has that surface.
//
// One seed is one run: a 3-node in-process quorum ring over internal/chaos's
// transport, two writers and a revalidating follower reader recording what
// they were told and how long each answer took, and a schedule drawn from the
// seed — network faults between the leader and its first follower, the leader
// cut off from every node, a stalled disk, a follower killed mid-shipment
// (its next append torn) and restarted on its directory, a compaction that
// forces the stream to open with a snapshot, then the leader killed, its first follower promoted, and (on some seeds)
// the promoted leader restarted on its WAL. A provider and a tagger are
// minted on the promoted leader after the promotion and after its restart.
// After the run quiesces the recorded history is checked against the
// survivors' state and every node's own count of degraded acks.
//
//	go test ./internal/cluster -run TestReplicationHistories -history-seeds 500
//	go test ./internal/cluster -run TestReplicationHistories -history-seed 17 -v

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itag/internal/chaos"
	"itag/internal/cluster"
	"itag/internal/store"
)

var (
	historySeeds = flag.Int("history-seeds", 25, "how many seeded fault schedules TestReplicationHistories runs")
	historySeed  = flag.Int64("history-seed", -1, "run only this seed (the one a failure printed)")
)

const (
	historyQuorumTimeout = 40 * time.Millisecond
	historyBeat          = 5 * time.Millisecond
	// historyTearWait bounds how long a crash kill waits for the node's
	// next append to tear.
	historyTearWait = 4 * historyBeat
	// historyCallBound is how long any recorded call may take to be
	// answered. A write makes one quorum wait, which gives up after
	// historyQuorumTimeout; the rest is the handler's own work, and a call
	// to a dead node is refused at once.
	historyCallBound = 5 * historyQuorumTimeout
	// historyIsolation is how long the leader is cut off from every node
	// when a plan draws that fault: long enough that a quorum wait which
	// outlived its timeout would outlast historyCallBound too.
	historyIsolation = 2 * historyCallBound
	// historyPartialBatch marks, in historyOp.status, a tasks:batch answer
	// that submitted some of its items and refused others.
	historyPartialBatch = -1
)

// historyOp is one write as its caller saw it.
type historyOp struct {
	kind   string        // "post" (request + submit) or "batch" (one tasks:batch call)
	tags   []string      // the marker tag of every post the call made, unique in the run
	ids    []string      // task IDs the server handed out
	status int           // status of the completing response; 0 when none arrived
	quorum string        // its X-Itag-Quorum stamp
	node   string        // the node asked
	ringV  uint64        // that node's ring version when the answer arrived
	wall   time.Duration // how long the answer took
	// by is the node instance that answered 2xx; nil when none did, or when
	// the node was stopped or restarted while the call was out.
	by *cluster.Node
}

// historyRead is one follower read: how many posts the export showed — for a
// 304, the export it certified: the body of the reader's last 200 there.
type historyRead struct {
	node        string
	ringV       uint64
	posts       int
	notModified bool
	// floor is how many posts had been acknowledged ok, before the read was
	// sent, by a leader whose acks wait on this follower's watermark (0 when
	// the follower was not yet known to be that one).
	floor int
	wall  time.Duration // how long the answer took
}

// historyCluster is a 3-node quorum ring whose inter-node traffic crosses the
// chaos schedule; the workload's own client does not.
type historyCluster struct {
	t      testing.TB
	tr     *cluster.HandlerTransport
	sched  *chaos.Schedule
	dir    string
	client *http.Client

	mu        sync.Mutex
	nodes     map[string]*cluster.Node
	instances []*cluster.Node // every node ever booted, stopped or not

	// dying maps the directory of a node being killed mid-append to what
	// its stores call as they tear.
	dying sync.Map
}

// fault is the hook every store of the cluster opens with: the stores of a
// dying node tear their next segment write at half, and every store takes
// the schedule's disk faults.
func (h *historyCluster) fault(op store.FileOp, path string, n int) (bool, int) {
	if op == store.FileWrite && strings.Contains(path, ".seg-") {
		if tore, ok := h.dying.Load(filepath.Dir(path)); ok {
			tore.(func())()
			return true, n / 2
		}
	}
	return h.sched.Disk(op, path, n)
}

// node returns the running node of that name (nil while it is down).
func (h *historyCluster) node(slot string) *cluster.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[slot]
}

var historySlots = []string{"alpha", "beta", "gamma"}

func newHistoryCluster(t testing.TB, sched *chaos.Schedule) *historyCluster {
	t.Helper()
	h := &historyCluster{t: t, tr: cluster.NewHandlerTransport(), sched: sched, dir: t.TempDir(),
		nodes: make(map[string]*cluster.Node)}
	h.client = h.tr.Client()
	members := make([]cluster.Member, len(historySlots))
	for i, s := range historySlots {
		members[i] = cluster.Member{Slot: s, Addr: "http://" + s}
	}
	ring, err := cluster.NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range historySlots {
		h.boot(s, ring)
	}
	return h
}

// close stops every node still running.
func (h *historyCluster) close() {
	for _, s := range historySlots {
		if n := h.node(s); n != nil {
			_ = n.Close()
		}
	}
}

// boot starts (or restarts, on the directory it had) the node named slot
// with the given ring and puts it on the network.
func (h *historyCluster) boot(slot string, ring *cluster.Ring) {
	h.t.Helper()
	n, err := cluster.New(cluster.Options{
		Slot: slot, Ring: ring.Clone(), Dir: filepath.Join(h.dir, slot),
		Store: store.Options{SegmentBytes: 4096, Fault: h.fault}, Seed: 7, Replicas: 2,
		PullInterval: historyBeat, PullMaxBackoff: 8 * historyBeat,
		Quorum: true, QuorumTimeout: historyQuorumTimeout,
		HTTPClient: &http.Client{Timeout: 5 * time.Second,
			Transport: chaos.Wrap(h.tr.Client().Transport, h.sched, slot)},
	})
	if err != nil {
		h.t.Fatalf("boot %s: %v", slot, err)
	}
	h.mu.Lock()
	h.nodes[slot] = n
	h.instances = append(h.instances, n)
	h.mu.Unlock()
	h.tr.Register(slot, n.Handler())
}

// kill takes a node off the network and stops it. With crash set it dies
// mid-append, as a process does: the store it leads and every replica store
// it holds tear their next append — a shipment exactly like a local batch —
// and the node stops once one of them has torn, or after historyTearWait if
// none had anything to write.
func (h *historyCluster) kill(slot string, crash bool) {
	n := h.node(slot)
	dir := filepath.Join(h.dir, slot)
	if crash {
		torn := make(chan struct{})
		var once sync.Once
		h.dying.Store(dir, func() { once.Do(func() { close(torn) }) })
		select {
		case <-torn:
		case <-time.After(historyTearWait):
		}
	}
	h.tr.Register(slot, nil)
	h.mu.Lock()
	delete(h.nodes, slot)
	h.mu.Unlock()
	_ = n.Close()
	h.dying.Delete(dir) // it boots again whole
}

// call performs one request and returns status, headers and body; status 0
// means no response arrived.
func (h *historyCluster) call(method, url string, body any, hdr ...string) (int, http.Header, []byte) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err) // the test's own literals
		}
		rd = bytes.NewReader(b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		panic(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

// mustCreate POSTs body to url on a healthy cluster and returns the minted id.
func (h *historyCluster) mustCreate(url string, body any) string {
	h.t.Helper()
	var out struct {
		ID string `json:"id"`
	}
	status, _, data := h.call(http.MethodPost, url, body)
	if status/100 != 2 || json.Unmarshal(data, &out) != nil || out.ID == "" {
		h.t.Fatalf("POST %s: status %d body %s", url, status, data)
	}
	return out.ID
}

// appliedSeq reads a slot's applied sequence off a node's status report.
func (h *historyCluster) appliedSeq(node, slot string) (uint64, bool) {
	status, _, data := h.call(http.MethodGet, "http://"+node+"/api/v1/cluster/status", nil)
	var st struct {
		Slots []struct {
			Slot       string `json:"slot"`
			AppliedSeq uint64 `json:"applied_seq"`
		} `json:"slots"`
	}
	if status != http.StatusOK || json.Unmarshal(data, &st) != nil {
		return 0, false
	}
	for _, s := range st.Slots {
		if s.Slot == slot {
			return s.AppliedSeq, true
		}
	}
	return 0, false
}

// exportView is what an export says: every tag shown and the post count.
type exportView struct {
	raw   []byte
	tags  map[string]bool
	posts int
	// crowded is a resource with more posts than the export shows tags for;
	// the run is sized so that none is.
	crowded string
}

func parseExport(raw []byte) (exportView, error) {
	var page struct {
		Items []struct {
			ID      string `json:"id"`
			Posts   int    `json:"posts"`
			TopTags []struct {
				Tag string `json:"tag"`
			} `json:"top_tags"`
		} `json:"items"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		return exportView{}, err
	}
	v := exportView{raw: raw, tags: make(map[string]bool)}
	for _, it := range page.Items {
		v.posts += it.Posts
		if it.Posts > len(it.TopTags) {
			v.crowded = it.ID
		}
		for _, tf := range it.TopTags {
			v.tags[tf.Tag] = true
		}
	}
	return v, nil
}

// historyPlan is one seed's schedule: the network and disk faults as a
// chaos schedule (printable as a -chaos-spec), and the steps no spec can say.
type historyPlan struct {
	seed           int64
	faults         []chaos.Fault
	restart        string        // follower killed and restarted in the fault window ("" = none)
	restartAt      time.Duration // when it is killed; it returns at heal
	compact        bool          // the leader compacts just before heal
	restartLeader  bool          // the promoted leader is restarted on its WAL
	isolated       bool          // the leader is cut off from every node for historyIsolation
	window         time.Duration // the faults heal this long after they start
	leader, f1, f2 string
}

// historyFaultWindow is how long the faults last, unless the leader's
// isolation runs longer.
const historyFaultWindow = 90 * time.Millisecond

// drawPlan draws the seed's schedule. Every seed gets the failover; the
// fault window before it holds one or two of the other kinds.
func drawPlan(seed int64, leader, f1, f2 string) historyPlan {
	rng := rand.New(rand.NewSource(seed))
	p := historyPlan{seed: seed, leader: leader, f1: f1, f2: f2, restartLeader: rng.Intn(3) == 0, window: historyFaultWindow}
	window := func() (after, length time.Duration) {
		after = time.Duration(5+rng.Intn(30)) * time.Millisecond
		return after, time.Duration(15+rng.Intn(40)) * time.Millisecond
	}
	kinds := rng.Perm(7)[:1+rng.Intn(2)]
	for _, k := range kinds {
		after, length := window()
		switch k {
		case 0: // the leader and its first follower cannot reach each other
			p.faults = append(p.faults, chaos.Fault{Kind: chaos.KindPartition, From: leader, To: f1, After: after, For: length})
		case 1: // shipments to the first follower are lost on the way
			p.faults = append(p.faults, chaos.Fault{Kind: chaos.KindLoss, From: leader, To: f1, P: 0.5, After: after, For: length})
		case 2: // they arrive and are applied, and the acks are lost
			p.faults = append(p.faults, chaos.Fault{Kind: chaos.KindLoss, From: f1, To: leader, P: 0.5, After: after, For: length})
		case 3: // a disk hiccups on every append: the leader's or its first follower's
			host := []string{leader, f1}[rng.Intn(2)]
			p.faults = append(p.faults, chaos.Fault{Kind: chaos.KindDiskStall, Host: "/" + host + "/", Op: store.FileWrite,
				Delay: time.Duration(1+rng.Intn(3)) * time.Millisecond, After: after, For: length})
		case 4: // a follower dies mid-shipment and comes back on its directory
			p.restart, p.restartAt = []string{f1, f2}[rng.Intn(2)], after
		case 5: // the second follower is cut off while the leader compacts: it must be fed a snapshot
			p.faults = append(p.faults, chaos.Fault{Kind: chaos.KindPartition, From: leader, To: f2, After: 0, For: historyFaultWindow})
			p.compact = true
		case 6: // the leader is cut off from every node: each write waits out the quorum timeout
			p.faults = append(p.faults, chaos.Fault{Kind: chaos.KindPartition, From: leader, To: "*", After: after, For: historyIsolation})
			p.isolated, p.window = true, after+historyIsolation
		}
	}
	return p
}

// spec renders the plan's faults in the -chaos-spec grammar.
func (p historyPlan) spec() string {
	parts := []string{"seed=" + strconv.FormatInt(p.seed, 10)}
	for _, f := range p.faults {
		fields := []string{"after=" + f.After.String(), "for=" + f.For.String()}
		switch f.Kind {
		case chaos.KindPartition:
			fields = append(fields, "partition", "from="+f.From, "to="+f.To)
		case chaos.KindLoss:
			fields = append(fields, "loss="+strconv.FormatFloat(f.P, 'g', -1, 64), "from="+f.From, "to="+f.To)
		case chaos.KindDiskStall:
			fields = append(fields, "stall="+f.Delay.String(), "host="+f.Host, "op="+f.Op.String())
		}
		parts = append(parts, strings.Join(fields, ","))
	}
	return strings.Join(parts, ";")
}

// steps renders what the spec cannot.
func (p historyPlan) steps() string {
	var s []string
	if p.restart != "" {
		s = append(s, fmt.Sprintf("kill follower %s at %v mid-append, restart it at heal", p.restart, p.restartAt))
	}
	if p.compact {
		s = append(s, "leader compacts before heal")
	}
	s = append(s, "heal at "+p.window.String(), "kill leader "+p.leader, "promote "+p.f1)
	if p.restartLeader {
		s = append(s, "restart "+p.f1+" on its WAL")
	}
	return strings.Join(s, "; ")
}

// historyMint is one provider, tagger or project ID minted in the run.
type historyMint struct {
	id, when string
}

// historyRun is one seed's recorded run.
type historyRun struct {
	plan   historyPlan
	ops    []historyOp
	reads  []historyRead
	minted []historyMint
	// counted is each node instance's own count of degraded acks
	// (Status().QuorumDegraded), read once no write is in flight.
	counted map[*cluster.Node]uint64
	// forgedStatus is how the surviving follower answered a well-formed,
	// contiguous shipment sent in the dead leader's name, and forgedApplied
	// whether its watermark moved.
	forgedStatus  int
	forgedApplied bool
	stalled       []string // phases after which no write was stamped ok in time
	// cuts counts the open replicate exchanges the schedule's network faults
	// cut, by the leg that dropped: shipments (request) and acks (response).
	cuts         [2]uint64
	leaderStatus int // of the promoted leader's final export
	leaderExport exportView
	followExport exportView
	converged    bool
}

// runHistory executes one seed.
func runHistory(t testing.TB, seed int64) *historyRun {
	sched := chaos.NewSchedule(seed)
	h := newHistoryCluster(t, sched)
	defer h.close() // now, not at the test's end: the next seed gets the box to itself

	// Everything is minted on alpha: its ID filter keeps the provider, the
	// taggers and the project on the slot it leads.
	const leader = "alpha"
	base := "http://" + leader + "/api/v1"
	provider := h.mustCreate(base+"/providers", map[string]string{"name": "history"})
	taggers := []string{
		h.mustCreate(base+"/taggers", map[string]string{"name": "w0"}),
		h.mustCreate(base+"/taggers", map[string]string{"name": "w1"}),
	}
	resources := make([]map[string]string, 400)
	for i := range resources {
		id := fmt.Sprintf("r-%03d", i)
		resources[i] = map[string]string{"id": id, "name": id}
	}
	project := h.mustCreate(base+"/projects", map[string]any{
		"provider_id": provider, "name": "history", "budget": 100000, "pay_per_task": 0.05,
		"strategy": "random", "resources": resources,
	})
	followers := h.node(leader).Ring().Followers(leader, 2)
	plan := drawPlan(seed, leader, followers[0], followers[1])
	sched.Faults = plan.faults
	run := &historyRun{plan: plan, counted: make(map[*cluster.Node]uint64)}
	for _, id := range append([]string{provider, project}, taggers...) {
		run.minted = append(run.minted, historyMint{id, "at setup"})
	}
	// mint registers a provider and a tagger straight on the service behind
	// the slot the promoted leader now leads.
	mint := func(when string) {
		svc := h.node(plan.f1).Service(leader)
		if svc == nil {
			t.Errorf("seed %d: %s does not lead %s %s", seed, plan.f1, leader, when)
			return
		}
		ctx := context.Background()
		for _, register := range []func(context.Context, string) (string, error){svc.RegisterProvider, svc.RegisterTagger} {
			id, err := register(ctx, "minted "+when)
			if err != nil {
				t.Errorf("seed %d: mint %s: %v", seed, when, err)
				continue
			}
			run.minted = append(run.minted, historyMint{id, when})
		}
	}

	var (
		mu      sync.Mutex
		target  atomic.Value // node the writers ask
		stop    atomic.Bool
		workers sync.WaitGroup
	)
	target.Store(leader)
	// Posts acknowledged ok so far, by the leader that acknowledged them. The
	// ack waited on the first follower's watermark: plan.f1's while the
	// original leader leads, plan.f2's once plan.f1 does.
	okBy := map[string]*atomic.Int64{leader: new(atomic.Int64), plan.f1: new(atomic.Int64)}
	record := func(op historyOp) {
		if n := h.node(op.node); n != nil {
			op.ringV = n.Ring().Version
		}
		if op.kind != "task" && op.status/100 == 2 && op.quorum == cluster.QuorumOK {
			okBy[op.node].Add(int64(len(op.tags)))
		}
		mu.Lock()
		run.ops = append(run.ops, op)
		mu.Unlock()
		if op.status/100 != 2 {
			time.Sleep(time.Millisecond) // a dead node answers at once; do not spin on it
		}
	}
	// send makes one timed write call to node and names the node instance
	// that answered it 2xx.
	send := func(node, url string, body any) (status int, hdr http.Header, data []byte, wall time.Duration, by *cluster.Node) {
		before := h.node(node)
		start := time.Now()
		status, hdr, data = h.call(http.MethodPost, url, body)
		wall = time.Since(start)
		if status/100 == 2 && h.node(node) == before {
			by = before
		}
		return status, hdr, data, wall, by
	}
	writer := func(w int) {
		defer workers.Done()
		rng := rand.New(rand.NewSource(seed*31 + int64(w)))
		for n := 0; !stop.Load(); n++ {
			node := target.Load().(string)
			purl := "http://" + node + "/api/v1/projects/" + project
			if rng.Intn(5) == 0 {
				op := historyOp{kind: "batch", node: node}
				items := make([]map[string]any, 2+rng.Intn(3))
				for i := range items {
					tag := fmt.Sprintf("b%d-%d-%d", w, n, i)
					op.tags = append(op.tags, tag)
					items[i] = map[string]any{"tagger_id": taggers[w], "tags": []string{tag}}
				}
				status, hdr, data, wall, by := send(node, purl+"/tasks:batch", map[string]any{"items": items})
				op.status, op.quorum, op.wall, op.by = status, hdr.Get(cluster.HeaderQuorum), wall, by
				var out struct {
					Results []struct {
						TaskID    string `json:"task_id"`
						Submitted bool   `json:"submitted"`
					} `json:"results"`
				}
				if status/100 == 2 && json.Unmarshal(data, &out) == nil && len(out.Results) == len(items) {
					for _, r := range out.Results {
						if r.Submitted {
							op.ids = append(op.ids, r.TaskID)
						}
					}
					// Every item is valid, so the items stand or fall together:
					// all refused (the store died under the call) promises
					// nothing, some refused is itself the violation.
					switch len(op.ids) {
					case len(items):
					case 0:
						op.status = 0
					default:
						op.status = historyPartialBatch
					}
				} else if status/100 == 2 {
					op.status = 0 // an answer the caller cannot read promises nothing
				}
				record(op)
			} else {
				tag := fmt.Sprintf("p%d-%d", w, n)
				op := historyOp{kind: "post", node: node, tags: []string{tag}}
				var task struct {
					ID string `json:"id"`
				}
				status, hdr, data, wall, by := send(node, purl+"/tasks", map[string]string{"tagger_id": taggers[w]})
				op.status, op.quorum, op.wall, op.by = status, hdr.Get(cluster.HeaderQuorum), wall, by
				if status/100 == 2 && json.Unmarshal(data, &task) == nil && task.ID != "" {
					// The ID was handed out under the request's stamp; the post
					// is judged by the submit's.
					record(historyOp{kind: "task", node: node, ids: []string{task.ID}, status: status, quorum: op.quorum, wall: wall, by: by})
					status, hdr, _, wall, by = send(node, purl+"/tasks/"+task.ID+"/submit", map[string][]string{"tags": {tag}})
					op.status, op.quorum, op.wall, op.by = status, hdr.Get(cluster.HeaderQuorum), wall, by
				} else if status/100 == 2 {
					op.status = 0
				}
				record(op)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	reader := func() {
		defer workers.Done()
		// The reader revalidates, as the SDK does: per URL, the tag and the
		// export of the last 200.
		type validated struct {
			etag string
			view exportView
		}
		kept := make(map[string]validated)
		read := func(node string, floor int) {
			// A read counts under a ring version only if the follower held
			// that version before and after answering it.
			n := h.node(node)
			if n == nil {
				return
			}
			before := n.Ring().Version
			url := "http://" + node + "/api/v1/projects/" + project + "/export"
			hdr := []string{cluster.HeaderRead, cluster.ReadFollower}
			last := kept[url]
			if last.etag != "" {
				hdr = append(hdr, "If-None-Match", last.etag)
			}
			start := time.Now()
			status, got, data := h.call(http.MethodGet, url, nil, hdr...)
			wall := time.Since(start)
			switch status {
			case http.StatusOK:
				v, err := parseExport(data)
				if err != nil {
					return
				}
				last = validated{etag: got.Get("Etag"), view: v}
				kept[url] = last
			case http.StatusNotModified: // certifies what is kept
			default:
				return
			}
			if n.Ring().Version == before {
				mu.Lock()
				run.reads = append(run.reads, historyRead{node: node, ringV: before, posts: last.view.posts,
					notModified: status == http.StatusNotModified, floor: floor, wall: wall})
				mu.Unlock()
			}
		}
		for !stop.Load() {
			// Floors are read before the request is sent.
			if acked := int(okBy[leader].Load()); target.Load().(string) == leader {
				read(plan.f1, acked)
			}
			floor := 0
			if promoted := int(okBy[plan.f1].Load()); promoted > 0 {
				floor = int(okBy[leader].Load()) + promoted
			}
			read(plan.f2, floor)
			time.Sleep(2 * time.Millisecond)
		}
	}
	// awaitOK waits for a write that node stamps ok from now on: the event
	// each phase ends on, however slow the box.
	awaitOK := func(node, after string) {
		mu.Lock()
		mark := len(run.ops)
		mu.Unlock()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			mu.Lock()
			for _, op := range run.ops[mark:] {
				if op.node == node && op.kind != "task" && op.status/100 == 2 && op.quorum == cluster.QuorumOK {
					mu.Unlock()
					return
				}
			}
			mu.Unlock()
		}
		run.stalled = append(run.stalled, after)
	}
	workers.Add(3)
	go writer(0)
	go writer(1)
	go reader()

	// The fault window.
	start := time.Now()
	sched.Start()
	if plan.restart != "" {
		time.Sleep(plan.restartAt)
		h.kill(plan.restart, true)
	}
	if plan.compact {
		time.Sleep(time.Until(start.Add(plan.window - 10*time.Millisecond)))
		if err := h.node(leader).DB(leader).Compact(); err != nil {
			t.Errorf("seed %d: compact: %v", seed, err)
		}
	}
	time.Sleep(time.Until(start.Add(plan.window)))
	sched.Stop()
	if plan.restart != "" {
		h.boot(plan.restart, h.node(leader).Ring())
	}
	// Healed: the streams must win the quorum back on their own, and the
	// failover is exercised with ok-stamped writes in flight.
	awaitOK(leader, "the heal")
	time.Sleep(20 * time.Millisecond)

	// The failover: the leader dies mid-append, its first follower is promoted.
	h.kill(leader, true)
	if status, _, data := h.call(http.MethodPost, "http://"+plan.f1+"/api/v1/cluster/promote", map[string]string{"slot": leader}); status != http.StatusOK {
		t.Errorf("seed %d: promote %s: status %d body %s", seed, plan.f1, status, data)
	}
	target.Store(plan.f1)
	mint("after the promotion")
	awaitOK(plan.f1, "the promotion")
	time.Sleep(20 * time.Millisecond)
	if plan.restartLeader {
		ring := h.node(plan.f1).Ring()
		h.kill(plan.f1, false)
		h.boot(plan.f1, ring)
		mint("after the promoted leader's restart")
		awaitOK(plan.f1, "the promoted leader's restart")
	}
	stop.Store(true)
	workers.Wait()
	// No write is in flight now, so every degraded ack recorded has been
	// counted by the node that gave it, stopped or not.
	h.mu.Lock()
	for _, n := range h.instances {
		run.counted[n] = n.Status().QuorumDegraded
	}
	h.mu.Unlock()

	// Quiesce: the surviving follower reaches the promoted leader's watermark.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		want, ok1 := h.appliedSeq(plan.f1, leader)
		got, ok2 := h.appliedSeq(plan.f2, leader)
		if ok1 && ok2 && got == want {
			run.converged = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	export := "/api/v1/projects/" + project + "/export"
	var data []byte
	if run.leaderStatus, _, data = h.call(http.MethodGet, "http://"+plan.f1+export, nil); run.leaderStatus == http.StatusOK {
		run.leaderExport, _ = parseExport(data)
	}
	if status, _, data := h.call(http.MethodGet, "http://"+plan.f2+export, nil, cluster.HeaderRead, cluster.ReadFollower); status == http.StatusOK {
		run.followExport, _ = parseExport(data)
	}

	// Last, the dead leader speaks: a well-formed shipment, contiguous with
	// the surviving follower's log, in the old owner's name at the old ring.
	if at, ok := h.appliedSeq(plan.f2, leader); ok {
		run.forgedStatus = h.forgeShipment(plan.f2, leader, "http://"+leader, 1, at)
		after, _ := h.appliedSeq(plan.f2, leader)
		run.forgedApplied = after != at
	}
	run.cuts[0], run.cuts[1] = sched.Cuts()
	return run
}

// forgeShipment ships one valid frame for seq at+1 to node's replica of
// slot on an exchange of its own, claiming to come from the node at fromAddr
// with ring version ringV, and returns the HTTP status the follower answered
// with: the opening's, or a refusal's, or 200 for an ack.
func (h *historyCluster) forgeShipment(node, slot, fromAddr string, ringV, at uint64) int {
	body, err := json.Marshal(store.Record{Seq: at + 1, Op: store.OpPut, Table: "forged", Key: "k", Value: json.RawMessage(`{"by":"a deposed leader"}`)})
	if err != nil {
		h.t.Fatal(err)
	}
	frame := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)
	x, err := cluster.OpenExchange(context.Background(), h.tr, "http://"+node, slot, fromAddr, ringV)
	if err == nil {
		defer x.Close()
		_, err = x.Ship(cluster.Shipment{Format: cluster.FormatFrames, From: at, Applied: at + 1, RingVersion: ringV, Payload: []byte(frame)})
	}
	var refused *cluster.Refusal
	switch {
	case errors.As(err, &refused):
		return refused.Status
	case err != nil:
		return 0
	}
	return http.StatusOK
}

// slowest returns the longest any recorded call took, and which call it was.
func (run *historyRun) slowest() (wall time.Duration, call string) {
	for _, op := range run.ops {
		if op.wall > wall {
			wall, call = op.wall, fmt.Sprintf("%s call to %s (status %d)", op.kind, op.node, op.status)
		}
	}
	for _, rd := range run.reads {
		if rd.wall > wall {
			wall, call = rd.wall, "follower read on "+rd.node
		}
	}
	return wall, call
}

// check holds the recorded history against the survivors' state and returns
// every invariant it breaks, by name.
func (run *historyRun) check() []string {
	var bad []string
	fail := func(invariant, format string, args ...any) {
		bad = append(bad, invariant+": "+fmt.Sprintf(format, args...))
	}
	if wall, call := run.slowest(); wall > historyCallBound {
		fail("bounded unavailability", "a %s took %v to be answered, more than %v", call, wall, historyCallBound)
	}
	degraded := make(map[*cluster.Node]uint64) // 2xx answers stamped degraded, by the instance that gave them
	name := make(map[*cluster.Node]string)
	for _, op := range run.ops {
		if op.by != nil && op.quorum == cluster.QuorumDegraded {
			degraded[op.by]++
			name[op.by] = op.node
		}
	}
	leaderDegraded := false
	for n, answered := range degraded {
		if answered > run.counted[n] {
			fail("degraded acks are counted", "%s stamped %d answers degraded and counted %d", name[n], answered, run.counted[n])
		}
		leaderDegraded = leaderDegraded || name[n] == run.plan.leader
	}
	if run.plan.isolated && !leaderDegraded {
		fail("degraded acks are counted", "%s was cut off from every node for %v and stamped no answer degraded", run.plan.leader, historyIsolation)
	}
	first := make(map[string]string) // minted ID -> when
	for _, m := range run.minted {
		if when, dup := first[m.id]; dup {
			fail("no ID is minted twice", "%s minted %s was already minted %s", m.id, m.when, when)
		}
		first[m.id] = m.when
	}
	final := run.leaderExport
	if final.tags == nil {
		fail("ok-stamped writes survive", "the promoted leader answers %d to the project's export: it holds none of the slot's history", run.leaderStatus)
		return bad
	}
	if final.crowded != "" {
		fail("setup", "resource %s holds more posts than its export shows tags: the run is oversized", final.crowded)
	}
	for _, after := range run.stalled {
		fail("the quorum comes back", "no write was stamped ok within 5s of %s", after)
	}
	issued := make(map[string]string) // task ID -> stamp of the response that handed it out
	for _, op := range run.ops {
		for _, id := range op.ids {
			// An ID that a leader-only ack handed out may die with that leader
			// and be minted again; one an ok-stamped response handed out may not.
			if prev, dup := issued[id]; dup && prev == cluster.QuorumOK {
				fail("no ID issued twice", "%s was handed out again after an ok-stamped response had issued it", id)
			}
			issued[id] = op.quorum
		}
		if op.kind == "task" {
			continue
		}
		present := 0
		for _, tag := range op.tags {
			if final.tags[tag] {
				present++
			}
		}
		if op.status == historyPartialBatch {
			fail("all or nothing", "batch call on %s submitted %d of its %d valid items", op.node, len(op.ids), len(op.tags))
		}
		if present != 0 && present != len(op.tags) {
			fail("all or nothing", "%s call on %s (status %d, %q): %d of its %d posts are in the promoted leader's state",
				op.kind, op.node, op.status, op.quorum, present, len(op.tags))
		}
		if op.status/100 == 2 && op.quorum == cluster.QuorumOK {
			if present != len(op.tags) {
				fail("ok-stamped writes survive", "%s %v acked ok by %s at ring v%d is missing from the promoted leader's state",
					op.kind, op.tags, op.node, op.ringV)
			}
		}
	}
	if !run.converged {
		fail("follower equals leader", "the surviving follower never reached the promoted leader's watermark")
	} else if !bytes.Equal(run.followExport.raw, final.raw) {
		fail("follower equals leader", "at equal watermarks the surviving follower's export differs from the promoted leader's (%d vs %d posts)",
			run.followExport.posts, final.posts)
	}
	var prev historyRead
	for _, cur := range run.reads {
		if cur.node != run.plan.f2 {
			continue
		}
		if cur.ringV == prev.ringV && cur.posts < prev.posts {
			fail("follower reads are monotone", "under ring v%d a follower read showed %d posts after one that showed %d", cur.ringV, cur.posts, prev.posts)
			break
		}
		prev = cur
	}
	for _, rd := range run.reads {
		if rd.notModified && rd.posts < rd.floor {
			fail("a 304 certifies nothing older than an ok ack", "under ring v%d %s answered 304 for an export showing %d posts to a read sent after %d had been acknowledged ok through its watermark",
				rd.ringV, rd.node, rd.posts, rd.floor)
			break
		}
	}
	if run.forgedApplied || run.forgedStatus == http.StatusOK {
		fail("no shipment from a non-owner is applied", "the surviving follower answered %d to a shipment in the dead leader's name (watermark moved: %v)",
			run.forgedStatus, run.forgedApplied)
	}
	return bad
}

// TestReplicationHistories runs the seeded schedules and checks each recorded
// history: every ok-stamped write is in the promoted leader's state; a
// degraded write, and a tasks:batch call whatever its stamp, is wholly there
// or wholly absent; the surviving follower's export equals the leader's at
// equal watermarks; a follower read never shows fewer posts than the one
// before it under the same ring, and a 304 never certifies an export showing
// fewer posts than had been acknowledged ok, through that follower's
// watermark, before the read was sent; no task ID an ok-stamped response
// handed out is handed out again, and no provider, tagger or project ID is
// minted twice, across the promotion and the restart; a shipment in the dead
// leader's name is refused; after the heal, the promotion and the promoted
// leader's restart, writes are stamped ok again without anyone's help; every
// call, a write to the dead leader included, is answered within
// historyCallBound; and no node stamps more answers degraded than it counts.
func TestReplicationHistories(t *testing.T) {
	seeds := make([]int64, 0, *historySeeds)
	for s := int64(1); len(seeds) < *historySeeds; s++ {
		seeds = append(seeds, s)
	}
	if *historySeed >= 0 {
		seeds = []int64{*historySeed}
	}
	failed := 0
	var worst time.Duration
	var cuts [2]uint64
	for _, seed := range seeds {
		run := runHistory(t, seed)
		bad := run.check()
		wall, _ := run.slowest()
		worst = max(worst, wall)
		cuts[0], cuts[1] = cuts[0]+run.cuts[0], cuts[1]+run.cuts[1]
		if *historySeed >= 0 || testing.Verbose() {
			ok, degraded, failed := 0, 0, 0
			for _, op := range run.ops {
				switch {
				case op.status/100 != 2:
					failed++
				case op.quorum == cluster.QuorumOK:
					ok++
				default:
					degraded++
				}
			}
			notModified, floored := 0, 0
			for _, rd := range run.reads {
				if rd.notModified {
					notModified++
					if rd.floor > 0 {
						floored++
					}
				}
			}
			t.Logf("seed %d: %d calls (%d ok, %d degraded, %d failed), %d follower reads (%d answered 304, %d of those held to an ok-ack floor), slowest call %v; steps: %s; -chaos-spec %q",
				seed, len(run.ops), ok, degraded, failed, len(run.reads), notModified, floored, wall, run.plan.steps(), run.plan.spec())
		}
		if len(bad) == 0 {
			continue
		}
		failed++
		t.Errorf("seed %d broke %d invariant(s):\n  %s\n  replay: go test ./internal/cluster -run TestReplicationHistories -history-seed %d\n  -chaos-spec %q\n  steps: %s",
			seed, len(bad), strings.Join(bad, "\n  "), seed, run.plan.spec(), run.plan.steps())
	}
	t.Logf("slowest call over %d seeds: %v (bound %v); exchanges cut on the shipment leg %d times, on the ack leg %d times",
		len(seeds), worst, historyCallBound, cuts[0], cuts[1])
	// The loss and partition schedules of the tier-1 seeds must still fault
	// replication mid-stream, both ways: a stream the faults do not reach
	// passes every invariant above without being tested by them.
	if len(seeds) >= 25 && (cuts[0] == 0 || cuts[1] == 0) {
		t.Errorf("over %d seeds the faults cut %d exchanges on the shipment leg and %d on the ack leg; want both above 0",
			len(seeds), cuts[0], cuts[1])
	}
	if failed > 0 {
		t.Errorf("%d of %d seeds failed", failed, len(seeds))
	}
}

// TestHistorySpecsParse keeps the replay line honest: every plan's spec is
// accepted by the parser behind itagd's -chaos-spec and describes the same
// faults.
func TestHistorySpecsParse(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		plan := drawPlan(seed, "alpha", "beta", "gamma")
		if len(plan.faults) == 0 {
			continue
		}
		sched, err := chaos.ParseSpec(plan.spec())
		if err != nil {
			t.Fatalf("seed %d: spec %q does not parse: %v", seed, plan.spec(), err)
		}
		if sched.Seed != seed || fmt.Sprint(sched.Faults) != fmt.Sprint(plan.faults) {
			t.Fatalf("seed %d: spec %q parses to %+v, the plan holds %+v", seed, plan.spec(), sched.Faults, plan.faults)
		}
	}
}

// TestDeposedLeaderCannotFeedFollower: a leader that is partitioned away, not
// dead, keeps shipping what it acks. The slot's second follower is promoted;
// when the partition heals the deposed leader's next shipment to the
// follower that was not promoted is refused — contiguous and well-formed as
// it is — the refusal carries the newer ring, the deposed leader steps down,
// and the remaining follower ends up equal to the new leader.
func TestDeposedLeaderCannotFeedFollower(t *testing.T) {
	sched := chaos.NewSchedule(1)
	h := newHistoryCluster(t, sched)
	defer h.close()
	const leader = "alpha"
	base := "http://" + leader + "/api/v1"
	provider := h.mustCreate(base+"/providers", map[string]string{"name": "p"})
	tagger := h.mustCreate(base+"/taggers", map[string]string{"name": "t"})
	project := h.mustCreate(base+"/projects", map[string]any{
		"provider_id": provider, "name": "fence", "budget": 1000, "pay_per_task": 0.05, "strategy": "random",
		"resources": []map[string]string{{"id": "r-0", "name": "r-0"}, {"id": "r-1", "name": "r-1"}},
	})
	post := func(node, tag string) {
		t.Helper()
		purl := "http://" + node + "/api/v1/projects/" + project
		var task struct {
			ID string `json:"id"`
		}
		status, _, data := h.call(http.MethodPost, purl+"/tasks", map[string]string{"tagger_id": tagger})
		if status/100 != 2 || json.Unmarshal(data, &task) != nil {
			t.Fatalf("request task on %s: status %d body %s", node, status, data)
		}
		if status, _, data = h.call(http.MethodPost, purl+"/tasks/"+task.ID+"/submit", map[string][]string{"tags": {tag}}); status/100 != 2 {
			t.Fatalf("submit on %s: status %d body %s", node, status, data)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	followers := h.node(leader).Ring().Followers(leader, 2)
	kept, promoted := followers[0], followers[1]
	caughtUp := func(node, of string) func() bool {
		return func() bool {
			want, ok1 := h.appliedSeq(of, leader)
			got, ok2 := h.appliedSeq(node, leader)
			return ok1 && ok2 && got == want
		}
	}
	post(leader, "before")
	waitFor("both followers to catch up", func() bool { return caughtUp(kept, leader)() && caughtUp(promoted, leader)() })

	// Cut the leader off and promote its second follower. The first stays a
	// follower: the one the deposed leader could still feed.
	sched.Faults = []chaos.Fault{{Kind: chaos.KindPartition, From: leader, To: "*"}}
	sched.Start()
	post(leader, "doomed")
	if status, _, data := h.call(http.MethodPost, "http://"+promoted+"/api/v1/cluster/promote", map[string]string{"slot": leader}); status != http.StatusOK {
		t.Fatalf("promote %s: status %d body %s", promoted, status, data)
	}
	waitFor("the remaining follower to learn the new ring", func() bool { return h.node(kept).Ring().Version == 2 })
	waitFor("the remaining follower to follow the new leader", caughtUp(kept, promoted))

	// The deterministic core: what the deposed leader will send once it can —
	// a valid frame, contiguous with the follower's log, its own address, the
	// ring it still believes in.
	at, _ := h.appliedSeq(kept, leader)
	if status := h.forgeShipment(kept, leader, "http://"+leader, 1, at); status != http.StatusMisdirectedRequest {
		t.Errorf("a shipment from the deposed leader at ring v1 was answered %d, want 421", status)
	}
	if after, _ := h.appliedSeq(kept, leader); after != at {
		t.Errorf("the deposed leader's shipment moved the follower's watermark %d -> %d", at, after)
	}
	// The owner's shipments are still taken.
	post(promoted, "after")
	waitFor("the remaining follower to take the new leader's shipment", caughtUp(kept, promoted))

	// Heal: the deposed leader's own stream is refused the same way, learns
	// the ring from the refusal, and steps down.
	sched.Stop()
	waitFor("the deposed leader to adopt the new ring", func() bool { return h.node(leader).Ring().Version == 2 })
	waitFor("the deposed leader to step down", func() bool {
		_, leads := h.appliedSeq(leader, leader)
		return !leads
	})
	post(promoted, "settled")
	waitFor("the remaining follower to settle", caughtUp(kept, promoted))
	export := "/api/v1/projects/" + project + "/export"
	_, _, want := h.call(http.MethodGet, "http://"+promoted+export, nil)
	_, _, got := h.call(http.MethodGet, "http://"+kept+export, nil, cluster.HeaderRead, cluster.ReadFollower)
	if !bytes.Equal(got, want) {
		t.Errorf("the remaining follower's export differs from the new leader's\nfollower %s\n  leader %s", got, want)
	}
	if bytes.Contains(got, []byte("doomed")) || !bytes.Contains(got, []byte("settled")) {
		t.Errorf("the remaining follower's export holds the wrong history: %s", got)
	}
}
