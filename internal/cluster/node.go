package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/errs"
	"itag/internal/ring"
	"itag/internal/server"
	"itag/internal/store"
)

// Options configures one cluster node.
type Options struct {
	// Slot is the ring slot this node leads. It must appear in Ring.
	Slot string
	// Ring is the initial routing table (addresses included). All nodes
	// must boot with rings that agree on slot names and vnode count;
	// versions converge through ring pushes.
	Ring *Ring
	// Dir holds the node's WAL layouts: <slot>.wal for the led slot and
	// replica-<slot>.wal for each followed slot. Cluster nodes are always
	// durable — replication ships WAL bytes, so there must be a WAL.
	Dir string
	// Store tunes every store this node opens, led or followed (a promotion
	// keeps the follower's), its Fault hook included.
	Store store.Options
	// Seed seeds each slot's service: its engines' strategy randomness.
	Seed int64
	// Logger receives node lifecycle and replication errors; nil for
	// silence.
	Logger *log.Logger
	// Replicas is how many followers replicate each slot (default 2,
	// capped at ring size - 1).
	Replicas int
	// PullInterval is the replication streams' idle heartbeat and the base
	// of their error backoff (default 250ms; -cluster-pull-interval, named
	// for the poll loop it once paced). A stream with records to ship does
	// not wait for it.
	PullInterval time.Duration
	// PullBytes bounds one shipment of WAL frames (default 1 MiB; a single
	// larger record ships alone).
	PullBytes int
	// StalenessBound is the maximum replication lag, in records, at which
	// a follower still serves opt-in reads (default 1024). Beyond it the
	// node redirects to the leader instead of serving stale data.
	StalenessBound uint64
	// HTTPClient performs replication shipments and ring pushes; its
	// Transport carries the replicate exchanges. nil uses a default client
	// with a 30s timeout.
	HTTPClient *http.Client
	// RouteTimeout is passed through to the embedded API servers.
	RouteTimeout time.Duration
	// Quorum holds every mutating ack until the slot's first follower has
	// answered that the write is fsynced on its disk. Off, acks are
	// leader-durable only and nobody waits on the stream. Either way every
	// follower is shipped to.
	Quorum bool
	// QuorumTimeout bounds how long an ack is held before degrading to a
	// leader-only ack (default 2s). Degrades are logged, counted in
	// itag_cluster_quorum_degraded_total, and stamped on the response as
	// X-Itag-Quorum: degraded.
	QuorumTimeout time.Duration
	// PullMaxBackoff caps the streams' error backoff (default 15s): a dead
	// follower is probed on a capped jittered exponential schedule instead
	// of being hammered at PullInterval.
	PullMaxBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.PullInterval <= 0 {
		o.PullInterval = 250 * time.Millisecond
	}
	if o.PullBytes <= 0 {
		o.PullBytes = 1 << 20
	}
	if o.StalenessBound == 0 {
		o.StalenessBound = 1024
	}
	if o.QuorumTimeout <= 0 {
		o.QuorumTimeout = 2 * time.Second
	}
	if o.PullMaxBackoff <= 0 {
		o.PullMaxBackoff = 15 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Logger == nil {
		o.Logger = log.New(io.Discard, "", 0)
	}
	return o
}

// stack is one slot's service stack over its WAL store, the same whether the
// node leads the slot or follows it: the store, the Catalog every write to it
// passes — a leader's commits and a follower's replicated applies alike, so
// the record cache and the write clocks the response cache stamps its entries
// with move the same way in either role — and the service and server over
// them. A promotion changes the role the stack plays, not the stack.
type stack struct {
	db  *store.DB
	cat *store.Catalog
	svc *core.Service
	srv *server.Server
}

// openStack opens the store at path and builds a stack over it.
func (n *Node) openStack(path string) (stack, error) {
	db, err := store.Open(path, n.opts.Store)
	if err != nil {
		return stack{}, fmt.Errorf("cluster: open %s: %w", path, err)
	}
	cat := store.NewCatalog(db)
	svc := core.NewService(cat, n.opts.Seed)
	srv := server.NewWith(svc, server.Options{RouteTimeout: n.opts.RouteTimeout, Metrics: n.metrics})
	return stack{db: db, cat: cat, svc: svc, srv: srv}, nil
}

// backend is one slot this node leads: its stack, whose service mints IDs
// through idFilterFor(slot), and one sender per follower node (see
// stream.go), the first being the one quorum acks wait on. senders is
// guarded by n.mu.
type backend struct {
	stack
	slot    string
	senders []*sender
}

// replica is one slot this node follows: its stack serves follower reads. It
// owns no goroutine: the leader's sender drives it through handleReplicate,
// which feeds the store through cat, never db, so every replicated write
// passes the Catalog's invalidate point and the frontend's caches stay
// coherent.
type replica struct {
	stack
	owner string // the leader this replica's log came from

	// A shipment applies under applying, and Promote takes it to set
	// promoted: one that passed the fence lands before the role change or
	// is refused after it, never in a leading stack.
	applying sync.Mutex
	promoted bool

	leaderSeq atomic.Uint64 // leader's applied seq as of its last shipment
	// fed is set by the first shipment (a probe counts) the slot's owner
	// sends after the replica is opened; until then the lag is not 0, it is
	// unknown, and the replica serves no follower read.
	fed atomic.Bool
	// stale is the follower-read staleness breaker: it trips when lag
	// exceeds the staleness bound and resets only once lag falls back
	// under half the bound, so reads don't flap at the boundary.
	stale atomic.Bool
}

// readAllowed is the staleness breaker's verdict for one follower read.
// bound/2 hysteresis: once tripped, the replica must genuinely catch up —
// not just wobble one record under the limit — before serving reads again.
func (rep *replica) readAllowed(bound uint64) bool {
	if !rep.fed.Load() {
		return false
	}
	lag := rep.lag()
	if rep.stale.Load() {
		if lag <= bound/2 {
			rep.stale.Store(false)
			return true
		}
		return false
	}
	if lag > bound {
		rep.stale.Store(true)
		return false
	}
	return true
}

// lag reports how many records the replica trails its leader by (0 when
// caught up or when the local watermark has overtaken a stale report).
func (rep *replica) lag() uint64 {
	leader, applied := rep.leaderSeq.Load(), rep.db.AppliedSeq()
	if leader <= applied {
		return 0
	}
	return leader - applied
}

// Node is one member of an itag cluster: leader for every ring slot mapped
// to its address (plus any slots it has been promoted into), follower for
// the slots the ring assigns it, and router for everything else.
type Node struct {
	opts   Options
	slot   string
	addr   string // this node's advertised address, from the boot ring
	logger *log.Logger
	httpc  *http.Client
	kit    *api.Kit
	// metrics is the node's one route registry: every stack this node
	// builds, led or followed, counts its requests here.
	metrics *api.Metrics

	mu       sync.RWMutex
	ring     *Ring
	leaders  map[string]*backend
	replicas map[string]*replica
	// demoting marks slots whose retired store — a deposed backend, a
	// replica of a slot that changed owner — is still tearing down;
	// syncFollowersLocked must not re-follow them until the old WAL is
	// closed and parked (both live at the replica path a re-follow opens).
	demoting map[string]bool
	closed   bool

	notOwner      atomic.Uint64
	followerReads atomic.Uint64
	ringConflicts atomic.Uint64

	// Robustness state (PR 10): per-peer circuit breakers, quorum degrade
	// accounting, demotions, staleness-breaker fallbacks, and the
	// anti-entropy ring-fetch guard.
	peers             ring.Breakers
	quorumDegraded    atomic.Uint64
	lastDegraded      atomic.Int64 // unixnano of the last quorum degrade
	demotions         atomic.Uint64
	followerFallbacks atomic.Uint64
	ringFetch         atomic.Bool

	handler http.Handler
	wg      sync.WaitGroup

	// frameApplied, when set, sees an exchange's frame buffer after each
	// shipment it carried is applied: the tests' way to prove the store
	// keeps nothing of it. Set it before the node is on the network.
	frameApplied func(frame []byte)
}

// New opens the node's stores, resumes any interrupted runs on the led
// slots, starts their streams, and opens a replica for every slot the ring
// has this node follow.
func New(opts Options) (*Node, error) {
	opts = opts.withDefaults()
	if opts.Slot == "" {
		return nil, fmt.Errorf("cluster: Slot is required")
	}
	if opts.Ring == nil {
		return nil, fmt.Errorf("cluster: Ring is required")
	}
	if err := opts.Ring.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	addr := opts.Ring.Addr(opts.Slot)
	if addr == "" {
		return nil, fmt.Errorf("cluster: slot %q is not in the ring", opts.Slot)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("cluster: Dir is required (replication ships WAL bytes)")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	n := &Node{
		opts:     opts,
		slot:     opts.Slot,
		addr:     addr,
		logger:   opts.Logger,
		httpc:    opts.HTTPClient,
		kit:      &api.Kit{MapError: mapClusterErr},
		metrics:  api.NewMetrics(),
		ring:     opts.Ring,
		leaders:  make(map[string]*backend),
		replicas: make(map[string]*replica),
		demoting: make(map[string]bool),
	}

	// A node leads every ring slot mapped to its address, not just the one
	// it was booted under: a 3-node deployment can carry a 9-slot ring with
	// 3 slots per node, giving each node 3 independent WALs (and therefore
	// 3 independent fsync streams) while keeping key placement stable as
	// nodes are added.
	for _, m := range opts.Ring.Members {
		if m.Addr != addr {
			continue
		}
		st, err := n.openStack(n.ledPath(m.Slot))
		if err != nil {
			for _, prev := range n.leaders {
				_ = prev.db.Close()
			}
			return nil, err
		}
		b := n.lead(m.Slot, st)
		if resumed, err := b.svc.ResumeRuns(context.Background()); err != nil {
			n.logger.Printf("cluster %s: resume runs (%s): %v", n.slot, m.Slot, err)
		} else if resumed > 0 {
			n.logger.Printf("cluster %s: resumed %d interrupted run(s) on %s", n.slot, resumed, m.Slot)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/cluster/ring", n.handleRingGet)
	mux.HandleFunc("POST /api/v1/cluster/ring", n.handleRingPost)
	mux.HandleFunc("GET /api/v1/cluster/status", n.handleStatus)
	mux.HandleFunc("POST /api/v1/cluster/replicate", n.handleReplicate)
	mux.HandleFunc("POST /api/v1/cluster/promote", n.handlePromote)
	mux.HandleFunc("GET /api/v1/healthz", n.handleHealthz)
	mux.HandleFunc("/", n.routeKey)
	n.handler = mux

	n.mu.Lock()
	n.syncSendersLocked()
	n.syncFollowersLocked()
	n.mu.Unlock()
	return n, nil
}

// ledPath is where the WAL of a slot this node leads lives: <slot>.wal,
// unless the node came to lead the slot by promotion — then the replica it
// promoted, replica-<slot>.wal, is the slot's WAL and stays where it is, and a
// node restarted under the post-promotion ring finds it there instead of
// starting an empty store beside it.
func (n *Node) ledPath(slot string) string {
	promoted := n.replicaPath(slot)
	if segs, _ := filepath.Glob(promoted + ".seg-*"); len(segs) > 0 {
		return promoted
	}
	return filepath.Join(n.opts.Dir, slot+".wal")
}

func (n *Node) replicaPath(slot string) string {
	return filepath.Join(n.opts.Dir, "replica-"+slot+".wal")
}

// lead makes st the stack of a slot this node leads, at boot or on
// promotion. The ID filter keeps minted project/provider/tagger IDs on this
// node, so every record reachable through a routed URL lives with its slot.
// Caller holds n.mu (or owns n alone). Installing the filter takes the
// service's lock under n.mu, which cannot deadlock: a service waits for n.mu
// only inside its filter, and a stack gets its filter here.
func (n *Node) lead(slot string, st stack) *backend {
	st.svc.SetIDFilter(n.idFilterFor(slot))
	b := &backend{stack: st, slot: slot}
	n.leaders[slot] = b
	return b
}

// idFilterFor gates minted IDs for one led slot: routed entity prefixes
// must hash to exactly that slot — not merely some slot this node leads —
// because routeKey dispatches by owner slot and the record must live in
// the backend the router will pick. Project-scoped IDs (resources, tasks,
// posts) are only reachable through their project's URL and pass
// unfiltered.
func (n *Node) idFilterFor(slot string) func(prefix, id string) bool {
	return func(prefix, id string) bool {
		switch prefix {
		case "proj", "prov", "tag":
		default:
			return true
		}
		n.mu.RLock()
		defer n.mu.RUnlock()
		return n.ring.Owner(id) == slot
	}
}

// Handler returns the node's HTTP surface: the cluster control endpoints
// under /api/v1/cluster/ plus ring-routed access to every API route.
func (n *Node) Handler() http.Handler { return n.handler }

// Ring returns the node's current routing table.
func (n *Node) Ring() *Ring {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring
}

// Addr returns the node's advertised address.
func (n *Node) Addr() string { return n.addr }

// Service returns the service backing the led slot (nil when not led);
// benchmarks and tests drive it directly for in-process work.
func (n *Node) Service(slot string) *core.Service {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if b := n.leaders[slot]; b != nil {
		return b.svc
	}
	return nil
}

// DB returns the store backing a led slot (nil when not led). Tests use it
// to read a slot's store and to pick it out for their fault hook by its
// path.
func (n *Node) DB(slot string) *store.DB {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if b := n.leaders[slot]; b != nil {
		return b.db
	}
	return nil
}

// ReplicaDB returns the replica store for a followed slot (nil when this
// node does not follow it).
func (n *Node) ReplicaDB(slot string) *store.DB {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if rep := n.replicas[slot]; rep != nil {
		return rep.db
	}
	return nil
}

// routingKey extracts the placement key from an API path: the {id} that
// follows a routed collection ("" routes to the local slot — collection
// posts and lists, health, metrics, and any path outside /api/v1, which
// the slot's mux answers 404).
func routingKey(path string) string {
	p := strings.TrimPrefix(path, "/api/v1/")
	if p == path {
		return ""
	}
	first, rest, ok := strings.Cut(p, "/")
	if !ok || rest == "" {
		return ""
	}
	switch first {
	case "projects", "users", "providers", "taggers":
		if id, _, _ := strings.Cut(rest, "/"); id != "" {
			return id
		}
	}
	return ""
}

// routeKey serves one API request on the right store: the local leader
// backend when this node owns the key, the replica when the caller opted
// into follower reads and the replica is fresh enough, and a 421 redirect
// naming the owner otherwise.
func (n *Node) routeKey(w http.ResponseWriter, r *http.Request) {
	key := routingKey(r.URL.Path)

	n.mu.RLock()
	ring := n.ring
	var b *backend
	var rep *replica
	if key == "" {
		b = n.leaders[n.slot]
	} else {
		owner := ring.Owner(key)
		b = n.leaders[owner]
		if b == nil {
			rep = n.replicas[owner]
		}
	}
	n.mu.RUnlock()

	if b != nil {
		if n.opts.Quorum && mutating(r.Method) {
			n.serveQuorum(b, w, r)
			return
		}
		b.srv.ServeHTTP(w, r)
		return
	}
	owner := ring.Owner(key)
	if rep != nil && r.Method == http.MethodGet && r.Header.Get(HeaderRead) == ReadFollower {
		if rep.readAllowed(n.opts.StalenessBound) {
			n.followerReads.Add(1)
			w.Header().Set(HeaderServedBy, n.slot)
			rep.srv.ServeHTTP(w, r)
			return
		}
		// Staleness breaker tripped, or nothing heard from the owner yet:
		// fall through to the 421 redirect so the SDK retries the read on
		// the leader instead of serving stale data (counted so the
		// degradation is visible).
		n.followerFallbacks.Add(1)
	}
	n.notOwner.Add(1)
	w.Header().Set(HeaderOwner, ring.Addr(owner))
	n.kit.WriteError(w, r, api.Errorf(http.StatusMisdirectedRequest, api.CodeNotOwner,
		"key %q is led by slot %s", key, owner))
}

// Routed headers.
const (
	// HeaderOwner names the owning node's address on 421 not_owner
	// responses.
	HeaderOwner = "X-Itag-Owner"
	// HeaderRead set to ReadFollower opts a GET into follower reads.
	HeaderRead   = "X-Itag-Read"
	ReadFollower = "follower"
	// HeaderServedBy names the follower slot that served an opt-in read.
	HeaderServedBy = "X-Itag-Served-By"
	// HeaderQuorum reports the ack's durability on mutating responses in
	// quorum mode: QuorumOK (follower fsync confirmed) or QuorumDegraded
	// (timed out, leader-only ack).
	HeaderQuorum   = "X-Itag-Quorum"
	QuorumOK       = "ok"
	QuorumDegraded = "degraded"
	// HeaderRingVersion advertises a node's ring version on a replicate
	// exchange's opening request and its answer (frames and acks carry it
	// after that); whoever holds the older ring fetches the newer one (how a
	// deposed leader learns of its demotion after a partition heals), and a
	// follower refuses shipments from an older ring.
	HeaderRingVersion = "X-Itag-Ring-Version"
	// HeaderFrom names the shipping node's address on a replicate exchange's
	// opening request; a follower takes shipments only from the slot's owner.
	HeaderFrom = "X-Itag-From"
)

// mapClusterErr maps store/core taxonomy errors on the cluster control
// endpoints the same way the API server does.
func mapClusterErr(err error) *api.Error {
	if te := errs.Find(err); te != nil {
		return api.FromTaxonomy(te, err)
	}
	return api.Wrap(http.StatusInternalServerError, api.CodeInternal, err)
}

// handleRingGet serves the current routing table.
func (n *Node) handleRingGet(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, n.Ring())
}

// handleRingPost installs a pushed ring if it is strictly newer than the
// current one; stale pushes are acknowledged but ignored, so a slow
// propagation can never roll back a promotion.
func (n *Node) handleRingPost(w http.ResponseWriter, r *http.Request) {
	var ring Ring
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&ring); err != nil {
		n.kit.WriteError(w, r, api.Wrap(http.StatusBadRequest, api.CodeInvalidRequest, err))
		return
	}
	if err := ring.Validate(); err != nil {
		n.kit.WriteError(w, r, api.Wrap(http.StatusBadRequest, api.CodeInvalidArgument, err))
		return
	}
	installed := n.installRing(&ring)
	api.WriteJSON(w, http.StatusOK, map[string]any{"installed": installed, "version": n.Ring().Version})
}

// installRing swaps in a newer ring and reconciles the follower set. It
// reports whether the ring was installed. A pushed ring with the current
// version but different content means two nodes minted the same version
// concurrently (e.g. each promoted a different slot); such a split is
// counted, logged, and resolved by a deterministic tiebreak — every node
// keeps the ring with the lexicographically greater content key, so the
// cluster converges on one ring instead of each promoter holding its own
// v(N+1) forever. The losing promotion's address change is discarded and
// must be re-issued (it mints v(N+2), which then wins everywhere);
// itag_cluster_ring_conflicts_total makes the situation visible.
func (n *Node) installRing(ring *Ring) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || ring.Version < n.ring.Version {
		return false
	}
	if ring.Version == n.ring.Version {
		theirs, ours := ring.ContentKey(), n.ring.ContentKey()
		if theirs == ours {
			return false // same ring, nothing to do
		}
		n.ringConflicts.Add(1)
		n.logger.Printf("cluster %s: ring v%d conflict: installed %q vs pushed %q (greater content wins)",
			n.slot, ring.Version, ours, theirs)
		if theirs <= ours {
			return false
		}
	}
	n.ring = ring
	n.logger.Printf("cluster %s: installed ring v%d", n.slot, ring.Version)
	n.demoteDeposedLocked()
	n.syncSendersLocked()
	n.syncFollowersLocked()
	return true
}

// demoteDeposedLocked steps this node down from every led slot the new
// ring assigns elsewhere — the flip side of promotion, reached when an
// isolated leader learns (via ring push or a refused shipment) that
// a follower was promoted over it. The deposed backend's WAL, which may
// hold a tail of writes no follower ever confirmed, is parked (parkLocked),
// and the slot is then re-followed from scratch against the new leader.
// Caller holds n.mu.
func (n *Node) demoteDeposedLocked() {
	for slot, b := range n.leaders {
		if n.ring.Addr(slot) == n.addr {
			continue
		}
		delete(n.leaders, slot)
		n.demotions.Add(1)
		n.logger.Printf("cluster %s: demoted from slot %s by ring v%d (new leader %s); unreplicated tail parked",
			n.slot, slot, n.ring.Version, n.ring.Addr(slot))
		for _, s := range b.senders {
			s.cancel()
		}
		n.parkLocked(slot, b.db, b.senders)
	}
}

// parkLocked retires a store whose log this node may no longer extend or
// serve — a deposed leader's, or a replica whose slot changed owner — off
// n.mu: wait out the streams reading it, close it, and park its WAL under a
// .demoted-v<N> rename. Its tail may hold records the slot's new owner never
// had; they must not resurrect through a later re-follow or re-promotion, and
// parking (rather than deleting) keeps them auditable. While the teardown
// runs the slot is marked in n.demoting so nothing reopens the layout; then
// syncFollowersLocked re-follows it from scratch. Caller holds n.mu.
func (n *Node) parkLocked(slot string, db *store.DB, streams []*sender) {
	n.demoting[slot] = true
	version := n.ring.Version
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for _, s := range streams {
			<-s.done
		}
		_ = db.Close()
		if err := parkWAL(db.Path(), version); err != nil {
			n.logger.Printf("cluster %s: park the WAL of %s: %v", n.slot, slot, err)
		}
		n.mu.Lock()
		delete(n.demoting, slot)
		if !n.closed {
			n.syncFollowersLocked() // now safe to re-follow the slot
		}
		n.mu.Unlock()
	}()
}

// parkWAL renames every file of a WAL layout (snapshot, segments) from
// <path>* to <path>.demoted-v<N>*, moving it out of the globs Open and
// listSegments use while keeping the bytes for inspection.
func parkWAL(path string, ringVersion uint64) error {
	matches, err := filepath.Glob(path + "*")
	if err != nil {
		return err
	}
	var firstErr error
	for _, m := range matches {
		if strings.Contains(m, ".demoted-v") {
			continue
		}
		dst := path + fmt.Sprintf(".demoted-v%d", ringVersion) + strings.TrimPrefix(m, path)
		if err := os.Rename(m, dst); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// slotStatus is one slot's view in the status report.
type slotStatus struct {
	Slot       string `json:"slot"`
	Role       string `json:"role"` // "leader" | "follower"
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq,omitempty"`
	Lag        uint64 `json:"lag,omitempty"`
	// Followers holds a led slot's streams in ring.Followers order (the
	// first is the one quorum acks wait on).
	Followers []followerStatus `json:"followers,omitempty"`
}

// followerStatus is one stream's watermark: the highest sequence that
// follower has answered as fsynced on its disk.
type followerStatus struct {
	Addr     string `json:"addr"`
	AckedSeq uint64 `json:"acked_seq"`
}

type statusResp struct {
	Slot              string       `json:"slot"`
	Addr              string       `json:"addr"`
	RingVersion       uint64       `json:"ring_version"`
	Health            string       `json:"health"`
	Slots             []slotStatus `json:"slots"`
	NotOwner          uint64       `json:"not_owner_total"`
	FollowerReads     uint64       `json:"follower_reads_total"`
	RingConflicts     uint64       `json:"ring_conflicts_total,omitempty"`
	QuorumDegraded    uint64       `json:"quorum_degraded_total,omitempty"`
	Demotions         uint64       `json:"demotions_total,omitempty"`
	FollowerFallbacks uint64       `json:"follower_read_fallbacks_total,omitempty"`
}

// handleStatus reports the node's replication posture; tests and the
// quickstart poll it to watch watermarks converge.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, n.Status())
}

// Status snapshots the node's role and watermark for every slot it hosts.
func (n *Node) Status() statusResp {
	health := n.Health() // before n.mu: Health takes its own RLock
	n.mu.RLock()
	defer n.mu.RUnlock()
	resp := statusResp{
		Slot:              n.slot,
		Addr:              n.addr,
		RingVersion:       n.ring.Version,
		Health:            health,
		NotOwner:          n.notOwner.Load(),
		FollowerReads:     n.followerReads.Load(),
		RingConflicts:     n.ringConflicts.Load(),
		QuorumDegraded:    n.quorumDegraded.Load(),
		Demotions:         n.demotions.Load(),
		FollowerFallbacks: n.followerFallbacks.Load(),
	}
	for slot, b := range n.leaders {
		st := slotStatus{Slot: slot, Role: "leader", AppliedSeq: b.db.AppliedSeq()}
		for _, s := range b.senders {
			st.Followers = append(st.Followers, followerStatus{Addr: s.addr, AckedSeq: s.acked.Load()})
		}
		resp.Slots = append(resp.Slots, st)
	}
	for slot, rep := range n.replicas {
		resp.Slots = append(resp.Slots, slotStatus{
			Slot: slot, Role: "follower",
			AppliedSeq: rep.db.AppliedSeq(),
			LeaderSeq:  rep.leaderSeq.Load(),
			Lag:        rep.lag(),
		})
	}
	sort.Slice(resp.Slots, func(i, j int) bool { return resp.Slots[i].Slot < resp.Slots[j].Slot })
	return resp
}

type promoteReq struct {
	Slot string `json:"slot"`
}

// handlePromote promotes this node's replica of req.Slot to leader.
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req promoteReq
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		n.kit.WriteError(w, r, api.Wrap(http.StatusBadRequest, api.CodeInvalidRequest, err))
		return
	}
	if err := n.Promote(r.Context(), req.Slot); err != nil {
		n.kit.WriteError(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"slot": req.Slot, "ring_version": n.Ring().Version})
}

// Promote makes this node the leader of a slot it follows. The replica's
// stack — its store, already durable up to its watermark, with the Catalog,
// service and server that have served follower reads over it — moves from
// the follower table to the led one as it is, nothing is closed or reopened,
// and its WAL stays at replica-<slot>.wal (see ledPath). A replica whose
// store has failed is not promoted: a restart must recover its durable
// prefix first. Interrupted runs resume, and a version-bumped ring pointing
// the slot at this node is installed locally and pushed to the other members.
// Placement never changes (vnode identity is the slot name), so no keys move.
func (n *Node) Promote(ctx context.Context, slot string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errs.New(errs.ComponentStore, errs.CategoryValidation, "node is closed")
	}
	if _, led := n.leaders[slot]; led {
		n.mu.Unlock()
		return nil // idempotent
	}
	rep := n.replicas[slot]
	if rep == nil {
		n.mu.Unlock()
		return errs.New(errs.ComponentStore, errs.CategoryValidation,
			"slot %q is not followed by this node", slot)
	}
	rep.applying.Lock()
	err := rep.db.Err()
	rep.promoted = err == nil
	rep.applying.Unlock()
	if err != nil {
		n.mu.Unlock()
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryConflict,
			"slot %q: the replica store has failed; restart the node to recover it before promoting", slot)
	}
	delete(n.replicas, slot)
	b := n.lead(slot, rep.stack)
	ring := n.ring.Clone()
	ring.Version++
	for i := range ring.Members {
		if ring.Members[i].Slot == slot {
			ring.Members[i].Addr = n.addr
		}
	}
	n.ring = ring
	n.syncSendersLocked()
	n.syncFollowersLocked()
	n.mu.Unlock()

	if resumed, err := b.svc.ResumeRuns(ctx); err != nil {
		n.logger.Printf("cluster %s: promote %s: resume runs: %v", n.slot, slot, err)
	} else {
		n.logger.Printf("cluster %s: promoted slot %s at seq %d (%d run(s) resumed), ring v%d",
			n.slot, slot, b.db.AppliedSeq(), resumed, ring.Version)
	}
	n.pushRing(ctx, ring)
	return nil
}

// pushRing best-effort-propagates a new ring to every other member; nodes
// that are down catch up from peers (ring pushes, or the ring-version
// headers on shipments and their replies) once reachable again. Each member
// gets a couple of attempts on the capped jittered backoff schedule, through
// its circuit breaker so a partitioned member fails fast.
func (n *Node) pushRing(ctx context.Context, r *Ring) {
	body, err := json.Marshal(r)
	if err != nil {
		return
	}
	addrs := make(map[string]bool)
	for _, m := range r.Members {
		if m.Addr != n.addr {
			addrs[m.Addr] = true
		}
	}
	for addr := range addrs {
		var lastErr error
		for attempt := 0; attempt < 2; attempt++ {
			if attempt > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(ring.Jitter(ring.Backoff(100*time.Millisecond, time.Second, attempt-1))):
				}
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				addr+"/api/v1/cluster/ring", strings.NewReader(string(body)))
			if err != nil {
				lastErr = err
				break
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := n.peerDo(req)
			if err != nil {
				lastErr = err
				continue
			}
			// Read the reply to EOF: closed unread, it would cost the pooled
			// connection to the peer.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			lastErr = nil
			break
		}
		if lastErr != nil {
			n.logger.Printf("cluster %s: push ring v%d to %s: %v", n.slot, r.Version, addr, lastErr)
		}
	}
}

// syncFollowersLocked reconciles the open replicas with the current
// ring: this node follows every slot whose Followers set (successor slots
// in hash order) contains any slot it leads and that it does not lead
// itself. A replica holds one owner's log and no other's: when a followed
// slot changes owner, the replica's tail may hold records of the old owner
// that the new one — promoted from a follower that was behind this one —
// never had and will mint again under the same sequence numbers, so the
// replica is parked and the slot re-followed from scratch. Callers hold n.mu.
func (n *Node) syncFollowersLocked() {
	desired := make(map[string]bool)
	for _, m := range n.ring.Members {
		if _, led := n.leaders[m.Slot]; led {
			continue
		}
		if n.demoting[m.Slot] {
			continue // deposed WAL still tearing down; re-follow after
		}
		for _, f := range n.ring.Followers(m.Slot, n.opts.Replicas) {
			if _, led := n.leaders[f]; led {
				desired[m.Slot] = true
			}
		}
	}
	for slot, rep := range n.replicas {
		switch {
		case !desired[slot]:
			delete(n.replicas, slot)
			// Off n.mu (the close flushes), tracked by n.wg so Close()'s wait
			// covers it: "Close closes every store" must hold even for
			// replicas a ring change retired moments earlier.
			n.wg.Add(1)
			go func(db *store.DB) {
				defer n.wg.Done()
				_ = db.Close()
			}(rep.db)
		case rep.owner != n.ring.Addr(slot):
			delete(n.replicas, slot)
			n.logger.Printf("cluster %s: slot %s moved from %s to %s at ring v%d; replica parked, following from scratch",
				n.slot, slot, rep.owner, n.ring.Addr(slot), n.ring.Version)
			n.parkLocked(slot, rep.db, nil)
		}
	}
	for slot := range desired {
		// (demoting again: the loop above may just have parked this slot.)
		if _, ok := n.replicas[slot]; ok || n.demoting[slot] {
			continue
		}
		st, err := n.openStack(n.replicaPath(slot))
		if err != nil {
			n.logger.Printf("cluster %s: follow %s: %v", n.slot, slot, err)
			continue
		}
		n.replicas[slot] = &replica{stack: st, owner: n.ring.Addr(slot)}
	}
}

// Close stops the streams and closes every store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	leaders := make([]*backend, 0, len(n.leaders))
	for _, b := range n.leaders {
		leaders = append(leaders, b)
	}
	replicas := make([]*replica, 0, len(n.replicas))
	for _, rep := range n.replicas {
		replicas = append(replicas, rep)
	}
	n.replicas = make(map[string]*replica)
	n.mu.Unlock()

	for _, b := range leaders {
		for _, s := range b.senders {
			s.cancel()
		}
	}
	n.wg.Wait()
	var firstErr error
	for _, rep := range replicas {
		if err := rep.db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, b := range leaders {
		if err := b.db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
