package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itag/client"
	"itag/internal/store"
)

// The traced pass records a span at every layer boundary the harness can
// reach from outside the program: the SDK call, the HTTP round trip, the
// server (or cluster node) handler, and every store operation. Spans of one
// round share its trace id. They are kept in memory and written out when
// the pass ends; end-to-end metrics never come from this pass.

const spanHeader = "X-Bench-Span" // "<trace>/<span id>", client → server

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Trace  int64  `json:"trace"`  // round index, -1 outside any round
	Name   string `json:"name"`
	Node   int    `json:"node"` // server-side spans: which node
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Write marks handler spans of mutating requests (quorum waits apply).
	Write bool `json:"write,omitempty"`
	// Keys is the number of keys a store scan visited.
	Keys int `json:"keys,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type spanRef struct{ trace, id int64 }

type ctxKey struct{}

type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// byGoroutine maps a handler goroutine to its open handler span, so
	// that store calls — which carry no context — find their parent.
	byGoroutine sync.Map // int64 → spanRef
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) open(name string, parent spanRef, node int) span {
	return span{ID: r.nextID.Add(1), Parent: parent.id, Trace: parent.trace, Name: name, Node: node, Start: r.now()}
}

func (r *recorder) close(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func refOf(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(ctxKey{}).(spanRef); ok {
		return ref
	}
	return spanRef{trace: -1}
}

type roundKey struct{}

// beginRound opens the round's root span and returns a context under it.
func (r *recorder) beginRound(ctx context.Context, idx int) context.Context {
	s := r.open("round", spanRef{trace: int64(idx)}, 0)
	ctx = context.WithValue(ctx, roundKey{}, s)
	return context.WithValue(ctx, ctxKey{}, spanRef{trace: s.Trace, id: s.ID})
}

func (r *recorder) endRound(ctx context.Context) {
	if s, ok := ctx.Value(roundKey{}).(span); ok {
		r.close(s)
	}
}

// goid reads the current goroutine's id from its stack header. It costs
// about a microsecond, which the traced pass reports as part of its
// overhead; nothing on the untraced path calls it.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	f := strings.Fields(string(buf[:n])) // "goroutine 123 [running]:"
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseInt(f[1], 10, 64)
	return id
}

// --- decorators -----------------------------------------------------------------

// tracedSDK wraps every SDK call in a client.call span.
type tracedSDK struct {
	inner sdk
	rec   *recorder
}

func (t tracedSDK) in(ctx context.Context) (context.Context, span) {
	s := t.rec.open("client.call", refOf(ctx), 0)
	return context.WithValue(ctx, ctxKey{}, spanRef{trace: s.Trace, id: s.ID}), s
}

func (t tracedSDK) RequestTask(ctx context.Context, p, tg string) (client.Task, error) {
	ctx, s := t.in(ctx)
	defer t.rec.close(s)
	return t.inner.RequestTask(ctx, p, tg)
}
func (t tracedSDK) SubmitTask(ctx context.Context, p, id string, tags []string) error {
	ctx, s := t.in(ctx)
	defer t.rec.close(s)
	return t.inner.SubmitTask(ctx, p, id, tags)
}
func (t tracedSDK) GetProject(ctx context.Context, id string) (client.ProjectInfo, error) {
	ctx, s := t.in(ctx)
	defer t.rec.close(s)
	return t.inner.GetProject(ctx, id)
}
func (t tracedSDK) Export(ctx context.Context, id, cur string, n int) (client.ExportPage, error) {
	ctx, s := t.in(ctx)
	defer t.rec.close(s)
	return t.inner.Export(ctx, id, cur, n)
}
func (t tracedSDK) GetResource(ctx context.Context, p, r string) (client.ResourceStatus, error) {
	ctx, s := t.in(ctx)
	defer t.rec.close(s)
	return t.inner.GetResource(ctx, p, r)
}
func (t tracedSDK) BatchTasks(ctx context.Context, p string, items []client.BatchTaskItem) (client.BatchTasksResp, error) {
	ctx, s := t.in(ctx)
	defer t.rec.close(s)
	return t.inner.BatchTasks(ctx, p, items)
}

// tracedRT records one span per HTTP exchange (request sent → response
// headers read) and tells the server which span it is serving.
type tracedRT struct {
	inner http.RoundTripper
	rec   *recorder
	name  string
	node  int
}

func (t tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t.rec.open(t.name, refOf(req.Context()), t.node)
	if t.name == "cluster.peer" && strings.HasSuffix(req.URL.Path, "/cluster/replicate") {
		s.Name = "cluster.push"
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", s.Trace, s.ID))
	resp, err := t.inner.RoundTrip(req)
	t.rec.close(s)
	return resp, err
}

func (t tracedRT) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// tracedHandler records one span per request served by a node.
func tracedHandler(rec *recorder, name string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := spanRef{trace: -1}
		if tr, id, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			parent.trace, _ = strconv.ParseInt(tr, 10, 64)
			parent.id, _ = strconv.ParseInt(id, 10, 64)
		}
		s := rec.open(name, parent, node)
		switch {
		case strings.HasSuffix(r.URL.Path, "/cluster/replicate"):
			s.Name = "cluster.replicate"
		case strings.Contains(r.URL.Path, "/cluster/"):
			s.Name = "cluster.internal"
		default:
			s.Write = r.Method != http.MethodGet
		}
		g := goid()
		rec.byGoroutine.Store(g, spanRef{trace: s.Trace, id: s.ID})
		h.ServeHTTP(w, r)
		rec.byGoroutine.Delete(g)
		rec.close(s)
	})
}

// tracedStore times every store operation. Writes block until the WAL
// commit is durable, so a write span is the whole commit → write → fsync
// wait as the request sees it.
type tracedStore struct {
	inner store.Store
	rec   *recorder
}

func (t *tracedStore) in(name string) span {
	parent := spanRef{trace: -1}
	if ref, ok := t.rec.byGoroutine.Load(goid()); ok {
		parent = ref.(spanRef)
	}
	return t.rec.open(name, parent, 0)
}

func (t *tracedStore) Put(table, key string, value any) error {
	s := t.in("store.put")
	defer t.rec.close(s)
	return t.inner.Put(table, key, value)
}
func (t *tracedStore) Get(table, key string, out any) error {
	s := t.in("store.get")
	defer t.rec.close(s)
	return t.inner.Get(table, key, out)
}
func (t *tracedStore) Has(table, key string) bool {
	s := t.in("store.has")
	defer t.rec.close(s)
	return t.inner.Has(table, key)
}
func (t *tracedStore) Delete(table, key string) error {
	s := t.in("store.delete")
	defer t.rec.close(s)
	return t.inner.Delete(table, key)
}
func (t *tracedStore) Apply(muts []store.Mutation) error {
	s := t.in("store.apply")
	defer t.rec.close(s)
	return t.inner.Apply(muts)
}
func (t *tracedStore) Scan(table string, fn func(string, []byte) bool) {
	s := t.in("store.scan")
	t.inner.Scan(table, func(k string, raw []byte) bool { s.Keys++; return fn(k, raw) })
	t.rec.close(s)
}
func (t *tracedStore) ScanPrefix(table, prefix string, fn func(string, []byte) bool) {
	s := t.in("store.scan")
	t.inner.ScanPrefix(table, prefix, func(k string, raw []byte) bool { s.Keys++; return fn(k, raw) })
	t.rec.close(s)
}
func (t *tracedStore) ScanRange(table, start, end string, limit int, fn func(string, []byte) bool) int {
	s := t.in("store.scan")
	n := t.inner.ScanRange(table, start, end, limit, func(k string, raw []byte) bool { s.Keys++; return fn(k, raw) })
	t.rec.close(s)
	return n
}
func (t *tracedStore) Count(table string) int {
	s := t.in("store.count")
	defer t.rec.close(s)
	return t.inner.Count(table)
}
func (t *tracedStore) CountPrefix(table, prefix string) int {
	s := t.in("store.count")
	defer t.rec.close(s)
	return t.inner.CountPrefix(table, prefix)
}
func (t *tracedStore) Tables() []string { return t.inner.Tables() }
func (t *tracedStore) Sync() error      { return t.inner.Sync() }
func (t *tracedStore) Close() error     { return t.inner.Close() }

// Stats passes the WAL counters through, as core.Service looks for them.
func (t *tracedStore) Stats() store.Stats {
	if sp, ok := t.inner.(interface{ Stats() store.Stats }); ok {
		return sp.Stats()
	}
	return store.Stats{}
}

// --- analysis -------------------------------------------------------------------

type interval struct{ lo, hi int64 }

// union merges intervals into disjoint ones, sorted.
func union(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	s := append([]interval(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered is how much of [lo, hi) the disjoint sorted intervals cover.
func covered(disjoint []interval, lo, hi int64) int64 {
	var n int64
	for _, iv := range disjoint {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			n += b - a
		}
	}
	return n
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each other
// (or stick out of the parent) are not counted twice (or at all).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(union(children[s.ID]), s.Start, s.End)
	}
	return self
}

// attachQuorumWaits gives every mutating handler span on a cluster node a
// child for the time it overlapped a replication push leaving that node:
// the quorum wait as it looks from outside the program. (Pushes run on the
// node's pusher goroutine, so no causal link is visible from here; spans
// inside the program are a later change.)
func attachQuorumWaits(spans []span, nextID *atomic.Int64) []span {
	pushes := map[int][]interval{}
	for _, s := range spans {
		if s.Name == "cluster.push" {
			pushes[s.Node] = append(pushes[s.Node], interval{s.Start, s.End})
		}
	}
	for n := range pushes {
		pushes[n] = union(pushes[n])
	}
	var waits []span
	for _, s := range spans {
		if s.Name != "cluster.handle" || !s.Write {
			continue
		}
		for _, iv := range pushes[s.Node] {
			a, b := max(iv.lo, s.Start), min(iv.hi, s.End)
			if b > a {
				waits = append(waits, span{ID: nextID.Add(1), Parent: s.ID, Trace: s.Trace,
					Name: "cluster.quorum_wait", Node: s.Node, Start: a, End: b})
			}
		}
	}
	return append(spans, waits...)
}

// layerOf maps a span name to the layer its self time is charged to.
// Inside a cluster node the harness cannot see below the node's handler,
// so that handler's self time (routing + the embedded server, core and
// store) is charged to server and only replication waits to cluster.
func layerOf(name string) string {
	switch {
	case name == "round":
		return "harness"
	case name == "client.call":
		return "client"
	case name == "client.roundtrip":
		return "net"
	case name == "server.handle", name == "cluster.handle":
		return "server"
	case strings.HasPrefix(name, "store."):
		return "store"
	case name == "cluster.quorum_wait":
		return "cluster"
	}
	return "" // pushes, replicate handlers, pulls: off the round's own tree
}

func isStoreWrite(name string) bool {
	return name == "store.put" || name == "store.delete" || name == "store.apply"
}

// traceSummary is what the traced pass contributes to the per-layer metrics.
type traceSummary struct {
	rounds         int
	roundNS        int64            // Σ round span durations
	selfNS         map[string]int64 // layer → Σ self time inside rounds
	storeWriteNS   int64
	storeReadNS    int64
	storeWrites    int
	storeReads     int
	keysScanned    int
	quorumWaitNS   int64
	writes         int // mutating cluster.handle spans
	pushNS, pushes int64
	replNS, repls  int64
}

func summarize(spans []span, okRounds map[int64]bool) traceSummary {
	sum := traceSummary{selfNS: map[string]int64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "cluster.push":
			sum.pushNS += s.dur()
			sum.pushes++
		case "cluster.replicate":
			sum.replNS += s.dur()
			sum.repls++
		}
		if !okRounds[s.Trace] {
			continue
		}
		layer := layerOf(s.Name)
		switch layer {
		case "":
			continue
		case "harness":
			sum.rounds++
			sum.roundNS += s.dur()
		case "store":
			if isStoreWrite(s.Name) {
				sum.storeWriteNS += self[s.ID]
				sum.storeWrites++
			} else {
				sum.storeReadNS += self[s.ID]
				sum.storeReads++
			}
			sum.keysScanned += s.Keys
		case "cluster":
			sum.quorumWaitNS += s.dur()
		}
		if s.Name == "cluster.handle" && s.Write {
			sum.writes++
		}
		sum.selfNS[layer] += self[s.ID]
	}
	return sum
}

// writeTrace writes the spans (capped, whole rounds first) to
// benchmark/out/trace-<workload>.json.
func writeTrace(path, workload string, seed int64, spans []span) error {
	const maxSpans = 40000
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		Workload  string `json:"workload"`
		Seed      int64  `json:"seed"`
		Total     int    `json:"spans_total"`
		Truncated bool   `json:"truncated"`
		Spans     []span `json:"spans"`
	}{Workload: workload, Seed: seed, Total: len(spans), Truncated: len(spans) > maxSpans}
	doc.Spans = spans[:min(len(spans), maxSpans)]
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
