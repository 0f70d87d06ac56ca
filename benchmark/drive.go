package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"itag/client"
)

// tap sits under one closed-loop client's SDK handle. It counts the HTTP
// exchanges the SDK makes (attempts per call) and keeps the last
// X-Itag-Quorum stamp so a submit can be classified. A
// client is one goroutine, so the fields need no lock.
type tap struct {
	inner      http.RoundTripper
	roundTrips int64
	lastQuorum string
}

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	t.roundTrips++
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		t.lastQuorum = resp.Header.Get("X-Itag-Quorum")
	}
	return resp, err
}

// loopClient is one closed-loop client: a tagger or a provider who waits
// for each reply before sending the next request.
type loopClient struct {
	api  sdk
	tap  *tap
	ref  *refClient
	sdkN int64 // SDK calls made
}

// driver runs rounds of a workload against a stack and keeps the run's
// correctness ledger.
type driver struct {
	st      *stack
	ops     *opStream
	clients []*loopClient
	trace   *recorder // nil outside the traced pass

	quorumOK       atomic.Int64
	quorumDegraded atomic.Int64

	mu         sync.Mutex
	violations []string // view and reply checks that failed
	firstErr   error    // first operation error, for the report
}

func newDriver(st *stack, ops *opStream, refAddr string, nclients int, trace *recorder) *driver {
	d := &driver{st: st, ops: ops, trace: trace}
	for i := 0; i < nclients; i++ {
		tp := &tap{inner: st.transport()}
		lc := &loopClient{tap: tp, api: st.sdkFor(tp), ref: newRefClient(refAddr)}
		if trace != nil {
			lc.api = tracedSDK{inner: lc.api, rec: trace}
		}
		d.clients = append(d.clients, lc)
	}
	return d
}

func (d *driver) closeClients() {
	for _, lc := range d.clients {
		if t, ok := lc.tap.inner.(interface{ CloseIdleConnections() }); ok {
			t.CloseIdleConnections()
		}
		lc.ref.http.CloseIdleConnections()
	}
}

func (d *driver) violate(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.violations) < 20 {
		d.violations = append(d.violations, fmt.Sprintf(format, args...))
	}
}

func (d *driver) noteErr(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// sample is one round's outcome. Failed rounds carry no latency.
type sample struct {
	ok     bool
	total  time.Duration
	posts  time.Duration // time inside the round's posts
	views  time.Duration // time inside the round's views
	nPosts int
	nViews int
}

// doRound executes one round on one client and times it.
func (d *driver) doRound(ctx context.Context, lc *loopClient, idx int) sample {
	rd := &d.ops.rounds[idx]
	p := d.st.projects[rd.Project]
	if d.trace != nil {
		ctx = d.trace.beginRound(ctx, idx)
	}
	var s sample
	begin := time.Now()
	err := func() error {
		for _, v := range rd.Views {
			t0 := time.Now()
			if err := d.view(ctx, lc, p, v); err != nil {
				return err
			}
			s.views += time.Since(t0)
			s.nViews++
		}
		if d.st.w.batchItems > 0 {
			t0 := time.Now()
			if err := d.batch(ctx, lc, p, rd.Posts); err != nil {
				return err
			}
			s.posts += time.Since(t0)
			s.nPosts++
			return nil
		}
		for _, po := range rd.Posts {
			t0 := time.Now()
			if err := d.post(ctx, lc, p, po); err != nil {
				return err
			}
			s.posts += time.Since(t0)
			s.nPosts++
		}
		return nil
	}()
	s.total = time.Since(begin)
	if d.trace != nil {
		d.trace.endRound(ctx)
	}
	if err != nil {
		d.noteErr(fmt.Errorf("round %d: %w", idx, err))
		return sample{}
	}
	s.ok = true
	return s
}

// post is one tagger's RequestTask → SubmitTask.
func (d *driver) post(ctx context.Context, lc *loopClient, p *project, po postOp) error {
	lc.sdkN += 2
	task, err := lc.api.RequestTask(ctx, p.id, p.taggers[po.Tagger])
	if err != nil {
		return fmt.Errorf("request task: %w", err)
	}
	ri, ok := p.index[task.ResourceID]
	if !ok {
		return fmt.Errorf("task names unknown resource %q", task.ResourceID)
	}
	p.started[ri].Add(1)
	if err := lc.api.SubmitTask(ctx, p.id, task.ID, d.ops.tags(po)); err != nil {
		return fmt.Errorf("submit task: %w", err)
	}
	p.acked[ri].Add(1)
	if d.st.w.quorum {
		switch lc.tap.lastQuorum {
		case "ok":
			d.quorumOK.Add(1)
		case "degraded":
			d.quorumDegraded.Add(1)
		default:
			return fmt.Errorf("submit acked without a quorum stamp (%q)", lc.tap.lastQuorum)
		}
	}
	return nil
}

// batch is one BatchTasks call; every item must have been requested and
// submitted.
func (d *driver) batch(ctx context.Context, lc *loopClient, p *project, posts []postOp) error {
	items := make([]client.BatchTaskItem, len(posts))
	for i, po := range posts {
		items[i] = client.BatchTaskItem{TaggerID: p.taggers[po.Tagger], Tags: d.ops.tags(po)}
	}
	lc.sdkN++
	resp, err := lc.api.BatchTasks(ctx, p.id, items)
	// Whatever the reply says was submitted is on the server: count it before
	// judging the call, so the final export check stays exact.
	for _, res := range resp.Results {
		if ri, ok := p.index[res.ResourceID]; ok && res.Submitted {
			p.started[ri].Add(1)
			p.acked[ri].Add(1)
		}
	}
	if err != nil {
		return fmt.Errorf("batch tasks: %w", err)
	}
	if resp.OK != len(items) || resp.Failed != 0 || len(resp.Results) != len(items) {
		return fmt.Errorf("batch tasks: ok=%d failed=%d results=%d, want %d/0/%d",
			resp.OK, resp.Failed, len(resp.Results), len(items), len(items))
	}
	return nil
}

// view is one dashboard refresh. Every post count it shows is checked
// against the ledger: never below what was acknowledged before the request
// was sent, never above what had been sent when the reply arrived.
func (d *driver) view(ctx context.Context, lc *loopClient, p *project, v viewOp) error {
	lc.sdkN += 2 + viewDetails
	if _, err := lc.api.GetProject(ctx, p.id); err != nil {
		return fmt.Errorf("get project: %w", err)
	}
	first := int(v.Page) * exportLimit
	last := min(first+exportLimit, len(p.resources))
	floor := make([]int32, last-first)
	for i := range floor {
		floor[i] = p.acked[first+i].Load()
	}
	page, err := lc.api.Export(ctx, p.id, p.cursors[v.Page], exportLimit)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if len(page.Items) != last-first {
		d.violate("export page %d: %d rows, want %d", v.Page, len(page.Items), last-first)
	}
	for i, row := range page.Items {
		if i >= len(floor) || row.ID != p.resources[first+i] {
			d.violate("export page %d row %d: resource %q out of place", v.Page, i, row.ID)
			break
		}
		d.checkCount("export", p, first+i, floor[i], row.Posts)
	}
	for _, rk := range v.Resources {
		ri := int(rk)
		lo := p.acked[ri].Load()
		st, err := lc.api.GetResource(ctx, p.id, p.resources[ri])
		if err != nil {
			return fmt.Errorf("get resource: %w", err)
		}
		d.checkCount("resource", p, ri, lo, st.Posts)
	}
	return nil
}

func (d *driver) checkCount(what string, p *project, ri int, ackedBefore int32, shown int) {
	lo := int(p.preload[ri] + ackedBefore)
	hi := int(p.preload[ri] + p.started[ri].Load())
	if shown < lo || shown > hi {
		d.violate("%s view of %s shows %d posts, ledger allows %d..%d", what, p.resources[ri], shown, lo, hi)
	}
}

// sliceResult is what one slice measured.
type sliceResult struct {
	wall    time.Duration // first round sent → last round answered
	samples []sample
	failed  int
	refLat  []time.Duration // one per reference call
}

// runSlice runs rounds [from, to) closed-loop over all clients, then
// refCalls reference calls from the same clients. Clients take the next
// round from a shared counter, so no client idles while rounds remain.
func (d *driver) runSlice(ctx context.Context, from, to, refCalls int) (sliceResult, error) {
	var res sliceResult
	res.samples = make([]sample, to-from)
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	begin := time.Now()
	for _, lc := range d.clients {
		wg.Add(1)
		go func(lc *loopClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to || ctx.Err() != nil {
					return
				}
				res.samples[i-from] = d.doRound(ctx, lc, i)
			}
		}(lc)
	}
	wg.Wait()
	res.wall = time.Since(begin)
	for _, s := range res.samples {
		if !s.ok {
			res.failed++
		}
	}
	if refCalls > 0 {
		lat, err := d.runRef(ctx, refCalls)
		if err != nil {
			return res, err
		}
		res.refLat = lat
	}
	return res, ctx.Err()
}

// runRef makes n reference calls spread over the clients, at the same
// concurrency as the workload.
func (d *driver) runRef(ctx context.Context, n int) ([]time.Duration, error) {
	per := n / len(d.clients)
	lat := make([]time.Duration, per*len(d.clients))
	errs := make([]error, len(d.clients))
	var wg sync.WaitGroup
	for ci, lc := range d.clients {
		wg.Add(1)
		go func(ci int, lc *loopClient) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				t0 := time.Now()
				if err := lc.ref.call(ctx); err != nil {
					errs[ci] = err
					return
				}
				lat[ci*per+i] = time.Since(t0)
			}
		}(ci, lc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference call: %w", err)
		}
	}
	return lat, nil
}
