package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/store"
)

// newAdmissionServer builds a server with admission control on and the
// prom endpoint mounted, returning the Server for gate manipulation.
func newAdmissionServer(t *testing.T) (*Server, *httptest.Server, *httptest.Server) {
	t.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	s := NewWith(svc, Options{Admission: &AdmissionOptions{SLO: 100 * time.Millisecond}})
	srv := httptest.NewServer(s)
	prom := httptest.NewServer(s.PromHandler())
	t.Cleanup(func() {
		srv.Close()
		prom.Close()
		svc.Close()
	})
	return s, srv, prom
}

// holdGateFull drops the gate's limit to 1 and takes the only slot; the
// returned func gives it back.
func holdGateFull(t *testing.T, g *gate) (release func()) {
	t.Helper()
	g.mu.Lock()
	g.limit = 1
	g.mu.Unlock()
	ticket, ok := g.acquire()
	if !ok {
		t.Fatal("setup: could not take the only slot")
	}
	return func() { g.release(ticket, 0) }
}

// routeCount reads itag_http_requests_total for one route label off a
// scrape (0 when the route has no series).
func routeCount(fams []api.Family, route string) float64 {
	for _, f := range fams {
		if f.Name != "itag_http_requests_total" {
			continue
		}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if l.Name == "route" && l.Value == route {
					return s.Value
				}
			}
		}
	}
	return 0
}

// TestAdmissionShedsWithRetryAfter pins the shed contract end to end:
// with the gate full, a lease (tasks, tasks:batch) gets 429, the taxonomy
// code, a Retry-After hint in whole seconds and the request-ID-stamped
// envelope — while a submit, health and metrics are never gated, and
// releasing the slot re-admits traffic.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	s, srv, prom := newAdmissionServer(t)
	release := holdGateFull(t, s.admission)

	// Both lease routes shed the same way.
	for _, shed := range []struct{ path, body string }{
		{"/api/v1/projects/p-000001/tasks", `{"tagger_id":"t-000001"}`},
		{"/api/v1/projects/p-000001/tasks:batch", `{"items":[{"tagger_id":"t-000001"}]}`},
	} {
		resp, err := http.Post(srv.URL+shed.path, "application/json", strings.NewReader(shed.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: shed status = %d, want 429 (body %s)", shed.path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("%s: Retry-After = %q, want 1 (max(2×SLO, 1s) in whole seconds)", shed.path, ra)
		}
		var env struct {
			Error struct {
				Code      string `json:"code"`
				Message   string `json:"message"`
				RequestID string `json:"request_id"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: shed body %s: %v", shed.path, body, err)
		}
		if env.Error.Code != "resource_exhausted" || env.Error.Message == "" {
			t.Errorf("%s: shed envelope = %+v, want code resource_exhausted", shed.path, env.Error)
		}
		if env.Error.RequestID == "" || env.Error.RequestID != resp.Header.Get("X-Request-Id") {
			t.Errorf("%s: shed envelope request_id = %q, header %q", shed.path, env.Error.RequestID, resp.Header.Get("X-Request-Id"))
		}
	}

	// A submit passes the full gate and reaches its handler (404: the
	// project is unknown — anything but 429).
	resp, err := http.Post(srv.URL+"/api/v1/projects/p-000001/tasks/p-000001-task-00001/submit",
		"application/json", strings.NewReader(`{"tags":["go"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "" {
		t.Errorf("submit under a full gate = %d (Retry-After %q), want it never shed",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Health and metrics are never gated, full or not.
	for _, path := range []string{"/api/v1/healthz", "/api/v1/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s under a full gate = %d, want 200", path, resp.StatusCode)
		}
	}

	// Every shed is observable: gate families and the error matrix.
	fams := scrape(t, prom.URL)
	if got := gaugeValue(fams, "itag_admission_limit"); got != 1 {
		t.Errorf("itag_admission_limit = %v, want 1", got)
	}
	if got := gaugeValue(fams, "itag_admission_shed_total"); got != 2 {
		t.Errorf("itag_admission_shed_total = %v, want 2", got)
	}
	if got := errorCellValue(fams, "api", "rate_limited"); got != 2 {
		t.Errorf("error matrix cell (api, rate_limited) = %v, want 2", got)
	}

	// Releasing the slot re-admits: the same request now reaches the
	// handler (404 unknown project — anything but 429).
	release()
	resp, err = http.Post(srv.URL+"/api/v1/projects/p-000001/tasks", "application/json",
		strings.NewReader(`{"tagger_id":"t-000001"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Error("request shed after the slot was released")
	}
}

// TestAdmissionNeverShedsSubmit: a held task's post is work a tagger has
// done and its pay is already held, so with the gate full a new lease gets
// 429 with Retry-After while the held task's submit is accepted.
func TestAdmissionNeverShedsSubmit(t *testing.T) {
	s, srv, _ := newAdmissionServer(t)
	c := &client{t: t, srv: srv}
	prov := c.register("providers", "p")
	tagger := c.register("taggers", "t")
	proj := c.manualProject(prov, 10, "u1", "u2")
	var task store.TaskRec
	c.do("POST", "/api/v1/projects/"+proj+"/tasks", requestTaskReq{TaggerID: tagger}, http.StatusCreated, &task)

	defer holdGateFull(t, s.admission)()
	resp, err := http.Post(srv.URL+"/api/v1/projects/"+proj+"/tasks", "application/json",
		strings.NewReader(fmt.Sprintf(`{"tagger_id":%q}`, tagger)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("lease under a full gate = %d, Retry-After %q; want 429 with the hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	c.do("POST", fmt.Sprintf("/api/v1/projects/%s/tasks/%s/submit", proj, task.ID),
		submitTaskReq{Tags: []string{"go"}}, http.StatusOK, nil)
}

// TestAdmissionOffByDefault: without Options.Admission nothing is gated
// and no admission families appear on the scrape.
func TestAdmissionOffByDefault(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	s := New(svc, nil)
	prom := httptest.NewServer(s.PromHandler())
	defer prom.Close()
	if s.admission != nil {
		t.Fatal("admission gate built without opting in")
	}
	for _, f := range scrape(t, prom.URL) {
		if strings.HasPrefix(f.Name, "itag_admission_") {
			t.Errorf("family %s exposed with admission off", f.Name)
		}
	}
}

// TestAdmissionScrapeShedRace floods the gated route from many
// goroutines (all shedding against a full gate) while scrapers hammer the
// Prometheus endpoint — run under -race this proves the gate families
// never tear against the shed hot path.
func TestAdmissionScrapeShedRace(t *testing.T) {
	s, srv, prom := newAdmissionServer(t)
	defer holdGateFull(t, s.admission)()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(srv.URL+"/api/v1/projects/p-000001/tasks",
					"application/json", strings.NewReader(`{"tagger_id":"t-1"}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status = %d, want 429", resp.StatusCode)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(prom.URL)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	fams := scrape(t, prom.URL)
	if got := gaugeValue(fams, "itag_admission_shed_total"); got != 200 {
		t.Errorf("itag_admission_shed_total = %v, want 200", got)
	}
	// Shed responses must stay out of the task route's series (they would
	// drag its p99 down exactly when the gate is shedding); the error
	// matrix carries them instead.
	if n := routeCount(fams, "POST /api/v1/projects/{id}/tasks"); n > 0 {
		t.Errorf("%v shed requests leaked into the route's series", n)
	}
}

// TestAdmissionShedsBeforeTracking: the gate sits outside the route's
// Track, so with the gate full a lease answers 429 without a sample in the
// route's series, and once a slot is free the same lease is tracked.
func TestAdmissionShedsBeforeTracking(t *testing.T) {
	s, srv, prom := newAdmissionServer(t)
	lease := func() int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/v1/projects/p-000001/tasks",
			"application/json", strings.NewReader(`{"tagger_id":"t-1"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	release := holdGateFull(t, s.admission)
	if code := lease(); code != http.StatusTooManyRequests {
		t.Fatalf("lease under a full gate = %d, want 429", code)
	}
	if n := routeCount(scrape(t, prom.URL), s9Route); n != 0 {
		t.Fatalf("shed request left %v samples in the route's series", n)
	}
	release()
	if code := lease(); code == http.StatusTooManyRequests {
		t.Fatal("lease shed after the slot was released")
	}
	if n := routeCount(scrape(t, prom.URL), s9Route); n != 1 {
		t.Errorf("admitted lease left %v samples in the route's series, want 1", n)
	}
}

// admitOne takes a slot of g, failing the test if the gate sheds.
func admitOne(t *testing.T, g *gate) uint64 {
	t.Helper()
	ticket, ok := g.acquire()
	if !ok {
		t.Fatalf("shed at limit %v with %d in flight", g.limit, g.inflight)
	}
	return ticket
}

// wantLimit fails the test unless g's limit is limit.
func wantLimit(t *testing.T, g *gate, limit float64) {
	t.Helper()
	if math.Abs(g.limit-limit) > 1e-9 {
		t.Fatalf("limit = %v, want %v", g.limit, limit)
	}
}

// TestAdmissionGateStartsOpen: a new gate admits up to its ceiling of 256
// before it has timed anything, sheds the next request, and a fast
// completion at the ceiling does not raise it.
func TestAdmissionGateStartsOpen(t *testing.T) {
	g := newGate(100 * time.Millisecond)
	wantLimit(t, g, admissionMaxConcurrency)
	tickets := make([]uint64, 0, admissionMaxConcurrency)
	for i := 0; i < admissionMaxConcurrency; i++ {
		tickets = append(tickets, admitOne(t, g))
	}
	if _, ok := g.acquire(); ok {
		t.Fatalf("admitted request %d past the ceiling", admissionMaxConcurrency+1)
	}
	for _, ticket := range tickets {
		g.release(ticket, 10*time.Millisecond)
	}
	wantLimit(t, g, admissionMaxConcurrency)
	if limit, inflight, admitted, shed := g.state(); limit != admissionMaxConcurrency || inflight != 0 ||
		admitted != admissionMaxConcurrency || shed != 1 {
		t.Errorf("state = limit %d, inflight %d, admitted %d, shed %d", limit, inflight, admitted, shed)
	}
}

// TestAdmissionGateShrinksOnSlowRequest: a completion slower than SLO/2
// cuts the limit to ×0.75, once per congestion event — only a request
// admitted after the last cut may cut again.
func TestAdmissionGateShrinksOnSlowRequest(t *testing.T) {
	const slow = 80 * time.Millisecond
	g := newGate(100 * time.Millisecond)
	// Three requests in flight when congestion hits: the first slow one
	// cuts, the other two were admitted before the cut and do not.
	a, b, c := admitOne(t, g), admitOne(t, g), admitOne(t, g)
	g.release(a, slow)
	wantLimit(t, g, 192)
	g.release(b, slow)
	g.release(c, 100*time.Millisecond)
	wantLimit(t, g, 192)
	// A request admitted after the cut is fresh evidence and cuts again.
	g.release(admitOne(t, g), slow)
	wantLimit(t, g, 144)
	// A slow release that may not cut does not grow the limit either.
	d, e := admitOne(t, g), admitOne(t, g)
	g.release(d, slow)
	wantLimit(t, g, 108)
	g.release(e, slow)
	wantLimit(t, g, 108)
}

// TestAdmissionGateGrowsAdditively: any completion no slower than SLO/2
// grows the limit by 1/limit, so growth from the floor climbs back to the
// ceiling and stops there.
func TestAdmissionGateGrowsAdditively(t *testing.T) {
	const fast = 10 * time.Millisecond
	g := newGate(100 * time.Millisecond)
	g.limit = 108
	g.release(admitOne(t, g), fast)
	wantLimit(t, g, 108+1.0/108)
	g.release(admitOne(t, g), 50*time.Millisecond) // SLO/2 itself is not slow
	wantLimit(t, g, 108+1.0/108+1/(108+1.0/108))

	g.limit = 1
	for i := 0; i < 40000; i++ {
		g.release(admitOne(t, g), fast)
	}
	wantLimit(t, g, admissionMaxConcurrency)
	if limit, inflight, admitted, shed := g.state(); limit != admissionMaxConcurrency || inflight != 0 ||
		admitted != 40002 || shed != 0 {
		t.Errorf("state = limit %d, inflight %d, admitted %d, shed %d", limit, inflight, admitted, shed)
	}
}

// TestAdmissionGateClampsAndHints covers the edges: cuts bottom out at a
// limit of 1 (a gate that admits nothing could never time a request to
// recover on), a limit of 1 admits exactly one request, and Retry-After is
// max(2×SLO, 1s) in whole seconds.
func TestAdmissionGateClampsAndHints(t *testing.T) {
	g := newGate(100 * time.Millisecond)
	for i := 0; i < 40; i++ {
		g.release(admitOne(t, g), 80*time.Millisecond)
	}
	wantLimit(t, g, 1)
	held := admitOne(t, g)
	if _, ok := g.acquire(); ok {
		t.Fatal("admitted a second request at limit 1")
	}
	g.release(held, 10*time.Millisecond)
	wantLimit(t, g, 2)

	for _, tc := range []struct {
		slo  time.Duration
		want string
	}{{100 * time.Millisecond, "1"}, {500 * time.Millisecond, "1"}, {1200 * time.Millisecond, "3"}, {2 * time.Second, "4"}} {
		if got := newGate(tc.slo).retryAfter; got != tc.want {
			t.Errorf("SLO %v: Retry-After = %q, want %q", tc.slo, got, tc.want)
		}
	}
}

// hammerGate offers g 16×400 requests from goroutines behind a start
// barrier, each admitted one completing after latency, and checks the
// invariants the serving path depends on: every offered request is either
// admitted or shed, the gate's counters agree, every slot comes back and
// the limit stays within [1, 256]. It returns the peak admitted in-flight
// concurrency, the final limit and the gate's shed count.
func hammerGate(t *testing.T, g *gate, latency func(*rand.Rand) time.Duration) (peak int64, limit int, gShed uint64) {
	t.Helper()
	const goroutines, perG = 16, 400
	var offered, admitted, shed atomic.Uint64
	var holders, peakA atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for j := 0; j < perG; j++ {
				offered.Add(1)
				ticket, ok := g.acquire()
				if !ok {
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				cur := holders.Add(1)
				for p := peakA.Load(); cur > p && !peakA.CompareAndSwap(p, cur); p = peakA.Load() {
				}
				runtime.Gosched() // let the others contend for the slot
				if j%7 == 0 {
					time.Sleep(time.Microsecond)
				}
				holders.Add(-1)
				g.release(ticket, latency(rng))
			}
		}(int64(i + 1))
	}
	close(start)
	wg.Wait()

	limit, inflight, gAdmitted, gShed := g.state()
	if admitted.Load()+shed.Load() != offered.Load() || gAdmitted != admitted.Load() || gShed != shed.Load() {
		t.Errorf("offered %d: admitted %d (gate %d) + shed %d (gate %d)",
			offered.Load(), admitted.Load(), gAdmitted, shed.Load(), gShed)
	}
	if inflight != 0 {
		t.Errorf("inflight = %d after every release", inflight)
	}
	if limit < 1 || limit > admissionMaxConcurrency {
		t.Errorf("limit = %d, outside [1, %d]", limit, admissionMaxConcurrency)
	}
	return peakA.Load(), limit, gShed
}

// TestAdmissionGateProperty hammers the gate while completions move its
// limit. In the growth-only run the largest limit the gate held is its
// final one, so admitted concurrency must never pass it; the mixed run
// cuts and grows and must keep the invariants hammerGate checks.
func TestAdmissionGateProperty(t *testing.T) {
	t.Run("growth", func(t *testing.T) {
		g := newGate(100 * time.Millisecond)
		g.limit = 1
		peak, limit, shed := hammerGate(t, g, func(*rand.Rand) time.Duration { return 0 })
		if peak > int64(limit) {
			t.Errorf("peak concurrency %d exceeded the largest limit %d", peak, limit)
		}
		if shed == 0 {
			t.Error("the gate never shed: the run did not test the limit")
		}
	})
	t.Run("mixed", func(t *testing.T) {
		g := newGate(100 * time.Millisecond)
		g.limit = 24
		peak, _, _ := hammerGate(t, g, func(r *rand.Rand) time.Duration {
			return time.Duration(r.Intn(120)) * time.Millisecond
		})
		if peak > admissionMaxConcurrency {
			t.Errorf("peak concurrency %d exceeded the ceiling %d", peak, admissionMaxConcurrency)
		}
	})
}

// TestAdmissionGateCeilingRespected: when every completion is slow the
// limit only falls, so the starting limit is a fixed ceiling that admitted
// concurrency must never pass.
func TestAdmissionGateCeilingRespected(t *testing.T) {
	const ceiling = 24
	g := newGate(100 * time.Millisecond)
	g.limit = ceiling
	peak, limit, shed := hammerGate(t, g, func(*rand.Rand) time.Duration { return time.Second })
	if peak > ceiling {
		t.Errorf("peak concurrency %d exceeded the ceiling %d", peak, ceiling)
	}
	if limit > ceiling || shed == 0 {
		t.Errorf("limit %d, shed %d: a cut-only run must end at or below %d and shed", limit, shed, ceiling)
	}
}

// The S9 stage: a s9Workers-wide bottleneck with a fixed service time (its
// knee is s9Workers/s9Service req/s) under the task-request route label.
const (
	s9Workers = 4
	s9Service = 5 * time.Millisecond
	s9SLO     = 100 * time.Millisecond
	s9Route   = "POST /api/v1/projects/{id}/tasks"
	s9Seed    = 2014
)

// newS9Stage mounts the stage behind a server's route histogram and, with
// admission on, behind the server's own gate — the order routeLimited
// mounts a lease route in.
func newS9Stage(t *testing.T, admission bool) http.Handler {
	t.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	t.Cleanup(svc.Close)
	opts := Options{}
	if admission {
		opts.Admission = &AdmissionOptions{SLO: s9SLO}
	}
	s := NewWith(svc, opts)
	sem := make(chan struct{}, s9Workers)
	stage := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sem <- struct{}{}
		time.Sleep(s9Service)
		<-sem
		_, _ = w.Write([]byte(`{"ok":true}`))
	})
	return s.limited(s.metrics.Track(s9Route, stage))
}

// serveOnce drives one in-process request through h and reports the
// response status. No sockets: overload phases hold thousands of requests
// in flight and must not exhaust file descriptors.
func serveOnce(h http.Handler) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/projects/p1/tasks", nil))
	return rec.Code
}

// arrivalOffsets realises a Poisson arrival process: offsets from stream
// start at the given mean rate (events/sec), exponentially distributed
// inter-arrivals, deterministic under seed, covering [0, horizon).
func arrivalOffsets(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var offs []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= horizon.Seconds() {
			return offs
		}
		offs = append(offs, time.Duration(t*float64(time.Second)))
	}
}

// s9Sample is one arrival's outcome.
type s9Sample struct {
	status int
	lat    time.Duration
}

// drive replays an arrival schedule open-loop: the injector sleeps to
// each offset and fires the request on its own goroutine whether or not
// earlier ones have finished, then waits for every response.
func drive(h http.Handler, offsets []time.Duration) []s9Sample {
	samples := make([]s9Sample, len(offsets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		if d := off - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			status := serveOnce(h)
			samples[i] = s9Sample{status: status, lat: time.Since(t0)}
		}(i)
	}
	wg.Wait()
	return samples
}

// closedLoop measures knee capacity: conc workers in lock-step request
// loops for dur. With conc well above the bottleneck width the stage is
// never idle, so completions/sec is the saturation throughput.
func closedLoop(h http.Handler, conc int, dur time.Duration) float64 {
	var done atomic.Uint64
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if serveOnce(h) == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / dur.Seconds()
}

// p99OK reports the p99 latency of the 200 samples and how many there are.
func p99OK(samples []s9Sample) (time.Duration, int) {
	var lats []time.Duration
	for _, s := range samples {
		if s.status == http.StatusOK {
			lats = append(lats, s.lat)
		}
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[int(math.Ceil(0.99*float64(len(lats))))-1], len(lats)
}

var wallClock = flag.Bool("wall-clock", false, "run TestAdmissionHoldsSLOAtTwiceTheKnee on the wall clock, not in a testing/synctest bubble")

// bubble is synctest.Run in a GOEXPERIMENT=synctest build (faketime_test.go).
var bubble func(func())

// fakeTime runs f in a bubble, where time moves only when every goroutine
// waits, or with -wall-clock on the wall clock. A build without
// GOEXPERIMENT=synctest has no bubble: t then passes only if a go test built
// with it (and -race in a race build, and this run's flags) passes it.
func fakeTime(t *testing.T, f func()) {
	switch {
	case *wallClock:
		f()
		return
	case bubble != nil:
		bubble(f)
		return
	case slices.Contains(strings.Split(os.Getenv("GOEXPERIMENT"), ","), "synctest"):
		t.Fatal("GOEXPERIMENT=synctest built no bubble") // and would run itself again forever
	}
	args := []string{"test", "-count=1", "-v", "-run", "^" + t.Name() + "$"}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	args = append(args, ".")
	flag.Visit(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	experiment := strings.TrimPrefix(os.Getenv("GOEXPERIMENT")+",synctest", ",")
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT="+experiment)
	out, err := cmd.CombinedOutput()
	t.Logf("GOEXPERIMENT=%s go %s\n%s", experiment, strings.Join(args, " "), out)
	if err != nil || !strings.Contains(string(out), "--- PASS: "+t.Name()+" (") {
		t.Fatalf("%s did not pass in a bubble: %v", t.Name(), err)
	}
}

// TestAdmissionHoldsSLOAtTwiceTheKnee is the open-loop overload check
// (formerly the S9 experiment). Every other test is closed-loop, so offered
// load never exceeds capacity; here a seeded Poisson stream offers twice
// the stage's calibrated knee regardless of how the server is doing, which
// is what a tagger fleet does to a saturated deployment. Without the gate
// the queue grows for the whole phase and p99 must pass 10× the SLO; behind
// the server's gate, after an unmeasured settling window, admitted p99 must
// hold within the SLO with goodput at least 80 % of the knee. The stage runs
// in fake time: the SLO bounds the gate's queueing, not the box's CPU.
func TestAdmissionHoldsSLOAtTwiceTheKnee(t *testing.T) {
	fakeTime(t, func() { holdsSLOAtTwiceTheKnee(t) })
}

func holdsSLOAtTwiceTheKnee(t *testing.T) {
	const (
		calibrate = 400 * time.Millisecond
		unlimited = 1600 * time.Millisecond
		converge  = 1200 * time.Millisecond
		measured  = 1500 * time.Millisecond
	)
	knee := closedLoop(newS9Stage(t, false), 4*s9Workers, calibrate)
	if knee <= 0 {
		t.Fatal("knee calibration measured zero throughput")
	}
	offered := 2 * knee

	unP99, _ := p99OK(drive(newS9Stage(t, false), arrivalOffsets(s9Seed, offered, unlimited)))

	gated := newS9Stage(t, true)
	drive(gated, arrivalOffsets(s9Seed+1, offered, converge))
	samples := drive(gated, arrivalOffsets(s9Seed+2, offered, measured))
	p99, ok := p99OK(samples)
	goodput := float64(ok) / measured.Seconds()
	t.Logf("knee %.0f req/s, offered %.0f req/s; unlimited p99 %v (%.1f× SLO); gated p99 %v, goodput %.0f req/s (%.0f%% of knee), %d shed",
		knee, offered, unP99.Round(time.Millisecond), unP99.Seconds()/s9SLO.Seconds(),
		p99.Round(time.Millisecond), goodput, 100*goodput/knee, len(samples)-ok)

	if unP99 < 10*s9SLO {
		t.Errorf("unlimited p99 %v did not reach 10× the %v SLO", unP99, s9SLO)
	}
	if ok == 0 || p99 > s9SLO {
		t.Errorf("admitted p99 %v (%d admitted) is not within the %v SLO", p99, ok, s9SLO)
	}
	if goodput < 0.8*knee {
		t.Errorf("goodput %.0f req/s is below 80%% of the %.0f req/s knee", goodput, knee)
	}
}

// TestArrivalOffsetsDeterministic: the same seed must replay the exact
// arrival schedule (the gated and unlimited phases compare fairly only
// because their load is reproducible), and a different seed must not.
func TestArrivalOffsetsDeterministic(t *testing.T) {
	a := arrivalOffsets(42, 500, time.Second)
	b := arrivalOffsets(42, 500, time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := arrivalOffsets(43, 500, time.Second)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestArrivalOffsetsDistribution: offsets are ascending within the
// horizon, the count matches rate x horizon, and the inter-arrivals look
// exponential — mean 1/rate and coefficient of variation ~1 (a constant-
// gap generator would have CV 0 and not model bursty tagger traffic).
func TestArrivalOffsetsDistribution(t *testing.T) {
	const rate = 1000.0
	horizon := 10 * time.Second
	offs := arrivalOffsets(2014, rate, horizon)

	n := float64(len(offs))
	if want := rate * horizon.Seconds(); math.Abs(n-want) > 0.05*want {
		t.Errorf("count = %.0f, want %.0f +/- 5%%", n, want)
	}
	prev := time.Duration(0)
	var gaps []float64
	var sum float64
	for i, off := range offs {
		if off < prev {
			t.Fatalf("offsets not ascending at %d: %v after %v", i, off, prev)
		}
		if off >= horizon {
			t.Fatalf("offset %v outside horizon %v", off, horizon)
		}
		g := (off - prev).Seconds()
		gaps = append(gaps, g)
		sum += g
		prev = off
	}
	mean := sum / n
	if want := 1 / rate; math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean inter-arrival = %.6fs, want %.6fs +/- 5%%", mean, want)
	}
	var sq float64
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/n) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("inter-arrival CV = %.3f, want ~1 (exponential)", cv)
	}
}
