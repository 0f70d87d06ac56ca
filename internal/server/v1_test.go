package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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

// newV1Client is newClient plus service cleanup (background runs are
// interrupted at test end instead of leaking).
func newV1Client(t *testing.T) *client {
	t.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	srv := httptest.NewServer(New(svc, nil))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return &client{t: t, srv: srv}
}

// TestV1HealthzAndAliasParity: the probe answers under /api/v1 and its
// pre-v1 alias is gone (TestNoRouteOutsideV1 checks every other route).
func TestV1HealthzAndAliasParity(t *testing.T) {
	c := newV1Client(t)
	var v1 map[string]string
	c.do("GET", "/api/v1/healthz", nil, http.StatusOK, &v1)
	if v1["status"] != "ok" {
		t.Errorf("healthz: v1=%v", v1)
	}
	c.do("GET", "/api/healthz", nil, http.StatusNotFound, nil)
}

func TestV1BatchRegisterTaggers(t *testing.T) {
	c := newV1Client(t)
	var resp batchRegisterResp
	c.do("POST", "/api/v1/taggers:batch",
		map[string][]string{"names": {"a", "b", "c"}}, http.StatusOK, &resp)
	if resp.OK != 3 || resp.Failed != 0 || len(resp.Results) != 3 {
		t.Fatalf("batch = %+v", resp)
	}
	for _, res := range resp.Results {
		var u userResp
		c.do("GET", "/api/v1/users/"+res.ID, nil, http.StatusOK, &u)
		if u.Role != store.RoleTagger {
			t.Errorf("registered user = %+v", u)
		}
	}
	// Empty and oversized batches are rejected whole.
	c.do("POST", "/api/v1/taggers:batch", map[string][]string{"names": {}}, http.StatusBadRequest, nil)
	big := make([]string, maxBatchItems+1)
	c.do("POST", "/api/v1/taggers:batch", map[string][]string{"names": big},
		http.StatusRequestEntityTooLarge, nil)
}

func TestV1BatchTasksPerItemErrors(t *testing.T) {
	c := newV1Client(t)
	prov := c.register("providers", "p")
	tagr := c.register("taggers", "t")
	var created registerResp
	c.do("POST", "/api/v1/projects", CreateProjectReq{
		ProviderID: prov, Name: "m", Budget: 3, PayPerTask: 0.1,
		Resources: []UploadedResource{
			{ID: "u1", Kind: "url", Name: "a"},
			{ID: "u2", Kind: "url", Name: "b"},
		},
	}, http.StatusCreated, &created)
	proj := created.ID

	var resp batchTasksResp
	c.do("POST", "/api/v1/projects/"+proj+"/tasks:batch", map[string]any{
		"items": []map[string]any{
			{"tagger_id": tagr, "tags": []string{"go"}},
			{"tagger_id": "ghost", "tags": []string{"x"}}, // unknown tagger
			{"tagger_id": tagr},                           // request-only
			{"tagger_id": tagr, "tags": []string{"db"}},   // ok
			{"tagger_id": tagr, "tags": []string{"too"}},  // budget exhausted
		},
	}, http.StatusOK, &resp)

	if resp.OK != 3 || resp.Failed != 2 {
		t.Fatalf("batch = ok %d failed %d (%+v)", resp.OK, resp.Failed, resp.Results)
	}
	if r := resp.Results[0]; !r.Submitted || r.TaskID == "" {
		t.Errorf("item 0 = %+v", r)
	}
	if r := resp.Results[1]; r.Error == nil || r.Error.Code != api.CodeInvalidArgument {
		t.Errorf("item 1 = %+v", r)
	}
	if r := resp.Results[2]; r.Submitted || r.TaskID == "" || r.Error != nil {
		t.Errorf("request-only item = %+v", r)
	}
	if r := resp.Results[4]; r.Error == nil {
		t.Errorf("post-budget item = %+v", r)
	}
}

// cancelOnLookup cancels a request's context on the n-th tagger lookup: a
// tasks:batch call looks each distinct tagger up once, just before it leases
// that item's task, so with one tagger per item the call is cancelled while
// item n is under way.
type cancelOnLookup struct {
	store.Store
	n      int
	cancel context.CancelFunc
}

func (s *cancelOnLookup) Get(table, key string, out any) error {
	if table == store.TableUsers && s.cancel != nil {
		if s.n--; s.n == 0 {
			s.cancel()
		}
	}
	return s.Store.Get(table, key, out)
}

// TestV1BatchTasksCancelledKeepsCommitted: a tasks:batch call cancelled
// after its k-th item still commits those k posts, so it answers 200 with
// them, and every item it never reached fails as canceled: ok + failed is
// the number of items, and what the answer calls ok is what is stored.
func TestV1BatchTasksCancelledKeepsCommitted(t *testing.T) {
	const items, k = 10, 4
	ctx := context.Background()
	db := &cancelOnLookup{Store: store.OpenMemory()}
	svc := core.NewService(store.NewCatalog(db), 99)
	defer svc.Close()
	h := New(svc, nil)
	prov, err := svc.RegisterProvider(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	body.WriteString(`{"items":[`)
	for i := range items {
		tagger, err := svc.RegisterTagger(ctx, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"tagger_id":%q,"tags":["go"]}`, tagger)
	}
	body.WriteString(`]}`)
	proj, err := svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: prov, Name: "m", Budget: items, PayPerTask: 0.1,
		Resources: []dataset.Resource{{ID: "u1", Kind: "url", Name: "a"}, {ID: "u2", Kind: "url", Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	db.n, db.cancel = k, cancel
	req := httptest.NewRequest("POST", "/api/v1/projects/"+proj+"/tasks:batch", strings.NewReader(body.String())).WithContext(reqCtx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	db.cancel = nil
	if rec.Code != http.StatusOK {
		t.Fatalf("cancelled batch answered %d: %s", rec.Code, rec.Body)
	}
	var resp batchTasksResp
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != items || resp.OK != k || resp.Failed != items-k {
		t.Fatalf("cancelled batch = ok %d failed %d of %d results, want ok %d failed %d of %d",
			resp.OK, resp.Failed, len(resp.Results), k, items-k, items)
	}
	for i, r := range resp.Results {
		if i < k && (r.Error != nil || !r.Submitted || r.TaskID == "") {
			t.Errorf("committed item %d = %+v", i, r)
		}
		if i >= k && (r.Error == nil || r.Error.Code != api.CodeCanceled || r.TaskID != "") {
			t.Errorf("unattempted item %d = %+v, want a canceled error", i, r)
		}
	}
	done, err := svc.Catalog().TasksByProject(proj, store.TaskCompleted)
	if err != nil || len(done) != k {
		t.Errorf("%d completed tasks stored (%v), want %d", len(done), err, k)
	}
	if n := db.Count(store.TablePosts); n != k {
		t.Errorf("%d posts stored, want %d", n, k)
	}
}

func TestV1MetricsEndpoint(t *testing.T) {
	c := newV1Client(t)
	var created registerResp
	c.do("POST", "/api/v1/providers", registerReq{Name: "p"}, http.StatusCreated, &created)
	var snap struct {
		api.Snapshot
		Store *store.Stats `json:"store"`
	}
	c.do("GET", "/api/v1/metrics", nil, http.StatusOK, &snap)
	if snap.TotalRequests == 0 {
		t.Fatalf("metrics = %+v", snap)
	}
	found := false
	for _, r := range snap.Routes {
		if r.Route == "POST /api/v1/providers" && r.Count == 1 && r.Status2xx == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("provider route not tracked: %+v", snap.Routes)
	}
	// The durability-layer counters ride along; registering the provider
	// committed at least one record to the (memory) store.
	if snap.Store == nil || snap.Store.Backend != "memory" || snap.Store.Commits == 0 {
		t.Errorf("store stats missing from metrics: %+v", snap.Store)
	}
}

func TestV1RequestIDPropagation(t *testing.T) {
	c := newV1Client(t)
	req, err := http.NewRequest("GET", c.srv.URL+"/api/v1/users/ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "load-test-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "load-test-7" {
		t.Errorf("echoed request id = %q", got)
	}
	buf := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"request_id":"load-test-7"`) {
		t.Errorf("envelope missing request id: %s", buf)
	}
}

// TestV1EventsStreamDuringRun: the SSE endpoint streams hello, then quality
// ticks up to the last post while a simulated tagger tags the project to its
// budget on the served path.
func TestV1EventsStreamDuringRun(t *testing.T) {
	c := newV1Client(t)
	prov := c.register("providers", "p")
	p := c.createSimProject(prov, 60)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", c.srv.URL+"/api/v1/projects/"+p.id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	c.tag(p, 60)

	// The stream does not end on its own: read it up to the stability tick
	// of the last post.
	types := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	last := false
	for event := ""; !last && sc.Scan(); {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			types[ev]++
		}
		last = event == "tick" && strings.Contains(line, `"series":"mean_stability"`) && strings.Contains(line, `"x":60,`)
	}
	if !last {
		t.Fatalf("stream ended (%v) before the last post's tick; saw %v", sc.Err(), types)
	}
	if types["hello"] != 1 || types["tick"] == 0 {
		t.Errorf("event mix = %v", types)
	}
	if types["dropped"] != 0 {
		t.Errorf("dropped events on a tiny run: %v", types)
	}
}
