package client_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itag/client"
	"itag/internal/core"
	"itag/internal/server"
	"itag/internal/store"
)

// condTestServer is a hand-rolled origin that counts full responses vs
// revalidations, so the tests can see exactly which path the SDK took. Every
// path answers the same body under the same validator.
type condTestServer struct {
	mu      sync.Mutex
	etag    string
	body    string
	full    atomic.Int64 // 200s served
	revalid atomic.Int64 // 304s served
	offered atomic.Int64 // requests that carried If-None-Match
}

func (s *condTestServer) set(etag, body string) {
	s.mu.Lock()
	s.etag, s.body = etag, body
	s.mu.Unlock()
}

func (s *condTestServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	etag, body := s.etag, s.body
	s.mu.Unlock()
	if r.Header.Get("If-None-Match") != "" {
		s.offered.Add(1)
	}
	w.Header().Set("Etag", etag)
	if r.Header.Get("If-None-Match") == etag {
		s.revalid.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.full.Add(1)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, body)
}

func TestConditionalGETsRevalidate(t *testing.T) {
	origin := &condTestServer{}
	origin.set(`"v1"`, `{"id":"first"}`)
	srv := httptest.NewServer(origin)
	defer srv.Close()

	ctx := context.Background()
	c := client.New(srv.URL, srv.Client())

	// Health discards the body: no decode target means no caching and no
	// validator, exercising the out==nil guard.
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	do := func() string {
		t.Helper()
		st, err := c.GetResource(ctx, "p", "r")
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	if id := do(); id != "first" {
		t.Fatalf("first fetch = %q", id)
	}
	full0, rev0 := origin.full.Load(), origin.revalid.Load()

	// Second fetch: revalidated, answered from the value kept.
	if id := do(); id != "first" {
		t.Fatalf("revalidated fetch = %q", id)
	}
	if origin.full.Load() != full0 || origin.revalid.Load() != rev0+1 {
		t.Fatalf("second fetch: full %d→%d revalid %d→%d",
			full0, origin.full.Load(), rev0, origin.revalid.Load())
	}

	// Origin state changes: stale validator misses, fresh body decoded and
	// the new validator takes over.
	origin.set(`"v2"`, `{"id":"second"}`)
	if id := do(); id != "second" {
		t.Fatalf("post-change fetch = %q", id)
	}
	if id := do(); id != "second" || origin.revalid.Load() != rev0+2 {
		t.Fatalf("post-change revalidation = %q (revalid %d)", id, origin.revalid.Load())
	}

	// Copies derived from the client share its validators; a second client
	// has its own and starts with a full fetch.
	before := origin.revalid.Load()
	if _, err := c.WithHeader("X-Test", "1").GetResource(ctx, "p", "r"); err != nil || origin.revalid.Load() != before+1 {
		t.Fatalf("derived copy did not revalidate (revalid %d→%d, %v)", before, origin.revalid.Load(), err)
	}
	offered := origin.offered.Load()
	if _, err := client.New(srv.URL, srv.Client()).GetResource(ctx, "p", "r"); err != nil || origin.offered.Load() != offered {
		t.Fatalf("a fresh client offered a validator it cannot have (%v)", err)
	}
}

// TestNotModifiedResultsAreCopies: what a 304 hands back belongs to the
// caller — editing it, slices and all, changes neither the value the client
// keeps nor what the next 304 returns.
func TestNotModifiedResultsAreCopies(t *testing.T) {
	origin := &condTestServer{}
	srv := httptest.NewServer(origin)
	defer srv.Close()
	ctx := context.Background()
	c := client.New(srv.URL, srv.Client())

	origin.set(`"page"`, `{"items":[`+
		`{"id":"r0","name":"zero","posts":3,"stability":0.5,"top_tags":[{"tag":"go","count":3,"freq":1},{"tag":"db","count":1,"freq":0.3}]},`+
		`{"id":"r1","name":"one","posts":1,"stability":0,"top_tags":[{"tag":"web","count":1,"freq":1}]},`+
		`{"id":"r2","name":"two","posts":0,"stability":0,"top_tags":null}],"next_cursor":"abc"}`)
	page := func() client.ExportPage {
		t.Helper()
		p, err := c.Export(ctx, "p", "", 3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := page() // 200
	for i := 0; i < 2; i++ {
		got := page() // 304
		if origin.revalid.Load() != int64(i+1) {
			t.Fatalf("fetch %d was not a 304", i+2)
		}
		if len(got.Items) != 3 || got.NextCursor != "abc" || got.Items[0].TopTags[0].Tag != "go" ||
			got.Items[0].TopTags[1].Tag != "db" || got.Items[1].TopTags[0].Tag != "web" || got.Items[2].TopTags != nil ||
			got.Items[1].Name != "one" || got.Items[0].Posts != 3 {
			t.Fatalf("304 result %d = %+v", i+1, got)
		}
		// Scribble over everything reachable, and grow a row's tags into
		// whatever lies behind them.
		got.Items[0].TopTags[0].Tag = "MUTATED"
		got.Items[0].TopTags = append(got.Items[0].TopTags, client.TagFreq{Tag: "SPILL"})
		got.Items[1] = client.ExportedResource{ID: "MUTATED"}
		got.Items = got.Items[:1]
	}
	if first.Items[0].TopTags[0].Tag != "go" || len(first.Items) != 3 {
		t.Fatalf("the 200's result was edited through a later 304's: %+v", first)
	}

	origin.set(`"screen"`, `{"id":"r0","posts":3,"series":[0.1,0.2,0.3],"top_tags":[{"tag":"go","count":3,"freq":1}]}`)
	for i := 0; i < 3; i++ { // 200, then two 304s
		st, err := c.GetResource(ctx, "p", "r0")
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Series) != 3 || st.Series[0] != 0.1 || st.TopTags[0].Tag != "go" {
			t.Fatalf("fetch %d = %+v", i+1, st)
		}
		st.Series[0], st.TopTags[0].Tag = -1, "MUTATED"
	}
}

// TestCopyResponseSharesNothing holds copyResponse to its contract by
// reflection, so that a slice, map or pointer field added to a retained type
// fails here until copyResponse clones it: every reference in a filled value
// of each type must come back equal and at a different address.
func TestCopyResponseSharesNothing(t *testing.T) {
	for _, pair := range [][2]any{
		{&client.ProjectInfo{}, &client.ProjectInfo{}},
		{&client.ResourceStatus{}, &client.ResourceStatus{}},
		{&client.ExportPage{}, &client.ExportPage{}},
	} {
		src, dst := pair[0], pair[1]
		fillRefs(reflect.ValueOf(src).Elem())
		if !client.CopyResponse(dst, src) {
			t.Fatalf("%T is not a retained type", src)
		}
		if !reflect.DeepEqual(dst, src) {
			t.Errorf("%T: copy differs:\n src %+v\n dst %+v", src, src, dst)
		}
		for _, path := range sharedRefs(reflect.ValueOf(src).Elem(), reflect.ValueOf(dst).Elem(), "") {
			t.Errorf("%T: the copy shares %s with its source", src, path)
		}
	}
	// A page's copied rows hold their tags in one array: growing row 0's
	// reallocates it rather than writing over row 1's first tag.
	var src, dst client.ExportPage
	fillRefs(reflect.ValueOf(&src).Elem())
	client.CopyResponse(&dst, &src)
	dst.Items[0].TopTags = append(dst.Items[0].TopTags, client.TagFreq{Tag: "SPILL"})
	if got := dst.Items[1].TopTags[0]; got != src.Items[1].TopTags[0] {
		t.Fatalf("an append to row 0's tags wrote over row 1's: %+v", got)
	}
	// The walk itself: a shallow copy is caught, at both depths.
	var page, shallow client.ExportPage
	fillRefs(reflect.ValueOf(&page).Elem())
	shallow = page
	if got := sharedRefs(reflect.ValueOf(&page).Elem(), reflect.ValueOf(&shallow).Elem(), ""); len(got) != 1 || got[0] != ".Items" {
		t.Fatalf("shallow copy: shared = %v, want [.Items]", got)
	}
	shallow.Items = slices.Clone(page.Items)
	if got := sharedRefs(reflect.ValueOf(&page).Elem(), reflect.ValueOf(&shallow).Elem(), ""); len(got) != 2 {
		t.Fatalf("rows cloned, tags not: shared = %v, want both rows' .TopTags", got)
	}
}

var timeType = reflect.TypeOf(time.Time{})

// fillRefs makes every slice, map and pointer reachable from v non-empty.
func fillRefs(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == timeType {
			return // immutable to its holders
		}
		for i := 0; i < v.NumField(); i++ {
			fillRefs(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillRefs(v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		elem := reflect.New(v.Type().Elem()).Elem()
		fillRefs(elem)
		v.SetMapIndex(reflect.Zero(v.Type().Key()), elem)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillRefs(v.Elem())
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fillRefs: teach me " + v.Kind().String()) // a new kind of field: decide how it is copied
	}
}

// sharedRefs lists the paths at which a and b, two values of one type filled
// by fillRefs, point at the same memory.
func sharedRefs(a, b reflect.Value, path string) []string {
	var out []string
	switch a.Kind() {
	case reflect.Struct:
		if a.Type() == timeType {
			return nil
		}
		for i := 0; i < a.NumField(); i++ {
			out = append(out, sharedRefs(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name)...)
		}
	case reflect.Slice:
		if a.Pointer() == b.Pointer() {
			return []string{path}
		}
		for i := 0; i < a.Len() && i < b.Len(); i++ {
			out = append(out, sharedRefs(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Map, reflect.Pointer:
		if a.Pointer() == b.Pointer() {
			return []string{path}
		}
		if a.Kind() == reflect.Pointer {
			out = sharedRefs(a.Elem(), b.Elem(), path)
		}
	}
	return out
}

// TestContentLengthIsAClaim: the header presizes the read buffer only within
// what the SDK would pool anyway — a server or proxy announcing an absurd
// length gets its body read as it arrives, not a panic or a giant allocation
// in the caller's process.
func TestContentLengthIsAClaim(t *testing.T) {
	for _, claimed := range []int64{math.MaxInt64, 1 << 40, 1<<20 + 1, 3, -1} {
		rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode:    http.StatusOK,
				Header:        http.Header{"Etag": {`"v"`}},
				ContentLength: claimed,
				Body:          io.NopCloser(strings.NewReader(`{"id":"r","posts":4}`)),
				Request:       req,
			}, nil
		})
		c := client.New("http://localhost", &http.Client{Transport: rt})
		st, err := c.GetResource(context.Background(), "p", "r")
		if err != nil || st.ID != "r" || st.Posts != 4 {
			t.Errorf("Content-Length %d: %+v, %v", claimed, st, err)
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestValidatorCacheIsByteBounded: retention is bounded in response bytes,
// and a response larger than the whole bound is fetched in full every time
// instead of being kept.
func TestValidatorCacheIsByteBounded(t *testing.T) {
	origin := &condTestServer{}
	srv := httptest.NewServer(origin)
	defer srv.Close()
	ctx := context.Background()
	c := client.New(srv.URL, srv.Client())

	screen := func(pad int) string {
		return `{"id":"big","top_tags":[{"tag":"` + strings.Repeat("a", pad) + `"}]}`
	}
	origin.set(`"big"`, screen(client.ValidatorCacheBytes))
	for i := 0; i < 2; i++ {
		if st, err := c.GetResource(ctx, "p", "big"); err != nil || len(st.TopTags[0].Tag) != client.ValidatorCacheBytes {
			t.Fatalf("fetch %d: %v", i+1, err)
		}
	}
	if origin.offered.Load() != 0 || c.RetainedBytes() != 0 {
		t.Fatalf("a response over the bound was retained: %d validators offered, %d bytes held", origin.offered.Load(), c.RetainedBytes())
	}

	// Ten 1 MiB screens do not fit in 8 MiB: the total never passes the
	// bound, and the newest — always kept — still revalidates.
	origin.set(`"mib"`, screen(1<<20))
	for i := 0; i < 10; i++ {
		if _, err := c.GetResource(ctx, "p", fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		if got := c.RetainedBytes(); got > client.ValidatorCacheBytes {
			t.Fatalf("after %d screens the cache holds %d bytes, bound %d", i+1, got, client.ValidatorCacheBytes)
		}
	}
	if got := c.RetainedBytes(); got < client.ValidatorCacheBytes/2 {
		t.Fatalf("cache holds %d bytes of 10 MiB offered: eviction overshoots", got)
	}
	if _, err := c.GetResource(ctx, "p", "r9"); err != nil || origin.revalid.Load() != 1 {
		t.Fatalf("the newest screen did not revalidate (%d 304s, %v)", origin.revalid.Load(), err)
	}

	// A ClusterClient has one bound for all its nodes, not one each: the same
	// ten screens fetched from two nodes, five apiece, still stay under it.
	second := httptest.NewServer(origin)
	defer second.Close()
	ring := fmt.Sprintf(`{"version":1,"vnodes":4,"members":[{"slot":"a","addr":%q},{"slot":"b","addr":%q}]}`, srv.URL, second.URL)
	ringSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, ring) }))
	defer ringSrv.Close()
	cc := client.NewCluster([]string{ringSrv.URL}, srv.Client())
	for i := 0; i < 10; i++ {
		node, err := cc.Node(ctx, []string{"a", "b"}[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := node.GetResource(ctx, "p", fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		if got := cc.RetainedBytes(); got > client.ValidatorCacheBytes {
			t.Fatalf("after %d screens over two nodes the cluster client holds %d bytes, bound %d", i+1, got, client.ValidatorCacheBytes)
		}
	}
	if got := cc.RetainedBytes(); got < client.ValidatorCacheBytes/2 {
		t.Fatalf("cluster client holds %d bytes of 10 MiB offered: eviction overshoots", got)
	}
}

// recordingTransport notes which request paths carried If-None-Match.
type recordingTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	inm   map[string]int
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("If-None-Match") != "" {
		rt.mu.Lock()
		rt.inm[req.URL.Path]++
		rt.mu.Unlock()
	}
	return rt.inner.RoundTrip(req)
}

// TestConditionalGETsAgainstServer drives the real v1 surface: repeated
// GetResource calls revalidate against the server's encoded-response
// cache, and a write in between always yields fresh data — never a stale
// kept value; calls whose responses carry no ETag never offer a validator.
func TestConditionalGETsAgainstServer(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 7)
	srv := httptest.NewServer(server.New(svc, nil))
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Close)
	rt := &recordingTransport{inner: srv.Client().Transport, inm: make(map[string]int)}
	c := client.New(srv.URL, &http.Client{Transport: rt})
	ctx := context.Background()

	prov, err := c.RegisterProvider(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	tagr, err := c.RegisterTagger(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: prov, Name: "cond", Budget: 50, PayPerTask: 0.05,
		Resources: []client.UploadedResource{{ID: "r1", Kind: "url", Name: "r1"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.GetResource(ctx, proj, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if st2, err := c.GetResource(ctx, proj, "r1"); err != nil || st2.ID != st.ID || st2.Posts != st.Posts {
		t.Fatalf("revalidated read diverged: %+v vs %+v (%v)", st2, st, err)
	}
	if n := rt.inm["/api/v1/projects/"+proj+"/resources/r1"]; n != 1 {
		t.Fatalf("second GetResource offered %d validators, want 1", n)
	}

	task, err := c.RequestTask(ctx, proj, tagr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitTask(ctx, proj, task.ID, []string{"go", "db"}); err != nil {
		t.Fatal(err)
	}
	after, err := c.GetResource(ctx, proj, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if after.Posts != st.Posts+1 {
		t.Fatalf("post-write read is stale: %+v after %+v", after, st)
	}

	// No ETag, no validator: these answers are never retained.
	for i := 0; i < 3; i++ {
		if _, err := c.GetUser(ctx, tagr); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ListProjects(ctx, "", "", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetSeries(ctx, proj, ""); err != nil {
			t.Fatal(err)
		}
	}
	for path, n := range rt.inm {
		if !strings.Contains(path, "/resources/") {
			t.Errorf("%d requests for %s carried If-None-Match; its responses have no ETag", n, path)
		}
	}
}

// TestConditionalGETsConcurrent hammers one client from many goroutines
// (run under -race) with responses big enough that they do not all fit:
// the validator cache must stay coherent and inside its bound, and every
// result must come back well-formed whichever way it was answered.
func TestConditionalGETsConcurrent(t *testing.T) {
	pad := strings.Repeat("a", 700<<10) // 16 paths x 700 KiB > 8 MiB
	body := func(i int) string {
		return fmt.Sprintf(`{"id":"x%d","top_tags":[{"tag":"%s"}]}`, i, pad)
	}
	origin := &condTestServer{}
	origin.set(`"v0"`, body(0))
	srv := httptest.NewServer(origin)
	defer srv.Close()
	c := client.New(srv.URL, srv.Client())
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g == 0 && i%5 == 0 {
					origin.set(fmt.Sprintf(`"v%d"`, i), body(i))
				}
				got, err := c.GetResource(ctx, "p", fmt.Sprintf("r%d", (g*5+i)%16))
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if !strings.HasPrefix(got.ID, "x") || len(got.TopTags) != 1 || len(got.TopTags[0].Tag) != len(pad) {
					t.Errorf("malformed result: id %q, %d tags", got.ID, len(got.TopTags))
					return
				}
				got.TopTags[0].Tag = "mine" // results are the caller's
				if held := c.RetainedBytes(); held > client.ValidatorCacheBytes {
					t.Errorf("cache holds %d bytes, bound %d", held, client.ValidatorCacheBytes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if origin.revalid.Load() == 0 {
		t.Error("no call was ever answered 304")
	}
}
