package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// servingWorld is one service shared by a cached server (default options)
// and a plain one (cache disabled): the parity suite compares their bytes
// route by route.
type servingWorld struct {
	svc     *core.Service
	cached  *Server
	plain   *Server
	project string
	tagger  string
	prov    string
}

func newServingWorld(t *testing.T) *servingWorld {
	t.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 7)
	t.Cleanup(svc.Close)
	w := &servingWorld{
		svc:    svc,
		cached: NewWith(svc, Options{}),
		plain:  NewWith(svc, Options{RespCacheBytes: -1}),
	}
	ctx := t.Context()
	var err error
	if w.prov, err = svc.RegisterProvider(ctx, "prov"); err != nil {
		t.Fatal(err)
	}
	if w.tagger, err = svc.RegisterTagger(ctx, "tagr"); err != nil {
		t.Fatal(err)
	}
	spec := core.ProjectSpec{
		ProviderID: w.prov, Name: "parity", Budget: 200, PayPerTask: 0.05,
		Strategy: "random",
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("r%d", i)
		spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Name: id, Popularity: 1})
	}
	if w.project, err = svc.CreateProject(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// A few completed tasks so details, exports and user stats are
	// non-trivial.
	for i := 0; i < 8; i++ {
		task, err := svc.RequestTask(ctx, w.project, w.tagger)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.SubmitTask(ctx, w.project, task.ID, []string{"go", fmt.Sprintf("t%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *servingWorld) get(t *testing.T, srv *Server, path string, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// TestServingParity pins the redesigned encode path byte-for-byte: every
// v1 GET route must produce identical bodies through the cache miss path,
// the cache hit path, and the plain pooled pipeline — and for the
// representative routes, identical to the seed per-request encoder
// (json.Encoder straight over the value). /api/v1/metrics is excluded
// from byte comparison: its body embeds live counters that change with
// every request observed.
func TestServingParity(t *testing.T) {
	w := newServingWorld(t)

	paths := []string{
		"/api/v1/healthz",
		"/api/v1/users/" + w.tagger,
		"/api/v1/users/" + w.prov,
		"/api/v1/projects",
		"/api/v1/projects?limit=1",
		"/api/v1/projects/" + w.project,
		"/api/v1/projects/" + w.project + "/series",
		"/api/v1/projects/" + w.project + "/export",
		"/api/v1/projects/" + w.project + "/export?limit=2",
		"/api/v1/projects/" + w.project + "/resources/r0",
		"/api/v1/projects/" + w.project + "/resources/r3",
	}
	// Walk the export and project-list cursors so pagination continuations
	// are compared too.
	for _, base := range []string{"/api/v1/projects/" + w.project + "/export", "/api/v1/projects"} {
		cursor, pages := "", 0
		for {
			path := base + "?limit=2"
			if cursor != "" {
				path += "&cursor=" + cursor
			}
			paths = append(paths, path)
			rec, _ := w.get(t, w.plain, path, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d", path, rec.Code)
			}
			var page struct {
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatal(err)
			}
			if cursor = page.NextCursor; cursor == "" {
				break
			}
			if pages++; pages > 50 {
				t.Fatal("cursor never terminated")
			}
		}
	}

	for _, path := range paths {
		recPlain, plainBody := w.get(t, w.plain, path, nil)
		recMiss, missBody := w.get(t, w.cached, path, nil)
		recHit, hitBody := w.get(t, w.cached, path, nil)
		if recPlain.Code != http.StatusOK || recMiss.Code != http.StatusOK || recHit.Code != http.StatusOK {
			t.Fatalf("GET %s: plain=%d miss=%d hit=%d", path, recPlain.Code, recMiss.Code, recHit.Code)
		}
		if !bytes.Equal(plainBody, missBody) || !bytes.Equal(plainBody, hitBody) {
			t.Errorf("GET %s: bodies diverge\nplain %q\nmiss  %q\nhit   %q", path, plainBody, missBody, hitBody)
		}
		for _, rec := range []*httptest.ResponseRecorder{recPlain, recMiss, recHit} {
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(plainBody)) {
				t.Errorf("GET %s: Content-Length %q, body %d bytes", path, cl, len(plainBody))
			}
		}
	}
	if st := w.cached.RespCacheStats(); st.Hits == 0 {
		t.Fatalf("parity walk never hit the response cache: %+v", st)
	}

	// Representative routes against the seed encoder itself.
	ctx := t.Context()
	seed := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	info, err := w.svc.Project(ctx, w.project)
	if err != nil {
		t.Fatal(err)
	}
	_, body := w.get(t, w.cached, "/api/v1/projects/"+w.project, nil)
	if !bytes.Equal(body, seed(info)) {
		t.Errorf("project body != seed encoder output")
	}
	det, err := w.svc.ResourceDetail(ctx, w.project, "r0")
	if err != nil {
		t.Fatal(err)
	}
	_, body = w.get(t, w.cached, "/api/v1/projects/"+w.project+"/resources/r0", nil)
	if !bytes.Equal(body, seed(det)) {
		t.Errorf("resource detail body != seed encoder output")
	}
	items, next, err := w.svc.ExportPage(ctx, w.project, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	_, body = w.get(t, w.cached, "/api/v1/projects/"+w.project+"/export?limit=2", nil)
	if !bytes.Equal(body, seed(exportPage{Items: items, NextCursor: next})) {
		t.Errorf("export body != seed encoder output")
	}
}

// TestConditionalGET pins the ETag / If-None-Match semantics: a 304 only
// ever revalidates the current version — any completed write in between
// makes the old validator miss and the full fresh body come back.
func TestConditionalGET(t *testing.T) {
	w := newServingWorld(t)
	path := "/api/v1/projects/" + w.project + "/resources/r1"

	rec, body := w.get(t, w.cached, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d", rec.Code)
	}
	etag := rec.Header().Get("Etag")
	if etag == "" || rec.Header().Get("Cache-Control") != "no-cache" {
		t.Fatalf("validator headers missing: Etag=%q Cache-Control=%q", etag, rec.Header().Get("Cache-Control"))
	}

	// Matching validator → 304, no body, no framing, validator echoed.
	rec, b := w.get(t, w.cached, path, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("revalidation = %d %q", rec.Code, b)
	}
	if rec.Header().Get("Etag") != etag || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("304 headers: %v", rec.Header())
	}
	// Weak-form validator matches too.
	rec, _ = w.get(t, w.cached, path, map[string]string{"If-None-Match": "W/" + etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("weak revalidation = %d", rec.Code)
	}

	// Any completed catalog write moves the serve version — even one that
	// doesn't touch this resource's bytes. The old validator must now
	// fetch a full response with a fresh ETag, never a stale 304.
	if err := w.svc.StopResource(t.Context(), w.project, "r5"); err != nil {
		t.Fatal(err)
	}
	rec, b = w.get(t, w.cached, path, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK || len(b) == 0 {
		t.Fatalf("post-write revalidation = %d %q", rec.Code, b)
	}
	etag2 := rec.Header().Get("Etag")
	if etag2 == "" || etag2 == etag {
		t.Fatalf("ETag did not move across a write: %q → %q", etag, etag2)
	}
	if !bytes.Equal(b, body) {
		// Same resource bytes are fine (the write touched another table);
		// but if they differ they must decode — sanity only.
		var det core.ResourceStatus
		if err := json.Unmarshal(b, &det); err != nil {
			t.Fatal(err)
		}
	}
	rec, _ = w.get(t, w.cached, path, map[string]string{"If-None-Match": etag2})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("fresh validator = %d, want 304", rec.Code)
	}
}

// TestRespCacheCoherence hammers the dashboard route with conditional GETs
// while a writer completes tasks, and checks the 304 freshness invariant:
// a revalidated body must reflect every write acknowledged before the
// conditional request was issued. Run under -race this also exercises the
// cache's concurrent fill/withdraw/evict paths.
func TestRespCacheCoherence(t *testing.T) {
	w := newServingWorld(t)
	srv := httptest.NewServer(w.cached)
	defer srv.Close()
	path := srv.URL + "/api/v1/projects/" + w.project

	var completed atomic.Int64 // tasks acknowledged to the writer
	const writes = 120

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		ctx := t.Context()
		for i := 0; i < writes; i++ {
			task, err := w.svc.RequestTask(ctx, w.project, w.tagger)
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			if err := w.svc.SubmitTask(ctx, w.project, task.ID, []string{"go"}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			completed.Add(1)
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var etag string
			var cached struct {
				Spent int `json:"spent"`
			}
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				snap := completed.Load()
				req, _ := http.NewRequest("GET", path, nil)
				if etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusNotModified:
					// The invariant: a 304 proves the cached body's version
					// is current, so it includes every submit acknowledged
					// before this request started. Seeded baseline is zero
					// spent; each submit spends one task.
					if int64(cached.Spent) < snap-8 { // 8 setup submits predate the counter
						t.Errorf("stale 304: cached spent %d < %d acknowledged", cached.Spent, snap)
						return
					}
				case http.StatusOK:
					if err := json.Unmarshal(body, &cached); err != nil {
						t.Errorf("decode: %v", err)
						return
					}
					etag = resp.Header.Get("Etag")
				default:
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiescent revalidation: fill once, then the validator must hold.
	req, _ := http.NewRequest("GET", path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var last struct {
		Spent int `json:"spent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if int64(last.Spent) < writes {
		t.Fatalf("final spent %d < %d writes", last.Spent, writes)
	}
	req, _ = http.NewRequest("GET", path, nil)
	req.Header.Set("If-None-Match", resp.Header.Get("Etag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("quiescent revalidation = %d", resp2.StatusCode)
	}
}

// TestETagsAreScopedToTheirCache: serve versions count from zero in every
// process and on every node, so two caches can reach the same version over
// different bodies of the same length — a server restarted on its WAL, or a
// slot's leader and a follower each serving the same key. A validator minted
// by one must draw a 200 from the other, never a 304 certifying a body it
// was not minted for ("<version>-<len>" tags did exactly that).
func TestETagsAreScopedToTheirCache(t *testing.T) {
	ctx := t.Context()
	path := filepath.Join(t.TempDir(), "itag.wal")
	open := func() (*store.DB, *core.Service, *Server) {
		db, err := store.Open(path, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := core.NewService(store.NewCatalog(db), 7)
		if _, err := svc.ResumeRuns(ctx); err != nil {
			t.Fatal(err)
		}
		return db, svc, NewWith(svc, Options{})
	}
	get := func(srv *Server, url, inm string) (*httptest.ResponseRecorder, []byte) {
		req := httptest.NewRequest("GET", url, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec, rec.Body.Bytes()
	}

	db, svc, first := open()
	prov, err := svc.RegisterProvider(ctx, "prov")
	if err != nil {
		t.Fatal(err)
	}
	project, err := svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: prov, Name: "etag", Budget: 200, PayPerTask: 0.05, Strategy: "random",
		Resources: []dataset.Resource{{ID: "r0", Name: "r0", Popularity: 1}, {ID: "r1", Name: "r1", Popularity: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	url := "/api/v1/projects/" + project
	rec, body := get(first, url, "")
	etag, version := rec.Header().Get("Etag"), svc.ServeVersion()
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("GET = %d, Etag %q", rec.Code, etag)
	}
	if rec, _ := get(first, url, etag); rec.Code != http.StatusNotModified {
		t.Fatalf("own validator = %d, want 304", rec.Code)
	}

	// other drives a second stack to the first one's version with a body of
	// the same length and different content (budget 200 → 300), then offers
	// it the first one's validator.
	other := func(name string, svc2 *core.Service, srv2 *Server) {
		t.Helper()
		if svc2.ServeVersion() >= version {
			t.Fatalf("%s: starts at version %d, the first stack stopped at %d", name, svc2.ServeVersion(), version)
		}
		if err := svc2.AddBudget(ctx, project, 100); err != nil {
			t.Fatal(err)
		}
		for stop := true; svc2.ServeVersion() < version; stop = !stop {
			toggle := svc2.ResumeResource
			if stop {
				toggle = svc2.StopResource
			}
			if err := toggle(ctx, project, "r1"); err != nil {
				t.Fatal(err)
			}
		}
		if got := svc2.ServeVersion(); got != version {
			t.Fatalf("%s: version %d, want %d", name, got, version)
		}
		rec, body2 := get(srv2, url, etag)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: the other cache's validator drew %d, want 200", name, rec.Code)
		}
		if len(body2) != len(body) || bytes.Equal(body2, body) {
			t.Fatalf("%s: want an equal-length, different body\n first %s\nsecond %s", name, body, body2)
		}
		if rec.Header().Get("Etag") == etag {
			t.Fatalf("%s: two caches minted the same ETag %s over different bodies", name, etag)
		}
	}

	// Two stacks over one store (what a slot's leader and follower are to a
	// client): a second catalog counts its own writes from zero.
	svcB := core.NewService(store.NewCatalog(db), 7)
	if _, err := svcB.ResumeRuns(ctx); err != nil {
		t.Fatal(err)
	}
	other("second stack", svcB, NewWith(svcB, Options{}))
	svcB.Close()

	// The same server rebuilt over the reopened WAL.
	svc.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, svc2, second := open()
	defer db2.Close()
	defer svc2.Close()
	// The second stack's budget write is in the WAL too: 300 → 400.
	other("restarted server", svc2, second)
}
