package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"itag/internal/api"
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
	ctx := context.Background()
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
	ctx := context.Background()
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

// TestConditionalGET pins the ETag / If-None-Match semantics: a validator
// stands exactly as long as nothing its body shows was written. A post on r5
// retires r5's screen, the export page holding r5 and the dashboard — new
// tag, new body — and leaves r1's screen and the pages not holding r5 good
// for a 304; stopping r5 retires what shows r5 and no other page; a
// project created elsewhere retires nothing of this project's but its
// dashboard and pages (through the run epoch).
func TestConditionalGET(t *testing.T) {
	w := newServingWorld(t)
	ctx := context.Background()
	base := "/api/v1/projects/" + w.project
	r1, r5, dash := base+"/resources/r1", base+"/resources/r5", base

	rec, _ := w.get(t, w.cached, r1, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d", rec.Code)
	}
	etag := rec.Header().Get("Etag")
	if etag == "" || rec.Header().Get("Cache-Control") != "no-cache" {
		t.Fatalf("validator headers missing: Etag=%q Cache-Control=%q", etag, rec.Header().Get("Cache-Control"))
	}

	// Matching validator → 304, no body, no framing, validator echoed.
	rec, b := w.get(t, w.cached, r1, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("revalidation = %d %q", rec.Code, b)
	}
	if rec.Header().Get("Etag") != etag || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("304 headers: %v", rec.Header())
	}
	// Weak-form validator matches too.
	rec, _ = w.get(t, w.cached, r1, map[string]string{"If-None-Match": "W/" + etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("weak revalidation = %d", rec.Code)
	}

	// Pages of two rows: r0 r1 | r2 r3 | r4 r5.
	pages := []string{base + "/export?limit=2"}
	for len(pages) < 3 {
		_, body := w.get(t, w.cached, pages[len(pages)-1], nil)
		var page struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &page); err != nil || page.NextCursor == "" {
			t.Fatalf("export page %d: cursor %q, %v", len(pages), page.NextCursor, err)
		}
		pages = append(pages, base+"/export?limit=2&cursor="+page.NextCursor)
	}
	type view struct {
		etag string
		body []byte
	}
	views := make(map[string]view)
	snapshot := func() {
		t.Helper()
		for _, path := range append([]string{r1, r5, dash}, pages...) {
			rec, body := w.get(t, w.cached, path, nil)
			if rec.Code != http.StatusOK || rec.Header().Get("Etag") == "" {
				t.Fatalf("GET %s = %d, Etag %q", path, rec.Code, rec.Header().Get("Etag"))
			}
			views[path] = view{rec.Header().Get("Etag"), bytes.Clone(body)}
		}
	}
	// expect offers every snapshotted validator back: the retired paths must
	// answer 200 with a new tag (and, when the write shows, a new body), the
	// others 304.
	expect := func(what string, newBody bool, retired ...string) {
		t.Helper()
		gone := make(map[string]bool)
		for _, path := range retired {
			gone[path] = true
		}
		for path, v := range views {
			rec, body := w.get(t, w.cached, path, map[string]string{"If-None-Match": v.etag})
			switch {
			case !gone[path]:
				if rec.Code != http.StatusNotModified {
					t.Errorf("%s: %s answered %d, want 304 — nothing it shows was written", what, path, rec.Code)
				}
			case rec.Code != http.StatusOK || rec.Header().Get("Etag") == v.etag || rec.Header().Get("Etag") == "":
				t.Errorf("%s: %s answered %d with Etag %q (was %q), want 200 and a new tag", what, path, rec.Code, rec.Header().Get("Etag"), v.etag)
			case newBody && bytes.Equal(body, v.body):
				t.Errorf("%s: %s answered the body it had before the write", what, path)
			}
		}
	}

	// One paid post on r5: a promoted resource is the next one leased. The
	// stored promotion and the lease that clears it are resources-table
	// writes, which move no page's rows or names.
	snapshot()
	if err := w.svc.Promote(ctx, w.project, "r5"); err != nil {
		t.Fatal(err)
	}
	task, err := w.svc.RequestTask(ctx, w.project, w.tagger)
	if err != nil || task.ResourceID != "r5" {
		t.Fatalf("lease after promote = %q, %v; want r5", task.ResourceID, err)
	}
	if err := w.svc.SubmitTask(ctx, w.project, task.ID, []string{"go", "fresh"}); err != nil {
		t.Fatal(err)
	}
	expect("post on r5", true, r5, pages[2], dash)

	// A resources-table write: stopping r5 moves r5's own flags and the
	// engine's clock, so r5's screen, the dashboard and the page holding r5
	// go; no page's rows or names change, so the other pages stay.
	snapshot()
	if err := w.svc.StopResource(ctx, w.project, "r5"); err != nil {
		t.Fatal(err)
	}
	expect("stop r5", false, r5, dash, pages[2])

	// A project created elsewhere: new rows in the projects and resources
	// tables, nothing any resource screen shows. Installing its run moves
	// the service's run epoch, which every dashboard and page reads.
	snapshot()
	if _, err := w.svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: w.prov, Name: "elsewhere", Budget: 10, PayPerTask: 0.05, Strategy: "random",
		Resources: []dataset.Resource{{ID: "elsewhere-r0", Name: "x", Popularity: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	expect("project created elsewhere", false, dash, pages[0], pages[1], pages[2])

	// And a quiet system revalidates everywhere.
	snapshot()
	expect("quiescent", false)
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
		ctx := context.Background()
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

// TestETagsAreScopedToTheirCache: clocks and fill counters count from zero
// in every process and on every node, so two caches can mint the same
// counter over different bodies of the same length — a server restarted on
// its WAL, or a slot's leader and a follower each serving the same key. A
// validator minted by one must draw a 200 from the other, never a 304
// certifying a body it was not minted for ("<counter>-<len>" tags did
// exactly that).
func TestETagsAreScopedToTheirCache(t *testing.T) {
	ctx := context.Background()
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
	// counterAndLen is a tag without its cache nonce.
	counterAndLen := func(etag string) string { return etag[strings.IndexByte(etag, '-'):] }

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
	etag := rec.Header().Get("Etag")
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("GET = %d, Etag %q", rec.Code, etag)
	}
	if rec, _ := get(first, url, etag); rec.Code != http.StatusNotModified {
		t.Fatalf("own validator = %d, want 304", rec.Code)
	}

	// other gives a second stack a body of the same length and different
	// content (budget 200 → 300) as ITS first fill of the key, then offers it
	// the first one's validator.
	other := func(name string, svc2 *core.Service, srv2 *Server) {
		t.Helper()
		if err := svc2.AddBudget(ctx, project, 100); err != nil {
			t.Fatal(err)
		}
		rec, body2 := get(srv2, url, etag)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: the other cache's validator drew %d, want 200", name, rec.Code)
		}
		if len(body2) != len(body) || bytes.Equal(body2, body) {
			t.Fatalf("%s: want an equal-length, different body\n first %s\nsecond %s", name, body, body2)
		}
		etag2 := rec.Header().Get("Etag")
		if counterAndLen(etag2) != counterAndLen(etag) {
			t.Fatalf("%s: tags %s and %s differ beyond the nonce; the test no longer collides them", name, etag, etag2)
		}
		if etag2 == etag {
			t.Fatalf("%s: two caches minted the same ETag %s over different bodies", name, etag)
		}
	}

	// Two stacks over one store (what a slot's leader and follower are to a
	// client): a second cache counts its own fills from zero.
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

// TestScopedCoherence is the harness's view check run in-process against
// scoped invalidation: writers post to random resources of two projects
// over HTTP while 8 readers revalidate export pages and resource screens.
// Every body a reader ends up holding — a fresh 200's, or the one a 304
// certified — must show, per row, at least the posts acknowledged before
// the request was sent and at most those started when the reply arrived;
// and once the writers stop, every validator holds.
func TestScopedCoherence(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			scopedCoherence(t)
		})
	}
}

func scopedCoherence(t *testing.T) {
	const (
		resources = 12
		pageRows  = 4
		postsEach = 120 // per writer
		readers   = 8
	)
	ctx := context.Background()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 11)
	defer svc.Close()
	srv := httptest.NewServer(NewWith(svc, Options{}))
	defer srv.Close()
	hc := srv.Client()

	prov, err := svc.RegisterProvider(ctx, "prov")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := svc.RegisterTagger(ctx, "tagr")
	if err != nil {
		t.Fatal(err)
	}
	type project struct {
		id              string
		index           map[string]int
		started, acked  [resources]atomic.Int32
		pages, detail   []string // paths
		pageFirst       []int    // first resource index of pages[i]
		detailResources []int
	}
	projects := make([]*project, 2)
	for pi := range projects {
		p := &project{index: make(map[string]int)}
		spec := core.ProjectSpec{ProviderID: prov, Name: "coherence", Budget: 1 << 20, PayPerTask: 0.01, Strategy: "random"}
		for i := 0; i < resources; i++ {
			id := fmt.Sprintf("p%d-r%02d", pi, i) // resource keys are bare IDs: keep the projects' apart
			p.index[id] = i
			spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Name: id, Popularity: 1})
		}
		if p.id, err = svc.CreateProject(ctx, spec); err != nil {
			t.Fatal(err)
		}
		base := "/api/v1/projects/" + p.id
		for i := 0; i < resources; i++ {
			p.detail = append(p.detail, fmt.Sprintf("%s/resources/p%d-r%02d", base, pi, i))
		}
		cursor := ""
		for first := 0; first < resources; first += pageRows {
			path := fmt.Sprintf("%s/export?limit=%d", base, pageRows)
			if cursor != "" {
				path += "&cursor=" + cursor
			}
			p.pages, p.pageFirst = append(p.pages, path), append(p.pageFirst, first)
			items, next, err := svc.ExportPage(ctx, p.id, cursor, pageRows)
			if err != nil || len(items) != pageRows {
				t.Fatalf("export page at %d: %d rows, %v", first, len(items), err)
			}
			cursor = next
		}
		projects[pi] = p
	}

	post := func(path string, in, out any) error {
		body, _ := json.Marshal(in)
		resp, err := hc.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			raw, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST %s = %d %s", path, resp.StatusCode, raw)
		}
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	var writers, wg sync.WaitGroup
	writersDone := make(chan struct{})
	for pi, p := range projects {
		writers.Add(1)
		go func(pi int, p *project) {
			defer writers.Done()
			for i := 0; i < postsEach; i++ {
				var task store.TaskRec
				if err := post("/api/v1/projects/"+p.id+"/tasks", map[string]string{"tagger_id": tagger}, &task); err != nil {
					t.Errorf("request: %v", err)
					return
				}
				ri := p.index[task.ResourceID]
				p.started[ri].Add(1)
				tags := map[string][]string{"tags": {"go", fmt.Sprintf("t%d", i%5)}}
				if err := post("/api/v1/projects/"+p.id+"/tasks/"+task.ID+"/submit", tags, nil); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				p.acked[ri].Add(1)
			}
		}(pi, p)
	}
	go func() { writers.Wait(); close(writersDone) }()

	// held is what a reader has for a path: the validator and the post count
	// of each row the body shows.
	type held struct {
		etag  string
		posts []int
	}
	// fetch revalidates path and returns the rows the reader may now show.
	fetch := func(path string, have map[string]held) (held, int, error) {
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		h, known := have[path]
		if known {
			req.Header.Set("If-None-Match", h.etag)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return held{}, 0, err
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotModified && known:
			return h, resp.StatusCode, nil
		case resp.StatusCode != http.StatusOK:
			return held{}, resp.StatusCode, fmt.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		var body struct {
			Posts *int `json:"posts"` // a resource screen
			Items []struct {
				Posts int `json:"posts"`
			} `json:"items"` // an export page
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return held{}, resp.StatusCode, err
		}
		h = held{etag: resp.Header.Get("Etag")}
		if body.Posts != nil {
			h.posts = []int{*body.Posts}
		}
		for _, it := range body.Items {
			h.posts = append(h.posts, it.Posts)
		}
		if h.etag == "" {
			return held{}, resp.StatusCode, fmt.Errorf("GET %s: no Etag", path)
		}
		have[path] = h
		return h, resp.StatusCode, nil
	}
	// one view: which rows a path shows.
	rowsOf := func(p *project, page bool, i int) (string, int, int) {
		if page {
			return p.pages[i], p.pageFirst[i], pageRows
		}
		return p.detail[i], i, 1
	}

	var served304 atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			have := make(map[string]held)
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				p := projects[r.Intn(len(projects))]
				page := r.Intn(2) == 0
				n := resources
				if page {
					n = len(p.pages)
				}
				path, first, rows := rowsOf(p, page, r.Intn(n))
				floor := make([]int32, rows)
				for i := range floor {
					floor[i] = p.acked[first+i].Load()
				}
				h, status, err := fetch(path, have)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if status == http.StatusNotModified {
					served304.Add(1)
				}
				if len(h.posts) != rows {
					t.Errorf("reader %d: %s shows %d rows, want %d", g, path, len(h.posts), rows)
					return
				}
				for i, shown := range h.posts {
					if lo, hi := int(floor[i]), int(p.started[first+i].Load()); shown < lo || shown > hi {
						t.Errorf("reader %d: %s (%d) row %d shows %d posts, ledger allows %d..%d", g, path, status, i, shown, lo, hi)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if served304.Load() == 0 {
		t.Error("no reader was ever answered 304: scoped validators do not survive unrelated posts")
	}

	// Quiescent: every path, fetched once, revalidates — and shows the final
	// ledger exactly.
	have := make(map[string]held)
	for _, p := range projects {
		for _, page := range []bool{true, false} {
			n := resources
			if page {
				n = len(p.pages)
			}
			for i := 0; i < n; i++ {
				path, first, _ := rowsOf(p, page, i)
				h, _, err := fetch(path, have)
				if err != nil {
					t.Fatal(err)
				}
				for j, shown := range h.posts {
					if want := int(p.acked[first+j].Load()); shown != want {
						t.Errorf("quiescent %s row %d shows %d posts, want %d", path, j, shown, want)
					}
				}
				if _, status, err := fetch(path, have); err != nil || status != http.StatusNotModified {
					t.Errorf("quiescent revalidation of %s = %d, %v; want 304", path, status, err)
				}
			}
		}
	}
}

// TestRunSwapRetiresEntries: an answer given without a live run comes from
// the catalog, one given with a run from its engine, and installing the run
// is not a write to anything the other clocks cover. A validator minted on
// one side of such a swap must not draw a 304 on the other.
func TestRunSwapRetiresEntries(t *testing.T) {
	ctx := context.Background()
	cat := store.NewCatalog(store.OpenMemory())
	seed := core.NewService(cat, 7)
	defer seed.Close()
	prov, err := seed.RegisterProvider(ctx, "prov")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := seed.RegisterTagger(ctx, "tagr")
	if err != nil {
		t.Fatal(err)
	}
	manual, err := seed.CreateProject(ctx, core.ProjectSpec{
		ProviderID: prov, Name: "swap", Budget: 100, PayPerTask: 0.05, Strategy: "random",
		Resources: []dataset.Resource{{ID: "r0", Name: "r0", Popularity: 1}, {ID: "r1", Name: "r1", Popularity: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		task, err := seed.RequestTask(ctx, manual, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.SubmitTask(ctx, manual, task.ID, []string{"go", "db"}); err != nil {
			t.Fatal(err)
		}
	}

	get := func(srv *Server, path, inm string) (int, string, []byte) {
		req := httptest.NewRequest("GET", path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("Etag"), rec.Body.Bytes()
	}
	// retired caches path's 200, checks its validator holds, runs the swap,
	// and requires the old validator to draw a 200.
	type cachedView struct{ path, etag string }
	cache := func(srv *Server, paths ...string) []cachedView {
		t.Helper()
		var out []cachedView
		for _, path := range paths {
			code, etag, _ := get(srv, path, "")
			if code != http.StatusOK || etag == "" {
				t.Fatalf("GET %s = %d, Etag %q", path, code, etag)
			}
			if code, _, _ := get(srv, path, etag); code != http.StatusNotModified {
				t.Fatalf("GET %s with its own validator = %d, want 304", path, code)
			}
			out = append(out, cachedView{path, etag})
		}
		return out
	}
	retired := func(what string, srv *Server, views []cachedView) {
		t.Helper()
		for _, v := range views {
			code, etag, _ := get(srv, v.path, v.etag)
			if code != http.StatusOK || etag == v.etag {
				t.Errorf("%s: %s answered %d (Etag %q → %q), want 200 with a new tag", what, v.path, code, v.etag, etag)
			}
		}
	}

	// A second service over the same catalog has no runs: it answers the way
	// a follower, or a process that has not resumed yet, does.
	svc := core.NewService(cat, 7)
	defer svc.Close()
	srv := NewWith(svc, Options{})
	base := "/api/v1/projects/" + manual
	runless := cache(srv, base, base+"/export")
	if n, err := svc.ResumeRuns(ctx); err != nil || n != 1 {
		t.Fatalf("ResumeRuns = %d, %v", n, err)
	}
	retired("run installed", srv, runless)
}

// TestNotModifiedIsCounted: the 304 rate is a counter of its own, beside
// hits (which include it) — unlabeled here, slot-labeled in a cluster node's
// exposition.
func TestNotModifiedIsCounted(t *testing.T) {
	w := newServingWorld(t)
	path := "/api/v1/projects/" + w.project + "/resources/r2"
	rec, _ := w.get(t, w.cached, path, nil)
	for i := 0; i < 3; i++ {
		if rec, _ := w.get(t, w.cached, path, map[string]string{"If-None-Match": rec.Header().Get("Etag")}); rec.Code != http.StatusNotModified {
			t.Fatalf("revalidation = %d", rec.Code)
		}
	}
	w.get(t, w.cached, path, nil) // a hit answered 200
	if st := w.cached.RespCacheStats(); st.NotModified != 3 || st.Hits != 4 {
		t.Fatalf("stats = %+v, want 3 of 4 hits answered 304", st)
	}
	var found bool
	var x api.Exposition
	w.cached.Collect(&x, api.Label{Name: "slot", Value: "s"})
	for _, f := range x.Families() {
		if f.Name == "itag_respcache_not_modified_total" {
			found = f.Type == api.TypeCounter && len(f.Samples) == 1 && f.Samples[0].Value == 3 &&
				len(f.Samples[0].Labels) == 1 && f.Samples[0].Labels[0].Value == "s"
		}
	}
	if !found {
		t.Error("itag_respcache_not_modified_total{slot} missing from the server's series, or wrong")
	}
}

// TestExportLimitIsNotAnAllocationSize: ?limit= is the client's number, so
// nothing may be sized from it — a page asked for with an absurd limit is
// the whole export, on the cached and the plain pipeline, from a live run
// and from a runless service (folded rows) alike.
func TestExportLimitIsNotAnAllocationSize(t *testing.T) {
	w := newServingWorld(t)
	runless := core.NewService(w.svc.Catalog(), 7)
	defer runless.Close()
	path := "/api/v1/projects/" + w.project + "/export"
	_, want := w.get(t, w.plain, path, nil)
	for name, srv := range map[string]*Server{
		"cached": w.cached, "plain": w.plain, "runless": NewWith(runless, Options{}),
	} {
		for _, limit := range []int{1 << 40, int(^uint(0) >> 1)} {
			rec, body := w.get(t, srv, path+"?limit="+strconv.Itoa(limit), nil)
			if rec.Code != http.StatusOK || !bytes.Equal(body, want) {
				t.Errorf("%s, limit=%d: %d %.80s, want the whole export", name, limit, rec.Code, body)
			}
		}
	}
}
