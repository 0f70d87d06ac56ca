package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"

	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// taggerRoundAllocs bounds one tagger round — a lease and a submit through
// Server.ServeHTTP on a memory catalog, requests built as net/http builds
// them and without X-Request-Id, as the SDK sends them — in allocations,
// this harness's own included. It reads 70: 76 while each request body was
// read through an http.MaxBytesReader, the task and post keys were strings
// of their own and a held lease was a whole TaskRec (over the map's in-place
// bound); 102 while the middleware put a minted ID into each request's
// context and every route took a deadline.
const taggerRoundAllocs = 77

// roundWriter is a response writer that keeps the last body, so the lease's
// task ID can be read from it, and reuses one header map, cleared per
// request.
type roundWriter struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func (w *roundWriter) Header() http.Header         { return w.hdr }
func (w *roundWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *roundWriter) WriteHeader(code int)        { w.status = code }

// TestTaggerRoundAllocs holds a warm tagger round under taggerRoundAllocs.
// Each request gets a cancellable context of its own, as net/http's server
// gives it, so anything that derives a context from it pays what it would
// on a real connection.
func TestTaggerRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops items at random under -race, so allocation counts are not the product's")
	}
	ctx := context.Background()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
	defer svc.Close()
	prov, err := svc.RegisterProvider(ctx, "prov")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := svc.RegisterTagger(ctx, "tagr")
	if err != nil {
		t.Fatal(err)
	}
	spec := core.ProjectSpec{ProviderID: prov, Name: "round", Budget: 100000, PayPerTask: 0.01, Strategy: "fp-mu"}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("res-%03d", i)
		spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Kind: "url", Name: id, Popularity: 1})
	}
	proj, err := svc.CreateProject(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(svc, Options{})
	w := &roundWriter{hdr: make(http.Header, 8)}
	serve := func(path string, body []byte) {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		r := (&http.Request{Method: http.MethodPost, URL: &url.URL{Path: path}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"Content-Type": {"application/json"}}, ContentLength: int64(len(body)),
			Body: io.NopCloser(bytes.NewReader(body))}).WithContext(rctx)
		clear(w.hdr)
		w.body.Reset()
		w.status = 0
		srv.ServeHTTP(w, r)
	}
	leasePath := "/api/v1/projects/" + proj + "/tasks"
	leaseBody := []byte(`{"tagger_id":"` + tagger + `"}`)
	submits := [][]byte{[]byte(`{"tags":["go","database"]}`), []byte(`{"tags":["go","tagging"]}`), []byte(`{"tags":["web","design"]}`)}
	n := 0
	round := func() {
		serve(leasePath, leaseBody)
		const idKey = `"id":"`
		body := w.body.Bytes()
		i := bytes.Index(body, []byte(idKey))
		if w.status != http.StatusCreated || i < 0 {
			t.Fatalf("lease: %d %s", w.status, body)
		}
		id := body[i+len(idKey):]
		id = id[:bytes.IndexByte(id, '"')]
		serve(leasePath+"/"+string(id)+"/submit", submits[n%len(submits)])
		n++
		if w.status != http.StatusOK {
			t.Fatalf("submit: %d %s", w.status, w.body.Bytes())
		}
	}
	for range 300 { // the quality windows and the post tree grow while the world is young
		round()
	}
	allocs := testing.AllocsPerRun(300, round)
	if allocs > taggerRoundAllocs {
		t.Errorf("a tagger round allocates %.0f times, want at most %d", allocs, taggerRoundAllocs)
	} else {
		t.Logf("a tagger round allocates %.0f times (bound %d)", allocs, taggerRoundAllocs)
	}
}
