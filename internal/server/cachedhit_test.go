package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// A cached ResourceDetail hit is the read the interactive loop of paper §III
// repeats most: every provider dashboard refresh is one. Through the whole
// handler chain (mux, middleware, encoded-response cache) it stays under
// cachedHitAllocs allocations, on the 200 path and on the If-None-Match 304
// path, and BenchmarkCachedDetailHit holds its p99 to cachedHitP99.
const (
	cachedHitAllocs = 10
	cachedHitP99    = 10 * time.Microsecond
	cachedHitPass   = 5000 // hits per timed pass; the p99 is the better of two passes
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// discardWriter throws the body away and reuses one header map across
// requests, so a measurement counts the serving path itself; a real
// listener's per-connection header map is the transport's cost.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// cachedHit is a server over 1 000 resources × 10 seeded posts whose screen
// of res-0000 is in the response cache, and the two requests that hit it.
type cachedHit struct {
	srv         *Server
	get, notMod *http.Request
	w           *discardWriter
}

// newCachedHit provisions the world, mounts a server with default options
// and warms the entry: the first request fills it, the second must hit it.
// The requests carry X-Request-Id, so the ID fast path (no mint, no context
// value) is on, as it is behind any real load balancer.
func newCachedHit(tb testing.TB) *cachedHit {
	tb.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 7)
	tb.Cleanup(svc.Close)
	ctx := context.Background()
	provider, err := svc.RegisterProvider(ctx, "provider")
	if err != nil {
		tb.Fatal(err)
	}
	spec := core.ProjectSpec{ProviderID: provider, Name: "serving", Budget: 10000, PayPerTask: 0.05,
		Strategy: "random", SeedPosts: make(map[string][][]string)}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("res-%04d", i)
		spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Name: id, Popularity: 1})
		for p := 0; p < 10; p++ {
			spec.SeedPosts[id] = append(spec.SeedPosts[id], []string{"go", fmt.Sprintf("topic-%d", i%13), fmt.Sprintf("tag-%d", (i+p)%29)})
		}
	}
	project, err := svc.CreateProject(ctx, spec)
	if err != nil {
		tb.Fatal(err)
	}
	h := &cachedHit{srv: NewWith(svc, Options{}), w: &discardWriter{hdr: make(http.Header, 8)}}
	path := "/api/v1/projects/" + project + "/resources/res-0000"
	h.get = httptest.NewRequest(http.MethodGet, path, nil)
	h.get.Header.Set("X-Request-Id", "cached-hit")
	if h.serve(h.get); h.w.status != http.StatusOK {
		tb.Fatalf("warm request: status %d", h.w.status)
	}
	before := h.srv.RespCacheStats()
	if h.serve(h.get); h.srv.RespCacheStats().Hits == before.Hits {
		tb.Fatalf("the second request did not hit the response cache (stats %+v)", h.srv.RespCacheStats())
	}
	h.notMod = httptest.NewRequest(http.MethodGet, path, nil)
	h.notMod.Header.Set("X-Request-Id", "cached-hit")
	h.notMod.Header.Set("If-None-Match", h.w.hdr.Get("Etag"))
	return h
}

func (h *cachedHit) serve(r *http.Request) { h.srv.ServeHTTP(h.w, r) }

// p99 times one pass of cachedHitPass hits.
func (h *cachedHit) p99() time.Duration {
	lat := make([]time.Duration, cachedHitPass)
	for i := range lat {
		t0 := time.Now()
		h.serve(h.get)
		lat[i] = time.Since(t0)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[cachedHitPass*99/100]
}

// TestCachedDetailHitAllocs pins a cached ResourceDetail hit and its 304
// revalidation under cachedHitAllocs allocations each.
func TestCachedDetailHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops items at random under -race, so allocation counts are not the product's")
	}
	h := newCachedHit(t)
	for _, c := range []struct {
		name   string
		req    *http.Request
		status int
	}{{"hit", h.get, http.StatusOK}, {"If-None-Match", h.notMod, http.StatusNotModified}} {
		allocs := testing.AllocsPerRun(500, func() { h.serve(c.req) })
		if h.w.status != c.status {
			t.Errorf("%s: status %d, want %d", c.name, h.w.status, c.status)
		}
		if allocs >= cachedHitAllocs {
			t.Errorf("%s: %.1f allocs/op, want < %d", c.name, allocs, cachedHitAllocs)
		}
	}
}

// BenchmarkCachedDetailHit reports a cached ResourceDetail hit's cost and
// its p99, the better of two timed passes so one GC pause on a shared host
// does not decide it, and fails if that p99 exceeds cachedHitP99.
func BenchmarkCachedDetailHit(b *testing.B) {
	h := newCachedHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.serve(h.get)
	}
	b.StopTimer()
	p99 := min(h.p99(), h.p99())
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
	if p99 > cachedHitP99 {
		b.Errorf("cached hit p99 %v, want at most %v", p99, cachedHitP99)
	}
}
