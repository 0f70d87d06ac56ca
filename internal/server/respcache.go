package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"itag/internal/api"
)

// respCache is the encoded-response cache behind the hot GET routes
// (project dashboard, resource detail, export pages): complete JSON
// bodies keyed by route parameters and stamped with the service's serve
// version (core.Service.ServeVersion — the catalog's summed table write
// clocks plus the run-state epoch). A hit is lookup → header-map
// assignment → one body write; no handler, no encode, no allocation.
//
// Correctness is the decoded record cache's protocol lifted one layer
// up, simplified by the single global version:
//
//   - a fill captures the version BEFORE computing the response, stamps
//     the entry with it, publishes, then RE-READS the version: if it
//     moved, the fill raced a write and the entry is dropped;
//   - every completed mutation advances the version strictly after its
//     state change (catalog writes via the table clocks, run-state flips
//     via the runs epoch);
//   - a hit is served only while the entry's stamp equals the current
//     version.
//
// So a served entry — and in particular a 304 revalidation — proves no
// write completed between the response's encode and its answer; the body
// can only "miss" mutations that had not yet been acknowledged to any
// writer, which an uncached read racing the same writer could equally
// have missed. Engine-internal transients (a step's in-flight allocation
// counters) ride on the posts clock their step bumps continuously.
//
// Versions count from zero in every process and on every node, so a
// validator is only meaningful to the cache that minted it: the ETag
// carries a per-cache nonce, and a tag from a previous incarnation of this
// server, or from another node serving the same key (a slot's leader and
// its followers each keep their own cache), never matches here — it draws
// a 200, not a 304 over whatever body happens to share its number.
//
// Capacity is byte-bounded with approximate LRU eviction; entries also
// count their hits, and write handlers call maybeRefresh so hot entries
// are re-encoded at write time instead of missing on their next read.
type respCache struct {
	version  func() uint64
	maxBytes int64
	nonce    string // scopes this cache's ETags; see newRespCache

	mu      sync.RWMutex
	entries map[respKey]*respEntry
	bytes   int64

	tick      atomic.Int64 // LRU clock: bumped on every hit and fill
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	refreshes atomic.Int64
}

// respKind names the cached route families.
type respKind uint8

const (
	respProject respKind = iota // GET /api/v1/projects/{id}
	respDetail                  // GET /api/v1/projects/{id}/resources/{rid}
	respExport                  // GET /api/v1/projects/{id}/export
)

// respKey identifies one cacheable response: the route family, the
// project id, and the route's remaining variability (resource id for
// details, the raw query string for paginated exports). Struct keys keep
// the hit-path map lookup allocation-free — no string concatenation.
type respKey struct {
	kind respKind
	a, b string
}

// respEntry is one published response: the 200 and 304 Raw forms share
// the precomputed header value slices, so both hit paths are copy-free.
type respEntry struct {
	seq     uint64
	size    int64
	etag    string
	raw     *api.Raw // 200: body + ETag + Cache-Control + Content-Length
	notMod  *api.Raw // 304: ETag + Cache-Control only
	hits    atomic.Int64
	lastHit atomic.Int64
}

// respHotHits is the hit count past which a write-path refresh considers
// an entry hot enough to re-encode eagerly.
const respHotHits = 4

// defaultRespCacheBytes bounds the cache when Options.RespCacheBytes is
// zero: 8 MiB holds the full hot set of the serving benchmark (1k
// resource details plus dashboards) several times over.
const defaultRespCacheBytes = 8 << 20

func newRespCache(version func() uint64, maxBytes int64) *respCache {
	if maxBytes == 0 {
		maxBytes = defaultRespCacheBytes
	}
	// 48 random bits: enough that two caches a client can confuse (the
	// nodes of one slot, the restarts of one server) never share a nonce.
	var nonce [6]byte
	_, _ = rand.Read(nonce[:]) // crypto/rand.Read does not fail
	return &respCache{
		version:  version,
		maxBytes: maxBytes,
		nonce:    hex.EncodeToString(nonce[:]),
		entries:  make(map[respKey]*respEntry),
	}
}

func (rc *respCache) newEntry(seq uint64, body []byte, key respKey) *respEntry {
	etag := fmt.Sprintf("\"%s-%d-%x\"", rc.nonce, seq, len(body))
	etagVal := []string{etag}
	cc := api.NoCacheValue()
	e := &respEntry{
		seq:  seq,
		etag: etag,
		// Body bytes plus map-entry and header bookkeeping overhead.
		size: int64(len(body)+2*len(etag)+len(key.a)+len(key.b)) + 160,
		raw: &api.Raw{
			Body: body, Seq: seq, ETag: etagVal, CacheControl: cc,
			ContentLength: []string{strconv.Itoa(len(body))},
		},
		notMod: &api.Raw{Status: http.StatusNotModified, Seq: seq, ETag: etagVal, CacheControl: cc},
	}
	return e
}

// get looks the key up under the current version. v is the version
// captured BEFORE any state read the caller makes on a miss (e == nil) —
// the stamp its fill must carry.
func (rc *respCache) get(k respKey) (e *respEntry, v uint64) {
	v = rc.version()
	rc.mu.RLock()
	e = rc.entries[k]
	rc.mu.RUnlock()
	if e != nil && e.seq == v {
		e.hits.Add(1)
		e.lastHit.Store(rc.tick.Add(1))
		rc.hits.Add(1)
		return e, v
	}
	rc.misses.Add(1)
	return nil, v
}

// put publishes a response encoded at version seq, then rechecks the
// version: published=false means a write completed during the fill and
// the entry was withdrawn (its Raw forms are still valid to answer the
// one request that built it — stamped with the version its bytes truly
// reflect — it just must not be revalidated against).
//
// Concurrent fills of one key need no ordered publication here: whichever
// entry is published last, its recheck (or the next get's stamp check)
// retires it unless its stamp still equals the global version, and two
// fills with the same stamp carry identical bytes.
func (rc *respCache) put(k respKey, seq uint64, body []byte) (e *respEntry, published bool) {
	e = rc.newEntry(seq, body, k)
	if rc.maxBytes > 0 && e.size > rc.maxBytes {
		return e, false
	}
	rc.mu.Lock()
	if old := rc.entries[k]; old != nil {
		rc.bytes -= old.size
	}
	rc.entries[k] = e
	rc.bytes += e.size
	e.lastHit.Store(rc.tick.Add(1))
	rc.evictLocked(e)
	rc.mu.Unlock()
	if rc.version() != seq {
		rc.withdraw(k, e)
		return e, false
	}
	return e, true
}

// withdraw removes the entry if it is still the one published under k.
func (rc *respCache) withdraw(k respKey, e *respEntry) {
	rc.mu.Lock()
	if rc.entries[k] == e {
		delete(rc.entries, k)
		rc.bytes -= e.size
	}
	rc.mu.Unlock()
}

// evictLocked trims least-recently-hit entries until the byte budget
// holds, never evicting keep (the entry just published).
func (rc *respCache) evictLocked(keep *respEntry) {
	for rc.bytes > rc.maxBytes && len(rc.entries) > 1 {
		var oldestKey respKey
		var oldest *respEntry
		for k, e := range rc.entries {
			if e == keep {
				continue
			}
			if oldest == nil || e.lastHit.Load() < oldest.lastHit.Load() {
				oldestKey, oldest = k, e
			}
		}
		if oldest == nil {
			return
		}
		delete(rc.entries, oldestKey)
		rc.bytes -= oldest.size
		rc.evictions.Add(1)
	}
}

// maybeRefresh re-encodes a hot resident entry at write time so the keys
// the workload hammers never miss: called by write handlers after their
// mutation completed. Cold or absent keys are left to fault in on the
// next read; a compute or encode failure just drops the stale entry.
func (rc *respCache) maybeRefresh(k respKey, compute func() (any, error)) {
	if rc == nil {
		return
	}
	rc.mu.RLock()
	e := rc.entries[k]
	rc.mu.RUnlock()
	if e == nil || e.hits.Load() < respHotHits {
		return
	}
	v0 := rc.version()
	if e.seq == v0 {
		return // already fresh
	}
	val, err := compute()
	if err == nil {
		var body []byte
		if body, err = api.AppendJSON(nil, val); err == nil {
			if ne, published := rc.put(k, v0, body); published {
				ne.hits.Store(e.hits.Load()) // carry hotness across the refresh
				rc.refreshes.Add(1)
				return
			}
		}
	}
	rc.withdraw(k, e)
}

// stats snapshots the cache counters.
func (rc *respCache) stats() RespCacheStats {
	if rc == nil {
		return RespCacheStats{}
	}
	rc.mu.RLock()
	entries, bytes := int64(len(rc.entries)), rc.bytes
	rc.mu.RUnlock()
	return RespCacheStats{
		Hits:      rc.hits.Load(),
		Misses:    rc.misses.Load(),
		Evictions: rc.evictions.Load(),
		Refreshes: rc.refreshes.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}

// RespCacheStats reports the encoded-response cache counters (all zero
// when the cache is disabled).
type RespCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Refreshes int64 `json:"refreshes"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// families renders the cache counters as Prometheus families, one sample
// each under the given labels.
func (rc *respCache) families(labels []api.Label) []api.Family {
	st := rc.stats()
	one := func(name, help, typ string, v int64) api.Family {
		return api.Family{Name: name, Help: help, Type: typ, Samples: []api.Sample{{Labels: labels, Value: float64(v)}}}
	}
	return []api.Family{
		one("itag_respcache_hits_total", "Encoded-response cache hits.", api.TypeCounter, st.Hits),
		one("itag_respcache_misses_total", "Encoded-response cache misses (including version-expired entries).", api.TypeCounter, st.Misses),
		one("itag_respcache_evictions_total", "Entries evicted to hold the byte budget.", api.TypeCounter, st.Evictions),
		one("itag_respcache_refreshes_total", "Hot entries re-encoded at write time.", api.TypeCounter, st.Refreshes),
		one("itag_respcache_entries", "Resident encoded responses.", api.TypeGauge, st.Entries),
		one("itag_respcache_bytes", "Bytes held by resident encoded responses.", api.TypeGauge, st.Bytes),
	}
}

// --- cached route handlers ------------------------------------------------------

// cachedJSON adapts a compute function into a cached GET handler: serve
// the published entry (or its 304 form under a matching If-None-Match) and
// fill on miss. With the cache switched off (Options.RespCacheBytes < 0)
// every request is a plain pooled encode — byte-identical, just without
// ETags.
func (s *Server) cachedJSON(kind respKind, keyB func(*http.Request) string, compute func(*http.Request) (any, error)) http.HandlerFunc {
	return api.Handle(s.kit, http.StatusOK, func(r *http.Request, _ api.None) (*api.Raw, error) {
		var e *respEntry
		var v uint64
		k := respKey{kind: kind, a: r.PathValue("id"), b: keyB(r)}
		if s.resp != nil {
			e, v = s.resp.get(k)
		}
		if e == nil {
			val, err := compute(r)
			if err != nil {
				return nil, err
			}
			body, err := api.AppendJSON(nil, val)
			if err != nil {
				return nil, err
			}
			if s.resp == nil {
				return &api.Raw{Body: body}, nil
			}
			var published bool
			if e, published = s.resp.put(k, v, body); !published {
				// The fill raced a write: answer with the bytes this
				// request computed, but never revalidate against them.
				return e.raw, nil
			}
		}
		if api.ETagMatch(r, e.etag) {
			return e.notMod, nil
		}
		return e.raw, nil
	})
}

// emptyKeyB / queryKeyB are the per-route key variability extractors.
func emptyKeyB(*http.Request) string   { return "" }
func queryKeyB(r *http.Request) string { return r.URL.RawQuery }
func ridKeyB(r *http.Request) string   { return r.PathValue("rid") }

// refreshProject pre-encodes the project dashboard entry after a write
// touching the project, if it is resident and hot.
func (s *Server) refreshProject(projectID string) {
	if s.resp == nil {
		return
	}
	s.resp.maybeRefresh(respKey{kind: respProject, a: projectID}, func() (any, error) {
		return s.svc.Project(context.Background(), projectID)
	})
}

// refreshResource pre-encodes a resource's detail entry (and the project
// dashboard) after a write touching the resource.
func (s *Server) refreshResource(projectID, resourceID string) {
	if s.resp == nil {
		return
	}
	s.resp.maybeRefresh(respKey{kind: respDetail, a: projectID, b: resourceID}, func() (any, error) {
		return s.svc.ResourceDetail(context.Background(), projectID, resourceID)
	})
	s.refreshProject(projectID)
}
