package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"itag/internal/api"
	"itag/internal/core"
)

// respCache is the encoded-response cache behind the hot GET routes
// (project dashboard, resource detail, export pages): complete JSON
// bodies keyed by route parameters and stamped with the write clocks of
// what they show (core.Stamp) — an entry is valid while nothing it shows
// was written. A hit is lookup → one atomic load per clock → header-map
// assignment → the body's writes; no handler, no encode, no allocation.
//
// An export page is held as its rows: a fixed head, each row's bytes as
// the core keeps them beside the row's clock, and a tail, written in order
// under their summed Content-Length. A fill re-encodes only the rows whose
// clock or name moved since they were last encoded, and copies none.
//
// What a route's compute reads, its stamp records, each clock before the
// state it guards:
//
//   - GET project: the projects-table clock (the record), the service's run
//     epoch (which run answers) and the run's engine clock (spent,
//     pending, mean stability/oracle, strategy — every engine mutation);
//   - GET resource: that resource's engine clock (no run, no answer; and an
//     installed run is never swapped, so the epoch has nothing to say);
//   - an export page: the run epoch and the engine clock of each row it
//     shows (a project's rows and their names are fixed by the commit that
//     creates it, so no table clock guards them).
//
// So a post on resource R retires the dashboard, R's screen and the one
// page holding R, and nothing else in this project or any other. An answer
// given without a live run (a follower's, a finished project's) reads the
// catalog and stamps the table clocks it read plus the epoch.
//
// Correctness is the decoded record cache's protocol lifted one layer up:
//
//   - a fill records each clock BEFORE reading what it guards, publishes
//     the entry, then RE-READS the clocks: if any moved, the fill raced a
//     write and the entry is withdrawn;
//   - every clock only advances, and only once the change it counts is
//     visible (table clocks after the store write, the run epoch after the
//     run is installed, engine clocks in the Engine.mu critical section of
//     the change);
//   - a hit is served only while the entry's clocks still sum to its stamp
//     — monotone clocks make "sum unchanged" the same as "none moved".
//
// So a served entry — and in particular a 304 revalidation — proves no
// write to anything the body shows completed between the response's encode
// and its answer; the body can only "miss" mutations that had not yet been
// acknowledged to any writer, which an uncached read racing the same writer
// could equally have missed.
//
// An ETag must name exactly one body of one key in one cache. Stamps cannot
// do that — the sums of two different clock sets can collide — so the tag's
// middle term is a per-cache fill counter, and its first a per-cache nonce:
// clocks and counters start from zero in every process and on every node,
// and a tag from a previous incarnation of this server, or from another
// node serving the same key (a slot's leader and its followers each keep
// their own cache), never matches here — it draws a 200, not a 304 over
// whatever body happens to share its number.
//
// Capacity is byte-bounded with approximate LRU eviction. A write only
// retires the entries that show what it wrote; the next read of one of them
// fills it again.
type respCache struct {
	maxBytes int64
	nonce    string        // scopes this cache's ETags; see newRespCache
	fills    atomic.Uint64 // entries minted: the ETag's middle term

	mu      sync.RWMutex
	entries map[respKey]*respEntry
	bytes   int64

	tick        atomic.Int64 // LRU clock: bumped on every hit and fill
	hits        atomic.Int64
	misses      atomic.Int64
	notModified atomic.Int64
	evictions   atomic.Int64
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
	stamp   core.Stamp
	size    int64
	etag    string
	raw     *api.Raw // 200: body + ETag + Cache-Control + Content-Length
	notMod  *api.Raw // 304: ETag + Cache-Control only
	lastHit atomic.Int64
}

// defaultRespCacheBytes bounds the cache when Options.RespCacheBytes is
// zero: 8 MiB holds the full hot set of the serving benchmark (1k
// resource details plus dashboards) several times over.
const defaultRespCacheBytes = 8 << 20

func newRespCache(maxBytes int64) *respCache {
	if maxBytes == 0 {
		maxBytes = defaultRespCacheBytes
	}
	// 48 random bits: enough that two caches a client can confuse (the
	// nodes of one slot, the restarts of one server) never share a nonce.
	var nonce [6]byte
	_, _ = rand.Read(nonce[:]) // crypto/rand.Read does not fail
	return &respCache{
		maxBytes: maxBytes,
		nonce:    hex.EncodeToString(nonce[:]),
		entries:  make(map[respKey]*respEntry),
	}
}

// newEntry makes raw, a 200 holding only its body, the entry of k: it
// gains the entry's ETag, Cache-Control and Content-Length.
func (rc *respCache) newEntry(stamp core.Stamp, raw *api.Raw, key respKey) *respEntry {
	n := raw.Len()
	etag := fmt.Sprintf("\"%s-%d-%x\"", rc.nonce, rc.fills.Add(1), n)
	etagVal := []string{etag}
	cc := api.NoCacheValue()
	raw.ETag, raw.CacheControl, raw.ContentLength = etagVal, cc, []string{strconv.Itoa(n)}
	return &respEntry{
		stamp: stamp,
		etag:  etag,
		// Body bytes, piece headers and stamp plus map-entry and header
		// bookkeeping overhead.
		size:   int64(n+24*len(raw.Parts)+2*len(etag)+len(key.a)+len(key.b)+8*stamp.Len()) + 160,
		raw:    raw,
		notMod: &api.Raw{Status: http.StatusNotModified, ETag: etagVal, CacheControl: cc},
	}
}

// get returns the key's entry while nothing it shows has been written
// since its fill, nil otherwise.
func (rc *respCache) get(k respKey) *respEntry {
	rc.mu.RLock()
	e := rc.entries[k]
	rc.mu.RUnlock()
	if e != nil && e.stamp.Current() {
		e.lastHit.Store(rc.tick.Add(1))
		rc.hits.Add(1)
		return e
	}
	rc.misses.Add(1)
	return nil
}

// put publishes a response whose compute recorded stamp, then rechecks the
// stamp: published=false means a write to something the body shows
// completed during the fill and the entry was withdrawn (its Raw forms are
// still valid to answer the one request that built it, it just must not be
// revalidated against).
//
// Concurrent fills of one key need no ordered publication here: whichever
// entry is published last, its recheck (or the next get's) retires it
// unless every clock it read still stands, and two fills that read the
// same clock values carry identical bytes.
func (rc *respCache) put(k respKey, stamp core.Stamp, raw *api.Raw) (e *respEntry, published bool) {
	e = rc.newEntry(stamp, raw, k)
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
	if !e.stamp.Current() {
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

// stats snapshots the cache counters.
func (rc *respCache) stats() RespCacheStats {
	if rc == nil {
		return RespCacheStats{}
	}
	rc.mu.RLock()
	entries, bytes := int64(len(rc.entries)), rc.bytes
	rc.mu.RUnlock()
	return RespCacheStats{
		Hits:        rc.hits.Load(),
		Misses:      rc.misses.Load(),
		NotModified: rc.notModified.Load(),
		Evictions:   rc.evictions.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// RespCacheStats reports the encoded-response cache counters (all zero
// when the cache is disabled).
type RespCacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	NotModified int64 `json:"not_modified"` // hits answered 304
	Evictions   int64 `json:"evictions"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// CollectRespCache writes the encoded-response cache counters into x, one
// sample each, with labels ahead. A cluster node collects only these of a
// replica stack: its store's counters would add the slot's replicated writes
// to the node's own.
func (s *Server) CollectRespCache(x *api.Exposition, labels ...api.Label) {
	if s.resp == nil {
		return
	}
	st := s.resp.stats()
	x.Counter("itag_respcache_hits_total", "Encoded-response cache hits.", float64(st.Hits), labels...)
	x.Counter("itag_respcache_misses_total", "Encoded-response cache misses (including entries retired by a write to what they show).", float64(st.Misses), labels...)
	x.Counter("itag_respcache_not_modified_total", "Encoded-response cache hits answered 304 Not Modified.", float64(st.NotModified), labels...)
	x.Counter("itag_respcache_evictions_total", "Entries evicted to hold the byte budget.", float64(st.Evictions), labels...)
	x.Gauge("itag_respcache_entries", "Resident encoded responses.", float64(st.Entries), labels...)
	x.Gauge("itag_respcache_bytes", "Bytes held by resident encoded responses.", float64(st.Bytes), labels...)
}

// --- cached route handlers ------------------------------------------------------

// cachedJSON adapts a compute function into a cached GET handler: serve
// the published entry (or its 304 form under a matching If-None-Match) and
// fill on miss. A compute returns the value to encode, or a body already
// in pieces (pageParts, an export page), which the entry keeps as it is.
// With the cache switched off (Options.RespCacheBytes < 0) every request
// is a plain fill — byte-identical, just without ETags.
func (s *Server) cachedJSON(kind respKind, keyB func(*http.Request) string, compute func(*http.Request, *core.Stamp) (any, error)) http.HandlerFunc {
	return api.Handle(s.kit, http.StatusOK, func(r *http.Request, _ api.None) (*api.Raw, error) {
		var e *respEntry
		k := respKey{kind: kind, a: r.PathValue("id"), b: keyB(r)}
		if s.resp != nil {
			e = s.resp.get(k)
		}
		if e == nil {
			var stamp *core.Stamp
			if s.resp != nil {
				stamp = new(core.Stamp)
			}
			val, err := compute(r, stamp)
			if err != nil {
				return nil, err
			}
			raw := new(api.Raw)
			if parts, ok := val.(pageParts); ok {
				raw.Parts = parts
			} else if raw.Body, err = api.AppendJSON(nil, val); err != nil {
				return nil, err
			}
			if s.resp == nil {
				return raw, nil
			}
			var published bool
			if e, published = s.resp.put(k, *stamp, raw); !published {
				// The fill raced a write: answer with the bytes this
				// request computed, but never revalidate against them.
				return e.raw, nil
			}
		}
		if api.ETagMatch(r, e.etag) {
			s.resp.notModified.Add(1)
			return e.notMod, nil
		}
		return e.raw, nil
	})
}

// emptyKeyB / queryKeyB are the per-route key variability extractors.
func emptyKeyB(*http.Request) string   { return "" }
func queryKeyB(r *http.Request) string { return r.URL.RawQuery }
func ridKeyB(r *http.Request) string   { return r.PathValue("rid") }
