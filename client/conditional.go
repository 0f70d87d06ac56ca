package client

import (
	"reflect"
	"slices"
	"sync"
)

// validatorCache is what makes a refresh cost what changed: for each GET
// URL (server address + path — a validator is only good on the node that
// minted it) whose last 200 carried an ETag it keeps the validator and the
// DECODED response, so the next call revalidates with If-None-Match and a
// 304 is answered from memory — no body to read, nothing to decode. Every
// Client built by New has one, shared by the copies derived from it
// (WithHeader, WithRetry), so they benefit from each other's validators; a
// ClusterClient has one for all its copies and all the nodes it talks to.
//
// A validator is re-checked by the server on every use (the cached routes
// answer Cache-Control: no-cache), so freshness is the server's guarantee,
// not this cache's: an entry is only ever a way to skip a transfer the
// server has just said would be byte-for-byte the same.
//
// Retention is bounded in bytes (validatorCacheBytes), weighed by the wire
// length of the 200 that produced each entry; a response larger than the
// whole bound is simply not retained, and making room drops entries in no
// particular order (a dropped entry costs one full fetch, nothing else).
type validatorCache struct {
	mu      sync.Mutex
	entries map[string]*validated
	bytes   int64
}

// validated is one retained response. value is a pointer to the cache's own
// copy; callers are handed copies of it (copyResponse), never the value.
type validated struct {
	etag  string
	value any
	size  int64
}

// validatorCacheBytes bounds what one Client or one ClusterClient (and its
// derived copies) retains: 8 MiB holds a thousand resource screens and every
// 50-row export page of a large project many times over.
const validatorCacheBytes = 8 << 20

func (c *validatorCache) get(key string) *validated {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// put retains a copy of the response a 200 for key (a request URL) decoded
// into out, under the validator it carried. Whatever was kept for key before
// is dropped either way: its validator has just been answered 200.
func (c *validatorCache) put(key, etag string, out any, size int64) {
	var e *validated
	if size <= validatorCacheBytes {
		kept := reflect.New(reflect.TypeOf(out).Elem()).Interface()
		if copyResponse(kept, out) {
			e = &validated{etag: etag, value: kept, size: size}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[key]; old != nil {
		c.bytes -= old.size
		delete(c.entries, key)
	}
	if e == nil {
		return
	}
	for k, old := range c.entries {
		if c.bytes+e.size <= validatorCacheBytes {
			break
		}
		c.bytes -= old.size
		delete(c.entries, k)
	}
	if c.entries == nil {
		c.entries = make(map[string]*validated)
	}
	c.entries[key] = e
	c.bytes += e.size
}

// copyResponse deep-copies *src into *dst when both point to the same
// retained response type — the types of the routes the server validates —
// and reports whether it did. The copy shares no mutable memory with src:
// a caller may edit what it was handed, slices included, without touching
// the cache's value or any other caller's. A reference-typed field added to
// one of these types must be cloned here; TestCopyResponseSharesNothing
// fails until it is.
func copyResponse(dst, src any) bool {
	switch s := src.(type) {
	case *ProjectInfo:
		d, ok := dst.(*ProjectInfo)
		if ok {
			*d = *s
		}
		return ok
	case *ResourceStatus:
		d, ok := dst.(*ResourceStatus)
		if ok {
			*d = *s
			d.Series = slices.Clone(s.Series)
			d.TopTags = slices.Clone(s.TopTags)
		}
		return ok
	case *ExportPage:
		d, ok := dst.(*ExportPage)
		if ok {
			*d = *s
			d.Items = slices.Clone(s.Items)
			// Every row's tags in one array, each row's capacity-capped so an
			// append to it reallocates instead of writing over the next row.
			n := 0
			for _, r := range s.Items {
				n += len(r.TopTags)
			}
			all := make([]TagFreq, 0, n) // not nil even when n is 0: [] stays []
			for i := range d.Items {
				if t := d.Items[i].TopTags; t != nil {
					a := len(all)
					all = append(all, t...)
					d.Items[i].TopTags = all[a:len(all):len(all)]
				}
			}
		}
		return ok
	}
	return false
}
