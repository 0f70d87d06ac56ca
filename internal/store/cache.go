package store

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// recordCache memoizes the Catalog's JSON decodes. An entry holds a decoded
// record and the stored value slice it was decoded from, and answers only a
// reader holding that same slice, just read from the store.
//
// The store never mutates a value in place: a commit, a replicated frame, a
// snapshot install and recovery each install freshly allocated bytes, and an
// entry keeps the bytes it names alive, so no other value can occupy them.
// A matching entry is therefore a decode of exactly the reader's bytes, and
// any other entry is a miss the reader fills with its own decode. A read
// returns what the store showed the reader whatever order fills and writes
// land in: an older fill published over a newer one costs the next reader a
// decode, never a stale answer. A write still drops its key's entry, and a
// snapshot install drops them all, only so the cache does not pin the
// commit buffers of superseded values.
//
// Records are returned by value; their reference-typed fields (PostRec.Tags,
// PostRec.Approved) are treated as immutable by every Catalog caller, the
// same contract raw stored values obey.
type recordCache struct {
	size   atomic.Int64
	tables map[string]*cacheTable
}

// cacheTable is one table's write clock and its entries (key → *cacheEntry).
type cacheTable struct {
	clock   atomic.Uint64
	entries sync.Map
}

// cacheEntry is one decoded record and the stored slice it was decoded from.
type cacheEntry struct {
	raw []byte
	rec any
}

// cacheMaxEntries bounds the cache; beyond it fills are dropped (reads fall
// back to decoding) rather than evicting, which keeps the hot working set
// resident under scan-heavy load.
const cacheMaxEntries = 1 << 20

func newRecordCache() *recordCache {
	c := &recordCache{tables: make(map[string]*cacheTable, 5)}
	for _, t := range []string{TableResources, TablePosts, TableProjects, TableTasks, TableUsers} {
		c.tables[t] = &cacheTable{}
	}
	return c
}

// clock returns the table's write clock (see Catalog.Clock); nil for a table
// the cache does not manage.
func (c *recordCache) clock(table string) *atomic.Uint64 {
	if t := c.tables[table]; t != nil {
		return &t.clock
	}
	return nil
}

// get returns the cached decode of (table, key) if it was decoded from raw,
// the very slice the caller just read from the store.
func (c *recordCache) get(table, key string, raw []byte) (any, bool) {
	v, ok := c.tables[table].entries.Load(key)
	if !ok {
		return nil, false
	}
	e := v.(*cacheEntry)
	return e.rec, len(raw) > 0 && len(e.raw) == len(raw) && &e.raw[0] == &raw[0]
}

// add publishes rec as the decode of raw under (table, key), replacing
// whatever entry is there.
func (c *recordCache) add(table, key string, raw []byte, rec any) {
	if c.size.Load() >= cacheMaxEntries {
		return
	}
	if _, loaded := c.tables[table].entries.Swap(key, &cacheEntry{raw: raw, rec: rec}); !loaded {
		c.size.Add(1)
	}
}

// invalidate follows a completed write of (table, key): the table clock
// advances and the key's entry is dropped.
func (c *recordCache) invalidate(table, key string) {
	t := c.tables[table]
	if t == nil {
		return
	}
	t.clock.Add(1)
	c.remove(t, key)
}

// invalidateAll follows a wholesale replacement of the store's state: every
// table clock advances and every entry is dropped.
func (c *recordCache) invalidateAll() {
	for _, t := range c.tables {
		t.clock.Add(1)
		t.entries.Range(func(k, _ any) bool {
			c.remove(t, k.(string))
			return true
		})
	}
}

func (c *recordCache) remove(t *cacheTable, key string) {
	if _, loaded := t.entries.LoadAndDelete(key); loaded {
		c.size.Add(-1)
	}
}

// rawValue is the out type through which catGet asks Store.Get for the
// stored bytes themselves: DB.Get hands over its slice undecoded. A Store
// that reaches no DB decodes into it as into a json.RawMessage, a private
// copy, which the cache decodes afresh on every read.
type rawValue struct{ json.RawMessage }
