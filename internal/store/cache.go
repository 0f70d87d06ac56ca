package store

import (
	"sync"
	"sync/atomic"
)

// recordCache is the Catalog's seq-versioned decoded-record cache: typed
// records are cached after their first JSON decode and served on later hot
// reads (GetResource, GetTask, GetUser, PostsOf tails) without touching
// encoding/json at all. Writes through the Catalog invalidate by
// (table, key).
//
// Correctness against the fill race (reader decodes a stale raw value,
// writer overwrites, reader then caches the stale decode) comes from
// ordering everything by a per-table write clock and a per-table count of
// fills in flight:
//
//   - a fill enters the count, then stamps its entry with the clock read
//     BEFORE the raw value was read from the store, and leaves the count
//     after it published; publication is ordered: it never replaces an
//     entry with a newer stamp;
//   - a writer, after its store write completes, advances the clock; with
//     no fill of the table in flight it drops the key's entry, otherwise it
//     leaves a marker stamped with the new tick, which reads miss and which
//     only a fill stamped at or after the tick may replace.
//
// A stale fill read the table before the write it missed was visible, so it
// entered the count before the write looked at it: either it is still in
// flight, and the marker refuses it (or replaces what it already published),
// or it has published and left, and the drop removes what it published. It
// is never served once the write has returned. A write never drops or
// replaces an entry or marker stamped after its own tick, and a key
// written while nobody fills its table leaves nothing behind.
//
// A wholesale replacement of the store's state (a replica installing a
// snapshot) cannot name the keys it changed, so it raises a per-table
// floor instead: every clock advances and the new tick becomes the floor
// no older stamp passes — a fill stamped before the install is refused at
// publication and rejected at read time, exactly as if every key had been
// written.
//
// Cached records are stored and returned by value; callers receive copies
// of the structs, and the reference-typed fields inside them (PostRec.Tags,
// PostRec.Approved) are treated as immutable by every Catalog caller, the
// same contract raw stored values already obey.
type recordCache struct {
	size atomic.Int64
	seqs map[string]*tableClock
}

// tableClock is one table's write clock, the floor invalidateAll raised it
// to (stamps below the floor predate a wholesale replacement), its count of
// fills in flight, and its entries (key → *cacheEntry).
type tableClock struct {
	seq, floor atomic.Uint64
	fills      atomic.Int64
	entries    sync.Map
}

// cacheEntry is one decoded record stamped with the table clock observed
// before its raw value was read, or (rec nil) a write's marker stamped with
// its tick. Stored in the map by pointer: records hold slices (PostRec.Tags),
// so the ordered-publication CompareAndSwap
// must compare entry identity, not (uncomparable) entry value.
type cacheEntry struct {
	seq uint64
	rec any
}

// cacheMaxEntries bounds the cache; beyond it fills are dropped (reads fall
// back to decoding) rather than evicting, which keeps the hot working set
// resident under scan-heavy load.
const cacheMaxEntries = 1 << 20

func newRecordCache() *recordCache {
	c := &recordCache{seqs: make(map[string]*tableClock, 5)}
	for _, t := range []string{TableResources, TablePosts, TableProjects, TableTasks, TableUsers} {
		c.seqs[t] = &tableClock{}
	}
	return c
}

// clock returns the table's write clock (nil for a table the cache does not
// manage; those are never cached). The clock only ever advances, and only
// after the write it counts is visible, so a reader that loads it, reads the
// table, and later finds it unchanged has proof no write to the table
// completed in between — the invalidation signal layered caches stamp their
// entries with.
func (c *recordCache) clock(table string) *atomic.Uint64 {
	if s := c.seqs[table]; s != nil {
		return &s.seq
	}
	return nil
}

// enter starts a fill of a managed table: it joins the count of fills in
// flight and returns the stamp the fill publishes under. Pair it with a
// leave after the fill's last add.
func (c *recordCache) enter(table string) uint64 {
	s := c.seqs[table]
	s.fills.Add(1)
	return s.seq.Load()
}

func (c *recordCache) leave(table string) { c.seqs[table].fills.Add(-1) }

// get returns the cached decode of (table, key). A marker is a miss, and so
// is an entry filled before a wholesale replacement, which is dropped.
func (c *recordCache) get(table, key string) (any, bool) {
	s := c.seqs[table]
	v, ok := s.entries.Load(key)
	if !ok {
		return nil, false
	}
	e := v.(*cacheEntry)
	if e.seq < s.floor.Load() {
		c.remove(s, key, v) // filled before a wholesale replacement
		return nil, false
	}
	return e.rec, e.rec != nil
}

// add publishes a decoded record whose raw value was read after the table
// clock showed seq, by a fill between enter and leave. Publication is
// ordered: it never replaces an entry or a marker stamped after seq.
func (c *recordCache) add(table, key string, seq uint64, rec any) {
	s := c.seqs[table]
	if seq < s.floor.Load() || c.size.Load() >= cacheMaxEntries {
		return
	}
	c.publish(s, key, &cacheEntry{seq: seq, rec: rec})
}

// publish stores e under key unless the entry there is stamped after it.
func (c *recordCache) publish(s *tableClock, key string, e *cacheEntry) {
	for {
		cur, ok := s.entries.Load(key)
		if !ok {
			if _, loaded := s.entries.LoadOrStore(key, e); !loaded {
				c.size.Add(1)
				return
			}
			continue // lost the publish race; re-evaluate ordering
		}
		if cur.(*cacheEntry).seq > e.seq {
			return // a fresher fill, or a write this one may have missed
		}
		if s.entries.CompareAndSwap(key, cur, e) {
			return
		}
	}
}

// invalidate retires (table, key) after a completed write: advance the table
// clock, then drop the key's entry — or, while a fill of the table is in
// flight, leave a marker refusing every fill stamped before the new tick.
func (c *recordCache) invalidate(table, key string) {
	s := c.seqs[table]
	if s == nil {
		return
	}
	tick := s.seq.Add(1)
	if s.fills.Load() > 0 {
		c.publish(s, key, &cacheEntry{seq: tick})
	} else if v, ok := s.entries.Load(key); ok && v.(*cacheEntry).seq < tick {
		c.remove(s, key, v)
	}
}

// invalidateAll retires every cached record after the store's state was
// replaced wholesale: each table's clock advances and its floor rises to
// the new tick, so nothing stamped earlier is published or served again;
// the retired entries and markers are then dropped rather than left for a
// read to reclaim.
func (c *recordCache) invalidateAll() {
	for _, s := range c.seqs {
		s.floor.Store(s.seq.Add(1))
		s.entries.Range(func(k, _ any) bool {
			if _, loaded := s.entries.LoadAndDelete(k); loaded {
				c.size.Add(-1)
			}
			return true
		})
	}
}

// remove drops key's entry if it is still v.
func (c *recordCache) remove(s *tableClock, key string, v any) {
	if s.entries.CompareAndDelete(key, v) {
		c.size.Add(-1)
	}
}
