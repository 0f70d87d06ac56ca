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
// ordering everything by a per-table write clock:
//
//   - a fill stamps its entry with the clock read BEFORE the raw value
//     was read from the store, and publication is ordered: it never
//     replaces an entry with an equal-or-newer stamp;
//   - a writer, after its store write completes, advances the clock and
//     records the new tick as the key's last-write sequence, then drops
//     the entry;
//   - a hit is served only if the key's last-write sequence does not
//     exceed the entry's stamp — and once one fill validates, the
//     last-write record is pruned, because ordered publication stops any
//     older in-flight fill from ever replacing the validated entry.
//
// A stale fill necessarily stamped its entry before the write it missed
// advanced the clock, so it is either refused at publication (a newer
// entry or last-write record exists) or rejected and dropped at read
// time — it is never served, even if it lands after the write finished.
// The pruning keeps last-write records transient for any key that is read
// again; keys written and never re-read hold one pending record until
// their next read, bounded by the table's live key count.
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
	entries   sync.Map // table + "\x00" + key → *cacheEntry
	lastWrite sync.Map // table + "\x00" + key → uint64 clock tick of the last write, pruned on validated read
	size      atomic.Int64
	seqs      map[string]*tableClock
}

// tableClock is one table's write clock and the floor invalidateAll raised
// it to: stamps below the floor predate a wholesale replacement.
type tableClock struct {
	seq, floor atomic.Uint64
}

// cacheEntry is one decoded record stamped with the table clock observed
// before its raw value was read. Stored in the map by pointer: records
// hold slices (PostRec.Tags), so the ordered-publication CompareAndSwap
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

func cacheKey(table, key string) string { return table + "\x00" + key }

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

// seq returns the table's current write clock (0 for an unmanaged table).
func (c *recordCache) seq(table string) uint64 {
	if s := c.clock(table); s != nil {
		return s.Load()
	}
	return 0
}

// get returns the cached decode of (table, key), validating the entry's
// stamp against the key's last-write record. An entry published by a fill
// that lost a race with a writer fails validation and is dropped; a
// validated hit prunes the last-write record (ordered publication keeps
// older fills out for good).
func (c *recordCache) get(table, key string) (any, bool) {
	k := cacheKey(table, key)
	v, ok := c.entries.Load(k)
	if !ok {
		return nil, false
	}
	e := v.(*cacheEntry)
	if e.seq < c.seqs[table].floor.Load() {
		c.remove(table, key) // filled before a wholesale replacement
		return nil, false
	}
	if lw, written := c.lastWrite.Load(k); written {
		if lw.(uint64) > e.seq {
			c.remove(table, key) // stale fill that raced a write; never serve it
			return nil, false
		}
		// Prune exactly the record we validated against — a concurrent
		// invalidate may already have pinned a newer tick, which must
		// survive to reject that write's in-flight fills.
		c.lastWrite.CompareAndDelete(k, lw)
	}
	return e.rec, true
}

// add publishes a decoded record whose raw value was read after the table
// clock showed seq. Publication is ordered: a fill never replaces an
// equal-or-newer entry and is refused outright when the key's last-write
// record postdates it.
func (c *recordCache) add(table, key string, seq uint64, rec any) {
	s := c.seqs[table]
	if s == nil || seq < s.floor.Load() || c.size.Load() >= cacheMaxEntries {
		return
	}
	k := cacheKey(table, key)
	e := &cacheEntry{seq: seq, rec: rec}
	for {
		cur, ok := c.entries.Load(k)
		if !ok {
			if lw, written := c.lastWrite.Load(k); written && lw.(uint64) > seq {
				return // a completed write supersedes this fill
			}
			if _, loaded := c.entries.LoadOrStore(k, e); !loaded {
				c.size.Add(1)
				return
			}
			continue // lost the publish race; re-evaluate ordering
		}
		if cur.(*cacheEntry).seq >= seq {
			return // an equal-or-fresher fill is already published
		}
		if c.entries.CompareAndSwap(k, cur, e) {
			return
		}
	}
}

// invalidate drops (table, key) after a completed write: advance the table
// clock, pin the key's last-write record to the new tick (failing any
// in-flight fill of the pre-write value), then delete the entry.
func (c *recordCache) invalidate(table, key string) {
	s := c.seqs[table]
	if s == nil {
		return
	}
	c.lastWrite.Store(cacheKey(table, key), s.seq.Add(1))
	c.remove(table, key)
}

// invalidateAll retires every cached record after the store's state was
// replaced wholesale: each table's clock advances and its floor rises to
// the new tick, so nothing stamped earlier is published or served again;
// the retired decodes are then dropped rather than left for a read to
// reclaim. Last-write records stay: one may belong to a write that landed
// after the replacement, and the rest are pruned by the next validated read.
func (c *recordCache) invalidateAll() {
	for _, s := range c.seqs {
		s.floor.Store(s.seq.Add(1))
	}
	c.entries.Range(func(k, _ any) bool {
		if _, loaded := c.entries.LoadAndDelete(k); loaded {
			c.size.Add(-1)
		}
		return true
	})
}

func (c *recordCache) remove(table, key string) {
	if _, loaded := c.entries.LoadAndDelete(cacheKey(table, key)); loaded {
		c.size.Add(-1)
	}
}
