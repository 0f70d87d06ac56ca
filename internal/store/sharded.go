package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"itag/internal/errs"
)

// Sharded partitions the key space of any number of inner stores so that
// concurrent projects, resources and users contend on different locks.
//
// Routing invariant: a key is owned by the shard selected by an FNV-1a hash
// of its *first path segment* (the key up to the first '/', or the whole
// key when it has none). Under the Catalog's key layouts this keeps every
// access path shard-local:
//
//	resources/<resourceID>            → shard(resourceID)
//	posts/<resourceID>/<seq>          → shard(resourceID)  (all of a resource's posts)
//	projects/<projectID>              → shard(projectID)
//	tasks/<projectID>/<taskID>        → shard(projectID)   (all of a project's tasks)
//	users/<userID>                    → shard(userID)
//
// Consequently ScanPrefix with a prefix that pins the first segment (e.g.
// "res-0042/") touches exactly one shard and scans a table 1/N the size of
// the unsharded store — the hot path of AppendPost / PostsOf / CountPosts /
// TasksByProject. Whole-table scans merge the per-shard trees back into
// global key order.
//
// Atomicity: Apply groups mutations by owning shard and applies each group
// atomically within its shard, but there is no cross-shard transaction. The
// Catalog never relies on cross-first-segment atomicity, so this weakening
// is invisible above the store layer; new callers that need it must keep
// the keys involved under one first segment.
//
// Sharded is safe for concurrent use.
type Sharded struct {
	shards []Store // every one a *DB
}

// NewSharded returns a volatile in-memory store partitioned across n
// single-lock shards. n must be >= 1.
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	shards := make([]Store, n)
	for i := range shards {
		shards[i] = OpenMemory()
	}
	return &Sharded{shards: shards}
}

// OpenSharded opens (creating if needed) a durable sharded store: n
// WAL-backed shards named shard-NNN.wal inside dir. Reopening a directory
// with a different n is an error, since records would re-route to the wrong
// shard.
func OpenSharded(dir string, n int, opts Options) (*Sharded, error) {
	if n < 1 {
		return nil, errs.New(errs.ComponentStore, errs.CategoryValidation, "shard count must be >= 1, got %d", n)
	}
	// A shard's WAL is a family of files sharing the shard-NNN.wal base
	// (legacy file, segments, snapshot); count distinct bases.
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.wal*"))
	if err != nil {
		return nil, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "scan shard dir")
	}
	existing := make(map[string]bool)
	for _, m := range matches {
		base := filepath.Base(m)
		if i := strings.Index(base, ".wal"); i > 0 {
			existing[base[:i+len(".wal")]] = true
		}
	}
	if len(existing) > 0 && len(existing) != n {
		return nil, errs.New(errs.ComponentStore, errs.CategoryValidation, "%s holds %d shards, asked to open %d", dir, len(existing), n)
	}
	shards := make([]Store, n)
	for i := range shards {
		db, err := Open(filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", i)), opts)
		if err != nil {
			for _, s := range shards[:i] {
				_ = s.Close()
			}
			return nil, err
		}
		shards[i] = db
	}
	return &Sharded{shards: shards}, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardFor returns the index of the shard owning key.
func (s *Sharded) ShardFor(key string) int {
	return int(shardIndex(key, uint32(len(s.shards))))
}

// shardIndex hashes the key's first path segment (FNV-1a) into [0, n).
func shardIndex(key string, n uint32) uint32 {
	seg := key
	if i := strings.IndexByte(key, '/'); i >= 0 {
		seg = key[:i]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(seg); i++ {
		h ^= uint32(seg[i])
		h *= prime32
	}
	return h % n
}

func (s *Sharded) shard(key string) Store { return s.shards[s.ShardFor(key)] }

// Put implements Store.
func (s *Sharded) Put(table, key string, value any) error {
	return s.shard(key).Put(table, key, value)
}

// Get implements Store.
func (s *Sharded) Get(table, key string, out any) error {
	return s.shard(key).Get(table, key, out)
}

// Has implements Store.
func (s *Sharded) Has(table, key string) bool {
	return s.shard(key).Has(table, key)
}

// Delete implements Store.
func (s *Sharded) Delete(table, key string) error {
	return s.shard(key).Delete(table, key)
}

// Apply implements Store: mutations are grouped by owning shard and each
// group is applied atomically within its shard, in shard order. See the
// type comment for the (weaker than DB) cross-shard semantics.
func (s *Sharded) Apply(muts []Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	groups := make(map[int][]Mutation)
	for _, m := range muts {
		i := s.ShardFor(m.Key)
		groups[i] = append(groups[i], m)
	}
	order := make([]int, 0, len(groups))
	for i := range groups {
		order = append(order, i)
	}
	sort.Ints(order)
	for _, i := range order {
		if err := s.shards[i].Apply(groups[i]); err != nil {
			return err
		}
	}
	return nil
}

// Scan implements Store, merging per-shard trees into global key order.
func (s *Sharded) Scan(table string, fn func(key string, raw []byte) bool) {
	s.ScanPrefix(table, "", fn)
}

// ScanPrefix implements Store. A prefix that pins the key's first path
// segment (contains '/') is served by the owning shard alone; otherwise the
// per-shard trees are merged back into ascending key order (an ordered
// k-way merge with early termination).
func (s *Sharded) ScanPrefix(table, prefix string, fn func(key string, raw []byte) bool) {
	if i := strings.IndexByte(prefix, '/'); i >= 0 {
		s.shard(prefix).ScanPrefix(table, prefix, fn)
		return
	}
	s.scanRangeMerged(table, prefix, prefixEnd(prefix), 0, fn)
}

// ScanRange implements Store. When both bounds pin the same first path
// segment every key in [start, end) lives in one shard (any string between
// two strings sharing the "seg/" prefix shares it too) and the owning shard
// serves the range alone; otherwise the shards are merged in key order.
func (s *Sharded) ScanRange(table, start, end string, limit int, fn func(key string, raw []byte) bool) int {
	if sseg, sok := firstSegment(start); sok {
		if eseg, eok := firstSegment(end); eok && sseg == eseg {
			return s.shard(start).ScanRange(table, start, end, limit, fn)
		}
	}
	return s.scanRangeMerged(table, start, end, limit, fn)
}

// scanRangeMerged merges [start, end) across every shard's published tree,
// lazily: O(Σ log n_i + k·N) with no copying and true early termination.
func (s *Sharded) scanRangeMerged(table, start, end string, limit int, fn func(key string, raw []byte) bool) int {
	its := make([]treeIter, len(s.shards))
	for i, sh := range s.shards {
		its[i] = sh.(*DB).table(table).iter(start, end)
	}
	n := 0
	for limit <= 0 || n < limit {
		// Pick the shard cursor with the smallest in-range key. Keys are
		// owned by exactly one shard, so there are no ties to break.
		min := -1
		for i := range its {
			if its[i].ok && (min < 0 || its[i].key < its[min].key) {
				min = i
			}
		}
		if min < 0 {
			break
		}
		k, v := its[min].key, its[min].val
		its[min].advance()
		n++
		if !fn(k, v) {
			break
		}
	}
	return n
}

// Count implements Store.
func (s *Sharded) Count(table string) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Count(table)
	}
	return n
}

// CountPrefix implements Store. A first-segment-pinned prefix is counted by
// the owning shard alone.
func (s *Sharded) CountPrefix(table, prefix string) int {
	if i := strings.IndexByte(prefix, '/'); i >= 0 {
		return s.shard(prefix).CountPrefix(table, prefix)
	}
	n := 0
	for _, sh := range s.shards {
		n += sh.CountPrefix(table, prefix)
	}
	return n
}

// ShardCounts returns the per-shard key counts of a table (for balance
// inspection and tests).
func (s *Sharded) ShardCounts(table string) []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Count(table)
	}
	return out
}

// Tables implements Store (union of shard tables, sorted).
func (s *Sharded) Tables() []string {
	seen := make(map[string]bool)
	for _, sh := range s.shards {
		for _, t := range sh.Tables() {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Seq returns the sum of the shards' WAL sequence numbers (0 for inner
// stores that do not expose one).
func (s *Sharded) Seq() uint64 {
	var total uint64
	for _, sh := range s.shards {
		if seqer, ok := sh.(interface{ Seq() uint64 }); ok {
			total += seqer.Seq()
		}
	}
	return total
}

// Sync implements Store.
func (s *Sharded) Sync() error {
	for _, sh := range s.shards {
		if err := sh.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites every shard that supports compaction.
func (s *Sharded) Compact() error {
	for _, sh := range s.shards {
		if c, ok := sh.(interface{ Compact() error }); ok {
			if err := c.Compact(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements Store, closing every shard and reporting the first
// error.
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil && !errors.Is(err, ErrClosed) {
			first = err
		}
	}
	return first
}
