package store

// This file is the store's only in-memory representation: one persistent
// B+tree per table, the roots held in a dbIndex published behind DB.idx. An
// apply — one call of applyLocked, whatever number of records it folds in —
// is one sorted merge per table it touches: its ops are sorted by key, the
// last op on each key kept, and the puts merged into the tree in one
// recursive pass that builds each node on the paths they reach once, at its
// final size, and shares every other node with the version before. The
// apply then swaps the index pointer: O(log n) per record whatever the
// table size, and one new node per touched node whatever the record count.
// A branch copy copies child pointers only and shares the separator array
// of the version before while its separators stay put: a one-record commit
// into a 1e5-key table allocates about 1.1 KB, key and value aside.
//
// The invariant: a node is never written after it is made. Readers
// (Get/Has/Scan*/Count*/Tables) therefore load the pointer and walk: no
// lock, and a reader holding an old root keeps seeing exactly that version
// for as long as it likes. A compaction cut and SnapshotExport are the same
// load.
//
// Values are stored as handed in, the caller's bytes viewed as a string,
// and shared by every version that holds them: values are replaced
// wholesale on overwrite, never mutated in place.

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// Node fill: a merge cuts a node's items into even parts of at most
// maxItems, and a delete pools a node with a neighbour below minItems (the
// root is exempt). 16 is measured against 8 and 32 in BenchmarkStoreCommit
// and BenchmarkCatalogGet (see docs/ARCHITECTURE.md for the row).
const (
	maxItems = 16
	minItems = maxItems / 2
)

// entry is one key with its raw JSON value: the bytes a put handed in,
// viewed as a string — no copy, and 8 bytes narrower than a slice.
type entry struct {
	key string
	val string
}

// valueOf views b as an entry's value and raw views it back, the same bytes
// both ways: the store owns a value once applied and nothing writes it.
func valueOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
func (e entry) raw() []byte   { return unsafe.Slice(unsafe.StringData(e.val), len(e.val)) }

// node is a leaf (kids nil) or a branch, whose ents are its separators,
// keys only, one per slot (shared by versions until one changes). From the
// second on, ents[i].key separates: every key under kids[i] is >= it and
// every key under kids[i-1] is smaller. ents[0].key, never used to route,
// repeats the parent's separator for a branch (so a branch cut from or
// joined onto a list brings its own bound along); a leaf's first key is at
// or above it. All leaves sit at one depth.
type node struct {
	ents []entry
	kids []*node
}

// sepOf returns the separator that names c, its first key. A leaf's keys
// are views of the slab their commit staged them in (WriteSet.Commit), so a
// leaf's first key is copied: a separator can outlive its entry, and must
// not keep a commit's slab alive once the entry's value is replaced.
func sepOf(c *node) entry {
	if c.kids == nil {
		return entry{key: strings.Clone(c.ents[0].key)}
	}
	return entry{key: c.ents[0].key}
}

// childFor returns the slot whose subtree holds key's position.
func (n *node) childFor(key string) int {
	return sort.Search(len(n.kids)-1, func(i int) bool { return key < n.ents[i+1].key })
}

// seek returns the position of the first entry >= key and whether it is
// key itself.
func seek(ents []entry, key string) (int, bool) {
	return slices.BinarySearchFunc(ents, key, func(e entry, k string) int { return strings.Compare(e.key, k) })
}

// mergeEnts appends to dst the ascending entries of old with those of run
// merged in, a run entry replacing the old one with its key.
func mergeEnts(dst, old, run []entry) []entry {
	for _, e := range run {
		i, found := seek(old, e.key)
		dst = append(append(dst, old[:i]...), e)
		if found {
			i++
		}
		old = old[i:]
	}
	return append(dst, old...)
}

// splice returns a fresh slice: s with s[i:j] replaced by repl.
func splice[T any](s []T, i, j int, repl ...T) []T {
	out := make([]T, 0, len(s)-(j-i)+len(repl))
	return append(append(append(out, s[:i]...), repl...), s[j:]...)
}

// cut appends to out one node per part of ents — a leaf's entries, or with
// kids a branch's separators and slots — cut into the fewest parts of at
// most maxItems, sized within one of each other (so every part of a
// multi-part cut holds >= minItems), each copied at its exact size. out
// may share kids' array up to where kids starts: part p is copied before
// slot len(out)+p is written, and no later part reads that slot.
func cut(out []*node, ents []entry, kids []*node) []*node {
	parts := (len(ents) + maxItems - 1) / maxItems
	for p := 0; p < parts; p++ {
		i, j := p*len(ents)/parts, (p+1)*len(ents)/parts
		n := &node{ents: slices.Clone(ents[i:j])}
		if len(kids) > 0 {
			n.kids = slices.Clone(kids[i:j])
		}
		out = append(out, n)
	}
	return out
}

// del removes key from under n and returns the subtree, or n untouched and
// false when key is absent. Every node on the path is copied; a branch
// whose slots stay shares its separators. The result may be under-full;
// the caller pools it.
func (n *node) del(key string) (*node, bool) {
	if n.kids == nil {
		i, found := seek(n.ents, key)
		if !found {
			return n, false
		}
		return &node{ents: splice(n.ents, i, i+1)}, true
	}
	i := n.childFor(key)
	c, ok := n.kids[i].del(key)
	if !ok {
		return n, false
	}
	if len(c.ents) >= minItems {
		return &node{ents: n.ents, kids: splice(n.kids, i, i+1, c)}, true
	}
	// Pool the under-full child with a neighbour: one node when the items
	// fit, two even ones otherwise. The parent keeps its separators.
	a := max(i-1, 0)
	pair := [2]*node{n.kids[a], n.kids[a+1]}
	pair[i-a] = c
	pooled := cut(nil, slices.Concat(pair[0].ents, pair[1].ents), slices.Concat(pair[0].kids, pair[1].kids))
	seps := []entry{n.ents[a]}
	if len(pooled) == 2 {
		seps = append(seps, sepOf(pooled[1]))
	}
	return &node{ents: splice(n.ents, a, a+2, seps...), kids: splice(n.kids, a, a+2, pooled...)}, true
}

// tree is one version of one table: an immutable root (nil when empty) and
// the number of keys under it. The zero tree is the empty table.
type tree struct {
	root *node
	n    int
}

// del returns the next version of the table without key.
func (t tree) del(key string) tree {
	if t.root == nil {
		return t
	}
	root, ok := t.root.del(key)
	if !ok {
		return t
	}
	switch {
	case len(root.ents) == 0:
		root = nil
	case len(root.kids) == 1:
		root = root.kids[0]
	}
	return tree{root, t.n - 1}
}

func (t tree) get(key string) ([]byte, bool) {
	n := t.root
	if n == nil {
		return nil, false
	}
	for n.kids != nil {
		n = n.kids[n.childFor(key)]
	}
	if i, found := seek(n.ents, key); found {
		return n.ents[i].raw(), true
	}
	return nil, false
}

// buildTree bulk-loads ascending distinct entries (a decoded snapshot): a
// merge into the empty tree.
func buildTree(ents []entry) tree {
	var m merger
	return m.merge(tree{}, ents)
}

// op is one put or delete of an apply, flattened out of its record. ord is
// its position in the apply: the tiebreak that lets the last op on a key
// win.
type op struct {
	table, key string
	val        []byte
	ord        int32
	del        bool
}

// merger is an apply's scratch: the flattened ops, the puts of the table
// being merged, the entries of the leaf (or separators of the branch) being
// rebuilt, and a stack of the nodes the merge has made. It clears what it
// used, so it pins no value the tree has dropped, and keeps each slice's
// capacity from one apply to the next only while it is within
// keptFrameBytes.
type merger struct {
	ops  []op
	run  []entry
	ents []entry
	kids []*node
}

// add flattens recs — puts, deletes, and batches of them — into m's ops.
func (m *merger) add(recs ...Record) {
	for i := range recs {
		subs := recs[i : i+1]
		if recs[i].Op == OpBatch {
			subs = recs[i].Batch
		}
		for j := range subs {
			if rec := &subs[j]; rec.Op == OpPut || rec.Op == OpDelete {
				if len(m.ops) == cap(m.ops) { // double: a replay collects a whole file
					m.ops = slices.Grow(m.ops, len(m.ops)+1)
				}
				m.ops = append(m.ops, op{rec.Table, rec.Key, rec.Value, int32(len(m.ops)), rec.Op == OpDelete})
			}
		}
	}
}

// apply folds the ops added since the last apply into a copy of x and
// returns it; x stays as it was. The last op on a key wins, and a table
// exists while it holds a key: one the apply empties is dropped, as a
// snapshot of it would drop it. Deletes go one by one through del; the
// puts of a table are one merge.
func (m *merger) apply(x dbIndex) dbIndex {
	if len(m.ops) > 1 {
		slices.SortFunc(m.ops, func(a, b op) int {
			if c := strings.Compare(a.table, b.table); c != 0 {
				return c
			}
			if c := strings.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.ord, b.ord)
		})
	}
	next := slices.Clone(x)
	for ops := m.ops; len(ops) > 0; {
		k := 1
		for k < len(ops) && ops[k].table == ops[0].table {
			k++
		}
		group := ops[:k]
		ops = ops[k:]
		i, found := next.find(group[0].table)
		if !found {
			if !slices.ContainsFunc(group, func(o op) bool { return !o.del }) {
				continue
			}
			next = slices.Insert(next, i, namedTree{name: group[0].table})
		}
		t := next[i].tree
		m.run = slices.Grow(m.run, len(group))
		for j, o := range group {
			switch {
			case j+1 < len(group) && group[j+1].key == o.key: // a later op wins
			case o.del:
				t = t.del(o.key)
			default:
				m.run = append(m.run, entry{o.key, valueOf(o.val)})
			}
		}
		if next[i].tree = m.merge(t, m.run); next[i].n == 0 {
			next = slices.Delete(next, i, i+1)
		}
		clear(m.run)
		m.run = m.run[:0]
	}
	clear(m.ops)
	m.ops = m.ops[:0]
	m.ops, m.run, m.ents, m.kids = kept(m.ops), kept(m.run), kept(m.ents), kept(m.kids)
	return next
}

// kept returns s, or nil once it holds more than keptFrameBytes: a
// tagger's commit, or a batch of them, fits many times over, and what a
// preload, a replay or a large shipment grew is let go rather than held
// for the life of the store. The WAL's frame buffer keeps by the same rule.
func kept[T any](s []T) []T {
	if uintptr(cap(s))*unsafe.Sizeof(*new(T)) > keptFrameBytes {
		return nil
	}
	return s
}

// merge returns t with run — ascending distinct keys — put into it, adding
// levels above the root until one node is left.
func (m *merger) merge(t tree, run []entry) tree {
	if len(run) == 0 {
		return t
	}
	added := m.into(t.root, run)
	for top := len(m.kids); top > 1; top = len(m.kids) {
		for _, c := range m.kids {
			m.ents = append(m.ents, sepOf(c))
		}
		m.kids = cut(m.kids[:0], m.ents, m.kids)
		clear(m.kids[len(m.kids):top])
		clear(m.ents)
		m.ents = m.ents[:0]
	}
	root := m.kids[0]
	clear(m.kids)
	m.kids = m.kids[:0]
	return tree{root, t.n + added}
}

// into pushes onto m.kids the nodes that n (nil: the empty table's leaf)
// becomes with run — ascending distinct keys, all routed to n — merged in,
// and returns how many of run's keys are new. A leaf merges its entries
// with the run; a branch splits the run at its separators, recurses only
// into the slots that receive keys, and lays its slots out once: when each
// slot reached became one node within its old bound, with its slots only.
// Otherwise a reached slot keeps the lower of its old separator and its
// first node's bound (only slot 0 can go lower: a new minimum), and a node
// after it is named by its own. A result that fits one node is built
// straight into it; an over-full one is laid out in scratch and cut.
func (m *merger) into(n *node, run []entry) (added int) {
	if n == nil {
		m.kids = cut(m.kids, run, nil)
		return len(run)
	}
	if n.kids == nil {
		added = len(run)
		for _, e := range run {
			if _, found := seek(n.ents, e.key); found {
				added--
			}
		}
		size := len(n.ents) + added
		if size <= maxItems {
			m.kids = append(m.kids, &node{ents: mergeEnts(make([]entry, 0, size), n.ents, run)})
			return added
		}
		m.ents = mergeEnts(slices.Grow(m.ents, size), n.ents, run)
		m.kids = cut(m.kids, m.ents, nil)
		clear(m.ents)
		m.ents = m.ents[:0]
		return added
	}
	var pushed [maxItems]int // nodes each slot became; 0: not reached
	base, size := len(m.kids), len(n.kids)
	for len(run) > 0 {
		i, k := n.childFor(run[0].key), len(run)
		if i+1 < len(n.kids) {
			bound := n.ents[i+1].key
			k = sort.Search(len(run), func(j int) bool { return run[j].key >= bound })
		}
		top := len(m.kids)
		added += m.into(n.kids[i], run[:k])
		pushed[i] = len(m.kids) - top
		size += pushed[i] - 1
		run = run[k:]
	}
	top := len(m.kids)
	if size == len(n.kids) && (pushed[0] == 0 || m.kids[base].ents[0].key >= n.ents[0].key) {
		kids, at := slices.Clone(n.kids), base
		for i, p := range pushed[:len(n.kids)] {
			if p > 0 {
				kids[i] = m.kids[at]
				at++
			}
		}
		clear(m.kids[base:top])
		m.kids = append(m.kids[:base], &node{ents: n.ents, kids: kids})
		return added
	}
	ents, kids := m.ents, m.kids
	if size <= maxItems {
		ents, kids = make([]entry, 0, size), make([]*node, 0, size)
	}
	next, at := 0, base
	for i, p := range pushed[:len(n.kids)] {
		if p > 0 {
			sep := n.ents[i]
			if first := m.kids[at]; first.ents[0].key < sep.key {
				sep = sepOf(first)
			}
			ents = append(append(ents, n.ents[next:i]...), sep)
			for _, c := range m.kids[at+1 : at+p] {
				ents = append(ents, sepOf(c))
			}
			kids = append(append(kids, n.kids[next:i]...), m.kids[at:at+p]...)
			next, at = i+1, at+p
		}
	}
	ents, kids = append(ents, n.ents[next:]...), append(kids, n.kids[next:]...)
	if size <= maxItems {
		clear(m.kids[base:top])
		m.kids = append(m.kids[:base], &node{ents: ents, kids: kids})
		return added
	}
	m.kids = cut(kids[:base], ents, kids[top:])
	clear(kids[len(m.kids):])
	clear(ents)
	m.ents = ents[:0]
	return added
}

// maxDepth bounds the iterator's stack: minItems^maxDepth keys is far past
// anything addressable.
const maxDepth = 16

// treeIter walks one tree version over [start, end) in ascending order:
// the head entry is (key, val) while ok; advance moves on. It is a value —
// no allocation — and stays valid however far the table moves on.
type treeIter struct {
	stack [maxDepth]struct {
		n *node
		i int
	}
	depth int // frames in use; the top one is a leaf
	end   string
	key   string
	val   []byte
	ok    bool
}

// iter positions an iterator at the first key >= start; end "" means
// unbounded.
func (t tree) iter(start, end string) treeIter {
	it := treeIter{end: end}
	n := t.root
	if n == nil {
		return it
	}
	for n.kids != nil {
		i := n.childFor(start)
		it.push(n, i)
		n = n.kids[i]
	}
	i, _ := seek(n.ents, start)
	it.push(n, i-1)
	it.advance()
	return it
}

func (it *treeIter) push(n *node, i int) {
	it.stack[it.depth].n, it.stack[it.depth].i = n, i
	it.depth++
}

func (it *treeIter) advance() {
	it.ok = false
	if it.depth == 0 {
		return
	}
	leaf := &it.stack[it.depth-1]
	leaf.i++
	if leaf.i == len(leaf.n.ents) {
		// Leaf exhausted: climb to the nearest ancestor with a slot to
		// the right, then descend its leftmost path.
		d := it.depth - 2
		for d >= 0 && it.stack[d].i == len(it.stack[d].n.kids)-1 {
			d--
		}
		if d < 0 {
			it.depth = 0
			return
		}
		it.stack[d].i++
		it.depth = d + 1
		for n := it.stack[d].n.kids[it.stack[d].i]; ; n = n.kids[0] {
			it.push(n, 0)
			if n.kids == nil {
				break
			}
		}
		leaf = &it.stack[it.depth-1]
	}
	e := leaf.n.ents[leaf.i]
	if it.end != "" && e.key >= it.end {
		it.depth = 0
		return
	}
	it.key, it.val, it.ok = e.key, e.raw(), true
}

// scanRange visits keys in [start, end) (end "" = unbounded), at most
// limit (limit <= 0 = unbounded), and reports how many fn visited.
func (t tree) scanRange(start, end string, limit int, fn func(key string, raw []byte) bool) int {
	n := 0
	for it := t.iter(start, end); it.ok && (limit <= 0 || n < limit); it.advance() {
		n++
		if !fn(it.key, it.val) {
			break
		}
	}
	return n
}

// dbIndex is one version of the whole store: every table's tree, in table
// name order. Immutable once published; an apply edits a shallow copy.
type dbIndex []namedTree

type namedTree struct {
	name string
	tree
}

func (x dbIndex) find(table string) (int, bool) {
	return slices.BinarySearchFunc(x, table, func(t namedTree, name string) int { return strings.Compare(t.name, name) })
}

// loadIndex returns the published index.
func (db *DB) loadIndex() dbIndex {
	if p := db.idx.Load(); p != nil {
		return *p
	}
	return nil
}

// table returns the published version of one table (empty when absent).
func (db *DB) table(name string) tree {
	x := db.loadIndex()
	if i, ok := x.find(name); ok {
		return x[i].tree
	}
	return tree{}
}

// applyLocked folds recs, and any records already added to db.mg, into a
// copy of the published index as one merge — so however many records touch
// a node, it is built once — and publishes the result, so an acked write is
// reader-visible before its commit barrier releases. Caller holds db.mu,
// which guards db.mg.
func (db *DB) applyLocked(recs ...Record) {
	db.mg.add(recs...)
	next := db.mg.apply(db.loadIndex())
	db.idx.Store(&next)
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix ("" when no such bound exists, i.e. the range is unbounded).
func prefixEnd(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			return prefix[:i] + string([]byte{prefix[i] + 1})
		}
	}
	return ""
}
