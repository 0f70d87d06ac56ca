package store

// This file is the store's only in-memory representation: one persistent
// B+tree per table, the roots held in a dbIndex published behind DB.idx. An
// apply — one call of applyLocked, whatever number of records it folds in —
// copies each node it touches once, edits its own copies in place from then
// on, and swaps the index pointer when it is done: O(log n) per record
// whatever the table size, and one copy per touched node whatever the
// record count.
//
// The invariant: a node is written only by the apply that made it, before
// that apply publishes. Every apply mints an edit token, every node carries
// the token of the apply that allocated it, and put/del write a node in
// place only when it carries the current token — anything else (a published
// node, a bulk-loaded one, one made under a nil token) is copied first. A
// token is minted per apply and dropped at publication, so no later apply
// can ever match it, and nothing an apply allocates is reachable from a
// published root until its own publication. Readers
// (Get/Has/Scan*/Count*/Tables) therefore still load the pointer and walk:
// no lock, and a reader holding an old root keeps seeing exactly that
// version for as long as it likes. A compaction cut and SnapshotExport are
// the same load.
//
// Value slices are stored as handed in and shared by every version that
// holds them: values are replaced wholesale on overwrite, never mutated in
// place.

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
)

// Node fill: a node splits past maxItems and is pooled with a neighbour
// below minItems (the root is exempt). 16 is the knee of
// BenchmarkStoreCommit's B/op (see docs/ARCHITECTURE.md for the row).
const (
	maxItems = 16
	minItems = maxItems / 2
)

// entry is one key with its raw JSON value.
type entry struct {
	key string
	val []byte
}

// child is a branch slot. From the second slot on, min separates: every
// key under the slot is >= min and every key under the previous slot is
// smaller. The first slot's min is never used to route; it repeats the
// separator the parent holds for this node, so a node cut from or joined
// onto a list brings its own bound along.
type child struct {
	min string
	n   *node
}

// edit is an apply's token. Its identity is all that matters; it has a size
// so that two live tokens never share an address.
type edit struct{ _ byte }

// node is a leaf (ents) or a branch (kids); all leaves sit at one depth. ed
// is the token of the apply that allocated the node (nil for bulk-loaded
// nodes): the only apply that may write it.
type node struct {
	ents []entry
	kids []child
	ed   *edit
}

// owned reports whether the apply holding ed made n and may write it in
// place. No token, no in-place path.
func (n *node) owned(ed *edit) bool { return ed != nil && n.ed == ed }

func (n *node) size() int { return len(n.ents) + len(n.kids) }

// lowest returns the separator for a node cut from the right of a list:
// its first key, or the min its first slot carries.
func (n *node) lowest() string {
	if n.kids != nil {
		return n.kids[0].min
	}
	return n.ents[0].key
}

// childFor returns the slot whose subtree holds key's position.
func (n *node) childFor(key string) int {
	return sort.Search(len(n.kids)-1, func(i int) bool { return key < n.kids[i+1].min })
}

// seek returns the position of the first leaf entry >= key and whether it
// is key itself.
func (n *node) seek(key string) (int, bool) {
	return slices.BinarySearchFunc(n.ents, key, func(e entry, k string) int { return strings.Compare(e.key, k) })
}

// splice returns a fresh slice: s with s[i:j] replaced by repl.
func splice[T any](s []T, i, j int, repl ...T) []T {
	out := make([]T, 0, len(s)-(j-i)+len(repl))
	return append(append(append(out, s[:i]...), repl...), s[j:]...)
}

// split cuts an over-full node in two, each half in its own backing array
// so neither pins the other's memory.
func (n *node) split(ed *edit) (l, r *node) {
	if n.kids == nil {
		mid := len(n.ents) / 2
		return &node{ents: slices.Clone(n.ents[:mid]), ed: ed}, &node{ents: slices.Clone(n.ents[mid:]), ed: ed}
	}
	mid := len(n.kids) / 2
	return &node{kids: slices.Clone(n.kids[:mid]), ed: ed}, &node{kids: slices.Clone(n.kids[mid:]), ed: ed}
}

// join concatenates two neighbouring nodes of one depth into a fresh one.
func join(ed *edit, l, r *node) *node {
	if l.kids == nil {
		return &node{ents: splice(l.ents, len(l.ents), len(l.ents), r.ents...), ed: ed}
	}
	return &node{kids: splice(l.kids, len(l.kids), len(l.kids), r.kids...), ed: ed}
}

// replace is splice in s's own backing array. The first copy of a node is
// cut to size (most applies touch a node once); an array that turns out too
// small moves once to one that holds any node — a node is split before it
// exceeds maxItems+1 — instead of doubling.
func replace[T any](s []T, i, j int, repl ...T) []T {
	if len(s)-(j-i)+len(repl) > cap(s) {
		s = append(make([]T, 0, maxItems+1), s...)
	}
	return slices.Replace(s, i, j, repl...)
}

// withEnts returns leaf n with ents[i:j] replaced by repl: n itself, edited
// in place, when the apply holding ed made it, a copy stamped ed otherwise.
func (n *node) withEnts(ed *edit, i, j int, repl ...entry) *node {
	if n.owned(ed) {
		n.ents = replace(n.ents, i, j, repl...)
		return n
	}
	return &node{ents: splice(n.ents, i, j, repl...), ed: ed}
}

// withKids is withEnts for a branch's slots.
func (n *node) withKids(ed *edit, i, j int, repl ...child) *node {
	if n.owned(ed) {
		n.kids = replace(n.kids, i, j, repl...)
		return n
	}
	return &node{kids: splice(n.kids, i, j, repl...), ed: ed}
}

// put sets key to val under n and returns the subtree — split in two (right
// non-nil) if that over-filled it — and whether key is new. The result is n
// itself where ed owns it, a copy of the touched path otherwise.
func (n *node) put(ed *edit, key string, val []byte) (left, right *node, added bool) {
	var out *node
	if n.kids == nil {
		i, found := n.seek(key)
		j := i
		if found {
			j++
		}
		out, added = n.withEnts(ed, i, j, entry{key, val}), !found
	} else {
		i := n.childFor(key)
		l, r, a := n.kids[i].n.put(ed, key, val)
		if r == nil {
			out = n.withKids(ed, i, i+1, child{n.kids[i].min, l})
		} else {
			out = n.withKids(ed, i, i+1, child{n.kids[i].min, l}, child{r.lowest(), r})
		}
		added = a
	}
	if out.size() <= maxItems {
		return out, nil, added
	}
	left, right = out.split(ed)
	return left, right, added
}

// del removes key from under n and returns the subtree, or n untouched and
// false when key is absent. The result may be under-full; the caller pools
// it.
func (n *node) del(ed *edit, key string) (*node, bool) {
	if n.kids == nil {
		i, found := n.seek(key)
		if !found {
			return n, false
		}
		return n.withEnts(ed, i, i+1), true
	}
	i := n.childFor(key)
	c, ok := n.kids[i].n.del(ed, key)
	if !ok {
		return n, false
	}
	if c.size() >= minItems {
		return n.withKids(ed, i, i+1, child{n.kids[i].min, c}), true
	}
	// Pool the under-full child with a neighbour: one node when the items
	// fit, two even ones otherwise.
	a := max(i-1, 0)
	pair := [2]*node{n.kids[a].n, n.kids[a+1].n}
	pair[i-a] = c
	pooled := join(ed, pair[0], pair[1])
	if pooled.size() <= maxItems {
		return n.withKids(ed, a, a+2, child{n.kids[a].min, pooled}), true
	}
	l, r := pooled.split(ed)
	return n.withKids(ed, a, a+2, child{n.kids[a].min, l}, child{r.lowest(), r}), true
}

// tree is one version of one table: an immutable root (nil when empty) and
// the number of keys under it. The zero tree is the empty table.
type tree struct {
	root *node
	n    int
}

// put and del return the next version of the table. Nodes the apply holding
// ed made earlier are edited in place, so versions that apply built before
// this one change with it — they are its scratch, not yet anyone's to read;
// every other node is copied, so every published version stays as it was.
func (t tree) put(ed *edit, key string, val []byte) tree {
	if t.root == nil {
		return tree{&node{ents: []entry{{key, val}}, ed: ed}, 1}
	}
	l, r, added := t.root.put(ed, key, val)
	if r != nil {
		l = &node{kids: []child{{"", l}, {r.lowest(), r}}, ed: ed}
	}
	if added {
		t.n++
	}
	return tree{l, t.n}
}

func (t tree) del(ed *edit, key string) tree {
	if t.root == nil {
		return t
	}
	root, ok := t.root.del(ed, key)
	if !ok {
		return t
	}
	switch {
	case root.size() == 0:
		root = nil
	case len(root.kids) == 1:
		root = root.kids[0].n
	}
	return tree{root, t.n - 1}
}

func (t tree) get(key string) ([]byte, bool) {
	n := t.root
	if n == nil {
		return nil, false
	}
	for n.kids != nil {
		n = n.kids[n.childFor(key)].n
	}
	if i, found := n.seek(key); found {
		return n.ents[i].val, true
	}
	return nil, false
}

// buildTree bulk-loads ascending entries (a decoded snapshot) into evenly
// filled nodes, level by level.
func buildTree(ents []entry) tree {
	if len(ents) == 0 {
		return tree{}
	}
	level := make([]child, 0, len(ents)/maxItems+1)
	for _, part := range evenParts(ents) {
		level = append(level, child{part[0].key, &node{ents: slices.Clone(part)}})
	}
	for len(level) > 1 {
		up := make([]child, 0, len(level)/maxItems+1)
		for _, part := range evenParts(level) {
			up = append(up, child{part[0].min, &node{kids: slices.Clone(part)}})
		}
		level = up
	}
	return tree{level[0].n, len(ents)}
}

// evenParts cuts s into the fewest runs of at most maxItems, sized within
// one of each other (so every run of a multi-run cut holds >= minItems).
// The runs alias s; a node clones its run so the input can be collected.
func evenParts[T any](s []T) [][]T {
	parts := (len(s) + maxItems - 1) / maxItems
	out := make([][]T, 0, parts)
	for i := 0; i < parts; i++ {
		lo, hi := i*len(s)/parts, (i+1)*len(s)/parts
		out = append(out, s[lo:hi])
	}
	return out
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
		n = n.kids[i].n
	}
	i, _ := n.seek(start)
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
		for n := it.stack[d].n.kids[it.stack[d].i].n; ; n = n.kids[0].n {
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
	it.key, it.val, it.ok = e.key, e.val, true
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

// MarshalJSON renders the table as the snapshot format's {"key": value}
// object in key order — byte for byte what encoding/json makes of the
// equivalent map[string]json.RawMessage.
func (t tree) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for it := t.iter("", ""); it.ok; it.advance() {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(it.key)
		if err != nil {
			return nil, err
		}
		buf = append(append(buf, k...), ':')
		if len(it.val) == 0 {
			buf = append(buf, "null"...)
		} else {
			buf = append(buf, it.val...)
		}
	}
	return append(buf, '}'), nil
}

// dbIndex is one version of the whole store: every table's tree, in table
// name order. Immutable once published; a commit edits a shallow copy.
type dbIndex []namedTree

type namedTree struct {
	name string
	tree
}

func (x dbIndex) find(table string) (int, bool) {
	return slices.BinarySearchFunc(x, table, func(t namedTree, name string) int { return strings.Compare(t.name, name) })
}

// apply folds one WAL record into x, which must be the caller's own copy,
// under the caller's edit token. A table exists from its first put on, even
// if later emptied.
func (x *dbIndex) apply(ed *edit, rec Record) {
	switch rec.Op {
	case OpPut:
		i, ok := x.find(rec.Table)
		if !ok {
			*x = slices.Insert(*x, i, namedTree{name: rec.Table})
		}
		(*x)[i].tree = (*x)[i].put(ed, rec.Key, rec.Value)
	case OpDelete:
		if i, ok := x.find(rec.Table); ok {
			(*x)[i].tree = (*x)[i].del(ed, rec.Key)
		}
	case OpBatch:
		for _, sub := range rec.Batch {
			if sub.Op != OpBatch {
				x.apply(ed, sub)
			}
		}
	}
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

// applyLocked folds records into a copy of the published index under one
// fresh edit token — so however many records touch a node, it is copied
// once — and publishes the result, so an acked write is reader-visible
// before its commit barrier releases. Caller holds db.mu.
func (db *DB) applyLocked(recs ...Record) {
	next, ed := slices.Clone(db.loadIndex()), new(edit)
	for _, rec := range recs {
		next.apply(ed, rec)
	}
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
