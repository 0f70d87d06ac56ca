package store

// Tests for the persistent B+tree behind DB (index.go): structural
// invariants after every operation, agreement with the model
// (model_test.go), and snapshot isolation — a reader holding an old root
// keeps seeing exactly that version.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// checkTree asserts the node invariants of one tree version: keys strictly
// ascending across the whole tree, every separator a true bound (and
// repeated as the lower bound of the branch it names, the root's own bound
// included), a separator entry carrying no value, one separator per slot,
// fill within [minItems, maxItems] below the root, leaves at one depth, and
// the recorded key count exact.
func checkTree(t testing.TB, label string, tr tree) {
	t.Helper()
	if tr.root == nil {
		if tr.n != 0 {
			t.Fatalf("%s: empty root but n = %d", label, tr.n)
		}
		return
	}
	leafDepth, count := -1, 0
	last, haveLast := "", false
	var walk func(n *node, depth int, lo string, bounded, isRoot bool)
	walk = func(n *node, depth int, lo string, bounded, isRoot bool) {
		if len(n.ents) == 0 || n.kids != nil && len(n.kids) != len(n.ents) {
			t.Fatalf("%s: node at depth %d is neither leaf nor branch (%d ents, %d kids)", label, depth, len(n.ents), len(n.kids))
		}
		min := minItems
		if isRoot {
			min = 1
			if n.kids != nil {
				min = 2
			}
		}
		if len(n.ents) < min || len(n.ents) > maxItems {
			t.Fatalf("%s: node at depth %d holds %d items, want [%d, %d]", label, depth, len(n.ents), min, maxItems)
		}
		if n.kids == nil {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("%s: leaves at depths %d and %d", label, leafDepth, depth)
			}
			for _, e := range n.ents {
				if bounded && e.key < lo {
					t.Fatalf("%s: key %q sits under separator %q", label, e.key, lo)
				}
				if haveLast && e.key <= last {
					t.Fatalf("%s: key %q follows %q", label, e.key, last)
				}
				last, haveLast = e.key, true
				count++
			}
			return
		}
		if bounded && n.ents[0].key != lo {
			t.Fatalf("%s: branch under separator %q carries %q as its lower bound", label, lo, n.ents[0].key)
		}
		for i, c := range n.kids {
			if n.ents[i].val != "" {
				t.Fatalf("%s: separator %q carries a value", label, n.ents[i].key)
			}
			// Everything visited so far lies under earlier slots and must
			// be smaller than this slot's separator.
			if i > 0 && haveLast && last >= n.ents[i].key {
				t.Fatalf("%s: separator %q does not exceed earlier key %q", label, n.ents[i].key, last)
			}
			walk(c, depth+1, n.ents[i].key, true, false)
		}
	}
	lo, bounded := "", tr.root.kids != nil
	if bounded {
		lo = tr.root.ents[0].key
	}
	walk(tr.root, 0, lo, bounded, true)
	if count != tr.n {
		t.Fatalf("%s: tree holds %d keys, n says %d", label, count, tr.n)
	}
}

// checkStoreTrees runs checkTree over every table of a DB.
func checkStoreTrees(t testing.TB, label string, db *DB) {
	t.Helper()
	x := db.loadIndex()
	for i, tab := range x {
		if i > 0 && x[i-1].name >= tab.name {
			t.Fatalf("%s: index tables out of order: %q then %q", label, x[i-1].name, tab.name)
		}
		checkTree(t, label+"/"+tab.name, tab.tree)
	}
}

// treeContents drains a tree version through its iterator.
func treeContents(tr tree) []entry {
	var out []entry
	for it := tr.iter("", ""); it.ok; it.advance() {
		out = append(out, entry{it.key, string(it.val)})
	}
	return out
}

// indexModel drives multi-record applies through one merger — reused, as
// the DB reuses its own — and checks the index against the model after
// every apply: every table's tree invariants, its full contents, and a
// merger left with nothing in its scratch.
type indexModel struct {
	m     merger
	x     dbIndex
	model model
}

func newIndexModel() *indexModel { return &indexModel{model: model{}} }

func putRec(table, key, val string) Record {
	return Record{Op: OpPut, Table: table, Key: key, Value: []byte(val)}
}

func delRec(table, key string) Record { return Record{Op: OpDelete, Table: table, Key: key} }

// apply folds recs in as one apply; from the third on they ride in a batch
// record, which the merger flattens.
func (im *indexModel) apply(t testing.TB, label string, recs ...Record) {
	t.Helper()
	for i, rec := range recs {
		if i == 2 {
			im.m.add(Record{Op: OpBatch, Batch: recs[2:]})
		} else if i < 2 {
			im.m.add(rec)
		}
	}
	im.model.apply(recs...)
	im.x = im.m.apply(im.x)
	im.check(t, label)
}

func (im *indexModel) check(t testing.TB, label string) {
	t.Helper()
	for i, tab := range im.x {
		if i > 0 && im.x[i-1].name >= tab.name {
			t.Fatalf("%s: tables out of order: %q then %q", label, im.x[i-1].name, tab.name)
		}
		checkTree(t, label+"/"+tab.name, tab.tree)
	}
	if d := im.model.diff(im.x); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	requireScratchClean(t, label, &im.m)
}

func (im *indexModel) table(name string) tree {
	if i, ok := im.x.find(name); ok {
		return im.x[i].tree
	}
	return tree{}
}

// requireScratchClean asserts a merger holds no op, entry or slot after an
// apply, over the whole capacity of its slices: the scratch pins nothing.
func requireScratchClean(t testing.TB, label string, m *merger) {
	t.Helper()
	if len(m.ops)+len(m.run)+len(m.ents)+len(m.kids) != 0 {
		t.Fatalf("%s: merger scratch not emptied: %d ops, %d run, %d ents, %d kids", label, len(m.ops), len(m.run), len(m.ents), len(m.kids))
	}
	for _, o := range m.ops[:cap(m.ops)] {
		if o.table != "" || o.key != "" || o.val != nil {
			t.Fatalf("%s: merger ops keep %q/%q", label, o.table, o.key)
		}
	}
	for _, s := range [][]entry{m.run[:cap(m.run)], m.ents[:cap(m.ents)]} {
		for _, e := range s {
			if e.key != "" || e.val != "" {
				t.Fatalf("%s: merger entries keep %q", label, e.key)
			}
		}
	}
	for _, c := range m.kids[:cap(m.kids)] {
		if c != nil {
			t.Fatalf("%s: merger stack keeps a node", label)
		}
	}
}

// TestMergeScratchIsBounded: the merge scratch keeps what a batch of
// tagger commits needs — a 400-record apply, a tasks:batch call's, is
// merged into the slices the apply before it left — but no slice above
// keptFrameBytes: after a 1e5-record apply and one put, the largest apply
// the store ever made is not held for its life.
func TestMergeScratchIsBounded(t *testing.T) {
	db := OpenMemory()
	apply := func(n int) {
		t.Helper()
		muts := make([]Mutation, n)
		for i := range muts {
			v := strconv.Itoa(i)
			muts[i] = Mutation{Op: OpPut, Table: "posts", Key: "res-" + v, Value: []byte(v)}
		}
		if err := db.Apply(muts); err != nil {
			t.Fatal(err)
		}
	}
	scratch := func() map[string]uintptr {
		m := &db.mg
		return map[string]uintptr{
			"ops":  uintptr(cap(m.ops)) * unsafe.Sizeof(op{}),
			"run":  uintptr(cap(m.run)) * unsafe.Sizeof(entry{}),
			"ents": uintptr(cap(m.ents)) * unsafe.Sizeof(entry{}),
			"kids": uintptr(cap(m.kids)) * unsafe.Sizeof((*node)(nil)),
		}
	}
	apply(400)
	if kept := scratch(); kept["ops"] < 400*unsafe.Sizeof(op{}) || kept["run"] < 400*unsafe.Sizeof(entry{}) {
		t.Fatalf("a 400-record apply left scratch %v: a tasks:batch call allocates its merge again", kept)
	}
	apply(100000)
	if err := db.Put("posts", "one", 1); err != nil {
		t.Fatal(err)
	}
	for name, size := range scratch() {
		if size > keptFrameBytes {
			t.Errorf("after a 1e5-record apply and a put the merge keeps %d bytes of %s, want at most %d", size, name, keptFrameBytes)
		}
	}
}

// TestTreeRandomOpsInvariants drives random multi-record applies — puts,
// overwrites, deletes, keys repeated within an apply — at two tables
// through growth to three levels and back down to empty, checking the
// invariants and the full contents after every apply. Between the random
// applies sit the merge's edge cases: a put and a delete of one key in both
// orders, runs of 3 x maxItems consecutive keys onto one leaf (the task
// table's append, and one between two neighbouring keys), a run into an
// empty table, and, for one seed, a start from a bulk-loaded tree.
func TestTreeRandomOpsInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		r := rand.New(rand.NewSource(seed))
		im := newIndexModel()
		label := func(what string, a int) string { return fmt.Sprintf("seed %d %s %d", seed, what, a) }

		// A table exists while it holds a key: deletes alone do not make
		// one, nor does a put deleted in the same apply.
		im.apply(t, label("delete-only", 0), delRec("t", "k00001"), delRec("t", "k00002"))
		im.apply(t, label("put-then-delete", 0), putRec("u", "k00001", "x"), delRec("u", "k00001"))
		if len(im.x) != 0 {
			t.Fatalf("seed %d: want no table, have %d", seed, len(im.x))
		}
		if seed == 7 { // a snapshot-loaded start
			ents := make([]entry, 500)
			for i := range ents {
				ents[i] = entry{fmt.Sprintf("k%05d", i*2), fmt.Sprintf("b%d", i)}
				im.model.apply(putRec("u", ents[i].key, ents[i].val))
			}
			im.x = dbIndex{{name: "u", tree: buildTree(ents)}}
			im.check(t, label("buildTree", 0))
		}
		if seed == 42 { // one run of 300 into the empty table "t"
			recs := make([]Record, 0, 300)
			for i := 0; i < 300; i++ {
				recs = append(recs, putRec("t", fmt.Sprintf("k%05d", r.Intn(1000)), fmt.Sprintf("e%d", i)))
			}
			im.apply(t, label("empty-run", 0), recs...)
		}

		n := 0
		randomApply := func(what string, a, delTenths int) {
			size := 1 + r.Intn(40)
			recs := make([]Record, 0, size)
			for i := 0; i < size; i++ {
				tab := [2]string{"t", "u"}[r.Intn(2)]
				key := fmt.Sprintf("k%05d", r.Intn(1000))
				if i > 0 && r.Intn(4) == 0 { // a key this apply already holds
					prev := recs[r.Intn(i)]
					tab, key = prev.Table, prev.Key
				}
				if n++; r.Intn(10) < delTenths {
					recs = append(recs, delRec(tab, key))
				} else {
					recs = append(recs, putRec(tab, key, fmt.Sprint(n)))
				}
			}
			im.apply(t, label(what, a), recs...)
		}
		run := func(tab, prefix string, count int) []Record {
			recs := make([]Record, count)
			for i := range recs {
				recs[i] = putRec(tab, fmt.Sprintf("%s/%03d", prefix, i), fmt.Sprintf("run%d", i))
			}
			return recs
		}
		for a := 0; a < 150; a++ {
			randomApply("grow", a, 2)
			switch a {
			case 50: // both orders, on a key the table holds and on a new one
				im.apply(t, label("put-delete", a),
					putRec("t", "k00500", "p"), delRec("t", "k00500"),
					delRec("t", "k00501"), putRec("t", "k00501", "q"),
					putRec("t", "k00500/new", "p"), delRec("t", "k00500/new"),
					delRec("t", "k00501/new"), putRec("t", "k00501/new", "q"))
			case 80: // the task table's append: past every key, onto the last leaf
				im.apply(t, label("append-run", a), run("t", "k99999", 3*maxItems+3)...)
			case 110: // between two neighbouring keys, onto one inner leaf
				im.apply(t, label("inner-run", a), run("u", "k00300", 3*maxItems+5)...)
			}
		}
		if depth(im.table("t")) < 3 {
			t.Fatalf("seed %d: table t grew to depth %d only; the test never splits a branch", seed, depth(im.table("t")))
		}
		for a := 0; a < 600 && im.table("t").n+im.table("u").n > 0; a++ {
			randomApply("drain", a, 9)
		}
		var rest []Record // whatever the drain left, deleted in one apply
		for _, tab := range []string{"t", "u"} {
			for k := range im.model[tab] {
				rest = append(rest, delRec(tab, k))
			}
		}
		im.apply(t, label("final-drain", 0), rest...)
		if len(im.x) != 0 {
			t.Fatalf("seed %d: the drained index still holds %d tables", seed, len(im.x))
		}
	}
}

// depth returns the number of levels of a tree.
func depth(tr tree) int {
	d := 0
	for n := tr.root; n != nil; d++ {
		if n.kids == nil {
			return d + 1
		}
		n = n.kids[0]
	}
	return d
}

// TestBuildTreeInvariants bulk-loads every size around the node-fill
// boundaries and checks shape and contents.
func TestBuildTreeInvariants(t *testing.T) {
	sizes := []int{0, 1, 2, minItems, maxItems, maxItems + 1, 2*maxItems + 1, maxItems*maxItems - 1,
		maxItems * maxItems, maxItems*maxItems + 1, 5000}
	for _, n := range sizes {
		ents := make([]entry, n)
		for i := range ents {
			ents[i] = entry{fmt.Sprintf("k%06d", i), fmt.Sprintf("%d", i)}
		}
		tr := buildTree(ents)
		checkTree(t, fmt.Sprintf("buildTree(%d)", n), tr)
		got := treeContents(tr)
		if len(got) != n {
			t.Fatalf("buildTree(%d) iterates %d entries", n, len(got))
		}
		for i, e := range got {
			if e.key != ents[i].key {
				t.Fatalf("buildTree(%d): entry %d is %q, want %q", n, i, e.key, ents[i].key)
			}
		}
		// A loaded tree must take further applies like a grown one.
		var m merger
		m.add(putRec("t", "k000000!", "1"))
		m.add(delRec("t", "k000001"))
		x := m.apply(dbIndex{{"t", tr}})
		checkTree(t, fmt.Sprintf("buildTree(%d) edited", n), x[0].tree)
	}
}

// TestSnapshotIsolation: a reader holding an old root sees exactly the old
// contents — through Get, iteration and a half-consumed iterator — while
// 10k further commits (overwrites, inserts, deletes of the very keys it
// holds) go by. Readers run concurrently with the writer; run under -race.
func TestSnapshotIsolation(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	want := model{}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("res-%03d/%04d", i%50, i)
		if err := db.Put("posts", key, i); err != nil {
			t.Fatal(err)
		}
		want.apply(putRec("posts", key, fmt.Sprint(i)))
	}
	old := db.table("posts")
	oldWant := want.entries("posts")
	half := old.iter("", "")
	for i := 0; i < len(oldWant)/2; i++ {
		half.advance()
	}

	const commits = 10000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := treeContents(old); !entriesEqual(got, oldWant) {
					t.Errorf("old root drifted: %d entries, want %d", len(got), len(oldWant))
					return
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < commits; i++ {
		key := oldWant[r.Intn(len(oldWant))].key
		var err error
		switch r.Intn(3) {
		case 0:
			err = db.Delete("posts", key)
		case 1:
			err = db.Put("posts", key, -i)
		default:
			err = db.Put("posts", fmt.Sprintf("res-%03d/new-%05d", r.Intn(60), i), i)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := treeContents(old); !entriesEqual(got, oldWant) {
		t.Fatalf("old root drifted after %d commits", commits)
	}
	checkTree(t, "old root", old)
	for _, e := range oldWant {
		if got, ok := old.get(e.key); !ok || string(got) != e.val {
			t.Fatalf("old root get(%q) = %q, %v; want %q", e.key, got, ok, e.val)
		}
	}
	for i := len(oldWant) / 2; i < len(oldWant); i++ {
		if !half.ok || half.key != oldWant[i].key || string(half.val) != oldWant[i].val {
			t.Fatalf("half-consumed iterator diverged at entry %d", i)
		}
		half.advance()
	}
	if half.ok {
		t.Fatal("half-consumed iterator ran past the old version's end")
	}
	if db.Count("posts") == len(oldWant) && entriesEqual(treeContents(db.table("posts")), oldWant) {
		t.Fatal("the live table did not move; the test proved nothing")
	}
	checkStoreTrees(t, "live", db)
}

// TestCompactionCutCopiesNothing: the cut of a compaction captures the
// published roots, so its allocations do not depend on how much the tables
// hold (the map-copying cut allocated per key, under the store lock).
func TestCompactionCutCopiesNothing(t *testing.T) {
	cutAllocs := func(keys int) float64 {
		db, err := Open(filepath.Join(t.TempDir(), "wal"), Options{SegmentBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		muts := make([]Mutation, 0, 1000)
		for i := 0; i < keys; i++ {
			muts = append(muts, Mutation{Op: OpPut, Table: "t", Key: fmt.Sprintf("k%07d", i), Value: jsonOf(i)})
			if len(muts) == cap(muts) || i == keys-1 {
				if err := db.Apply(muts); err != nil {
					t.Fatal(err)
				}
				muts = muts[:0]
			}
		}
		return testing.AllocsPerRun(5, func() {
			cut, err := db.cut()
			if err != nil {
				t.Fatal(err)
			}
			if cut.idx[0].n != keys {
				t.Fatalf("cut holds %d keys, want %d", cut.idx[0].n, keys)
			}
		})
	}
	small, large := cutAllocs(100), cutAllocs(100000)
	// Each run seals one more segment, so the covered-file list the cut
	// clones grows by one entry per run — the same on both sides.
	if large > small+2 {
		t.Fatalf("a cut over 1e5 keys allocated %.0f times, over 100 keys %.0f: the cut copies table contents", large, small)
	}
	if large > 40 {
		t.Fatalf("a cut allocated %.0f times; want a small constant", large)
	}
}

// heldVersion is a published index kept by a test together with the model
// of that moment.
type heldVersion struct {
	idx  dbIndex
	want model
}

func (h heldVersion) check(t *testing.T, label string) {
	t.Helper()
	if d := h.want.diff(h.idx); d != "" {
		t.Fatalf("%s: the version drifted: %s", label, d)
	}
	// Its separators too, which later versions share and iteration never
	// reads: a shared array written in place misroutes the old version.
	for _, tab := range h.idx {
		checkTree(t, label+"/"+tab.name, tab.tree)
	}
}

// TestTransientEditsKeepEveryVersion is the isolation property of the
// merged tree: random multi-record applies — repeated keys, puts and
// deletes mixed, two tables, batches large enough to split and pool
// nodes — against the sorted-map model, holding
// EVERY published version and re-checking each of them byte for byte, and
// its tree invariants, after every later apply. An apply that wrote a node
// or a separator array it did not make shows up as drift in an older
// version.
func TestTransientEditsKeepEveryVersion(t *testing.T) {
	tables := []string{"posts", "tasks"}
	for _, seed := range []int64{3, 11} {
		r := rand.New(rand.NewSource(seed))
		db := OpenMemory()
		m := model{}
		var held []heldVersion
		hold := func() {
			held = append(held, heldVersion{db.loadIndex(), m.clone()})
		}
		const applies = 100
		for a := 0; a < applies; a++ {
			// Grow for the first two thirds, then drain: deletes dominate
			// and under-full nodes get pooled, often inside one apply.
			delWeight := 1
			if a > applies*2/3 {
				delWeight = 7
			}
			size := 1 + r.Intn(120)
			if r.Intn(4) == 0 {
				size = 1 // the plain-record path
			}
			muts := make([]Mutation, 0, size)
			for i := 0; i < size; i++ {
				tab := tables[r.Intn(2)]
				// A narrow window per apply: many records land in the same
				// few leaves, and some keys repeat within the batch.
				key := fmt.Sprintf("k%04d", (a*13+r.Intn(40))%600)
				if r.Intn(8) < delWeight {
					muts = append(muts, Mutation{Op: OpDelete, Table: tab, Key: key})
				} else {
					val := fmt.Sprintf("%d.%d", a, i)
					muts = append(muts, Mutation{Op: OpPut, Table: tab, Key: key, Value: jsonOf(val)})
				}
			}
			m.apply(muts...)
			if err := db.Apply(muts); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d apply %d", seed, a)
			checkStoreTrees(t, label, db)
			hold()
			for v, h := range held {
				h.check(t, fmt.Sprintf("%s: version %d", label, v))
			}
		}
		if db.Count("posts")+db.Count("tasks") == 0 {
			t.Fatalf("seed %d: both tables ended empty; the drain outran the test", seed)
		}
	}
}

// TestScannersSeeWholeBatchesDuringApply: readers iterate whatever root is
// published while 200-record Apply batches land. A batch is one apply, so a
// root holds all of it or none — every "gen" key carries the same value —
// and a root, once loaded, never moves: a second walk of the same root
// returns the same bytes. Run under -race: a writer editing a node a reader
// can reach is a data race before it is a wrong answer.
func TestScannersSeeWholeBatchesDuringApply(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			db := OpenMemory()
			if durable {
				var err error
				if db, err = Open(filepath.Join(t.TempDir(), "wal"), Options{}); err != nil {
					t.Fatal(err)
				}
			}
			defer db.Close()
			const batch = 200
			apply := func(gen int) error {
				muts := make([]Mutation, 0, batch+20)
				for i := 0; i < batch; i++ {
					muts = append(muts, Mutation{Op: OpPut, Table: "t", Key: fmt.Sprintf("gen/%03d", i), Value: jsonOf(gen)})
				}
				for i := 0; i < 10; i++ { // and the tree keeps changing shape
					muts = append(muts,
						Mutation{Op: OpPut, Table: "t", Key: fmt.Sprintf("new/%05d/%d", gen, i), Value: jsonOf(gen)},
						Mutation{Op: OpDelete, Table: "t", Key: fmt.Sprintf("new/%05d/%d", gen-3, i)})
				}
				return db.Apply(muts)
			}
			if err := apply(0); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						root := db.table("t")
						first := treeContents(root)
						gens := 0
						var gen string
						for _, e := range first {
							if !strings.HasPrefix(e.key, "gen/") {
								continue
							}
							if gens++; gens == 1 {
								gen = e.val
							}
							if e.val != gen {
								t.Errorf("a root holds half a batch: %s = %s after generation %s", e.key, e.val, gen)
								return
							}
						}
						if gens != batch {
							t.Errorf("a root holds %d of the batch's %d keys", gens, batch)
							return
						}
						if again := treeContents(root); !entriesEqual(first, again) {
							t.Errorf("a loaded root moved between two walks")
							return
						}
					}
				}()
			}
			for gen := 1; gen <= 300; gen++ {
				if err := apply(gen); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			checkStoreTrees(t, name, db)
		})
	}
}

// nodeImage is a deep copy of what one node holds: its entries (a
// branch's separators, which later versions may share) and its slots.
type nodeImage struct {
	ents []entry
	kids []*node
}

// imageOf copies every node reachable from tr's root, keyed by address.
func imageOf(tr tree) map[*node]nodeImage {
	out := map[*node]nodeImage{}
	var walk func(n *node)
	walk = func(n *node) {
		img := nodeImage{kids: slices.Clone(n.kids)}
		for _, e := range n.ents {
			img.ents = append(img.ents, entry{e.key, strings.Clone(e.val)})
		}
		out[n] = img
		for _, c := range n.kids {
			walk(c)
		}
	}
	if tr.root != nil {
		walk(tr.root)
	}
	return out
}

// pathTo returns the nodes from tr's root down to the leaf holding key's
// position.
func pathTo(tr tree, key string) []*node {
	var out []*node
	for n := tr.root; ; n = n.kids[n.childFor(key)] {
		out = append(out, n)
		if n.kids == nil {
			return out
		}
	}
}

// TestMergeNeverWritesAPublishedNode pins the tree's one rule: a node is
// never written after it is made. After a one-record, a multi-record, an
// overflowing and a new-minimum apply onto a three-level table, every node
// on a path the apply touched is new, the version the apply started from
// reads byte for byte the same — its separators included — and the
// untouched nodes are shared rather than copied. A one-record apply that
// leaves every bound in place copies no separator array: each branch on its
// path shares the one it replaces.
func TestMergeNeverWritesAPublishedNode(t *testing.T) {
	im := newIndexModel()
	for c := 0; c < 12; c++ { // a table grown by merges, not bulk-loaded
		var recs []Record
		for i := c; i < 600; i += 12 {
			recs = append(recs, putRec("t", fmt.Sprintf("k%04d", i*2), "base"))
		}
		im.apply(t, fmt.Sprintf("grow %d", c), recs...)
	}
	base := im.x
	if d := depth(base[0].tree); d < 3 {
		t.Fatalf("base tree has depth %d, want 3", d)
	}
	var overflow []Record
	for i := 0; i < 3*maxItems; i++ {
		overflow = append(overflow, putRec("t", fmt.Sprintf("k0601/%02d", i), "run"))
	}
	for _, tc := range []struct {
		name string
		recs []Record
	}{
		{"one record", []Record{putRec("t", "k0101", "new")}},
		{"multi-record", []Record{
			putRec("t", "k0002", "over"), putRec("t", "k0301", "new"), putRec("t", "k0301", "again"),
			delRec("t", "k0600"), putRec("t", "k1197", "new"), putRec("t", "k0900", "over"),
		}},
		{"overflowing", overflow},
		{"new minimum", []Record{putRec("t", "a", "new")}},
	} {
		before := imageOf(base[0].tree)
		var m merger
		for _, rec := range tc.recs {
			m.add(rec)
		}
		next := m.apply(base)
		tr := next[0].tree
		checkTree(t, tc.name, tr)
		for _, rec := range tc.recs {
			for d, n := range pathTo(tr, rec.Key) {
				if _, old := before[n]; old {
					t.Fatalf("%s: the depth-%d node on %s's path belongs to the version before", tc.name, d, rec.Key)
				}
			}
		}
		if after := imageOf(base[0].tree); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the version the apply started from changed", tc.name)
		}
		shared := 0
		for n := range imageOf(tr) {
			if _, old := before[n]; old {
				shared++
			}
		}
		if shared < len(before)/2 {
			t.Fatalf("%s: the next version shares %d of %d nodes; untouched subtrees were copied", tc.name, shared, len(before))
		}
		if tc.name == "one record" && len(before)-shared > depth(tr) {
			t.Fatalf("one record: %d nodes replaced, want one path (%d)", len(before)-shared, depth(tr))
		}
		if tc.name == "one record" {
			oldPath := pathTo(base[0].tree, tc.recs[0].Key)
			for d, n := range pathTo(tr, tc.recs[0].Key) {
				if n.kids != nil && unsafe.SliceData(n.ents) != unsafe.SliceData(oldPath[d].ents) {
					t.Fatalf("one record: the depth-%d branch copied its separators", d)
				}
			}
		}
	}
}

// TestBatchPuttingAKeyTwiceIsLastWins: mutations of one Apply take effect in
// order — in memory, after replay of the one WAL record, and on a follower
// fed the same frame.
func TestBatchPuttingAKeyTwiceIsLastWins(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := leader.Apply([]Mutation{
		{Op: OpPut, Table: "tasks", Key: "p/t1", Value: jsonOf("assigned")},
		{Op: OpPut, Table: "posts", Key: "r/000000000001", Value: jsonOf(1)},
		{Op: OpPut, Table: "tasks", Key: "p/t1", Value: jsonOf("completed")},
		{Op: OpPut, Table: "tasks", Key: "p/t2", Value: jsonOf("assigned")},
		{Op: OpDelete, Table: "tasks", Key: "p/t2"},
		{Op: OpPut, Table: "tasks", Key: "p/t3", Value: jsonOf("gone")},
		{Op: OpDelete, Table: "tasks", Key: "p/t3"},
		{Op: OpPut, Table: "tasks", Key: "p/t3", Value: jsonOf("back")},
	}); err != nil {
		t.Fatal(err)
	}
	check := func(label string, db *DB) {
		t.Helper()
		var got string
		if err := db.Get("tasks", "p/t1", &got); err != nil || got != "completed" {
			t.Fatalf("%s: p/t1 = %q, %v; want the later value", label, got, err)
		}
		if db.Has("tasks", "p/t2") {
			t.Fatalf("%s: p/t2 survived its delete", label)
		}
		if err := db.Get("tasks", "p/t3", &got); err != nil || got != "back" {
			t.Fatalf("%s: p/t3 = %q, %v", label, got, err)
		}
		if n := db.Count("tasks"); n != 2 {
			t.Fatalf("%s: tasks holds %d keys, want 2", label, n)
		}
		checkStoreTrees(t, label, db)
	}
	check("memory", leader)
	catchUp(t, leader, follower, 0)
	check("follower", follower)
	if st := leader.Stats(); st.Commits != 1 {
		t.Fatalf("the batch cost %d commits, want 1", st.Commits)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	leader, err = Open(filepath.Join(dir, "leader.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	check("replay", leader)
}
