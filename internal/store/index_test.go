package store

// Tests for the persistent B+tree behind DB (index.go): structural
// invariants after every operation, agreement with a map-plus-sort oracle
// (kept here, in test code, only), and snapshot isolation — a reader
// holding an old root keeps seeing exactly that version.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// checkTree asserts the node invariants of one tree version: keys strictly
// ascending across the whole tree, every separator a true bound (and
// repeated in the first slot of the branch it bounds), fill within
// [minItems, maxItems] below the root, leaves at one depth, and the
// recorded key count exact.
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
		if (n.ents == nil) == (n.kids == nil) {
			t.Fatalf("%s: node at depth %d is neither leaf nor branch (%d ents, %d kids)", label, depth, len(n.ents), len(n.kids))
		}
		min := minItems
		if isRoot {
			min = 1
			if n.kids != nil {
				min = 2
			}
		}
		if n.size() < min || n.size() > maxItems {
			t.Fatalf("%s: node at depth %d holds %d items, want [%d, %d]", label, depth, n.size(), min, maxItems)
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
		if bounded && n.kids[0].min != lo {
			t.Fatalf("%s: branch under separator %q carries %q in its first slot", label, lo, n.kids[0].min)
		}
		for i, c := range n.kids {
			if i == 0 {
				walk(c.n, depth+1, lo, bounded, false)
				continue
			}
			// Everything visited so far lies under earlier slots and must
			// be smaller than this slot's separator.
			if haveLast && last >= c.min {
				t.Fatalf("%s: separator %q does not exceed earlier key %q", label, c.min, last)
			}
			walk(c.n, depth+1, c.min, true, false)
		}
	}
	walk(tr.root, 0, "", false, true)
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
func treeContents(tr tree) []refEntry {
	var out []refEntry
	for it := tr.iter("", ""); it.ok; it.advance() {
		out = append(out, refEntry{it.key, it.val})
	}
	return out
}

func oracleContents(m map[string][]byte) []refEntry {
	out := make([]refEntry, 0, len(m))
	for k, v := range m {
		out = append(out, refEntry{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// TestTreeRandomOpsInvariants drives put/overwrite/delete straight at the
// tree, one apply (one token) per operation, checking the invariants and the full contents after every single
// operation, through growth to several levels and back down to empty.
func TestTreeRandomOpsInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		r := rand.New(rand.NewSource(seed))
		var tr tree
		oracle := map[string][]byte{}
		step := func(i int, del bool) {
			key := fmt.Sprintf("k%05d", r.Intn(1000))
			if del {
				delete(oracle, key)
				tr = tr.del(new(edit), key)
			} else {
				val := []byte(fmt.Sprintf("%d", i))
				oracle[key] = val
				tr = tr.put(new(edit), key, val)
			}
			checkTree(t, fmt.Sprintf("seed %d step %d", seed, i), tr)
			if i%97 == 0 {
				if got, want := treeContents(tr), oracleContents(oracle); !entriesEqual(got, want) {
					t.Fatalf("seed %d step %d: tree holds %d entries, oracle %d", seed, i, len(got), len(want))
				}
			}
			for k, want := range oracle {
				if got, ok := tr.get(k); !ok || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: get(%q) = %q, %v; want %q", seed, i, k, got, ok, want)
				}
				break
			}
			if _, ok := tr.get(key + "!"); ok {
				t.Fatalf("seed %d step %d: phantom key", seed, i)
			}
		}
		for i := 0; i < 3000; i++ { // grow: 4 puts to 1 delete
			step(i, r.Intn(5) == 0)
		}
		for i := 3000; i < 9000 && tr.n > 0; i++ { // drain: 5 deletes to 1 put
			step(i, r.Intn(6) != 0)
		}
		for k := range oracle {
			tr = tr.del(new(edit), k)
			delete(oracle, k)
			checkTree(t, fmt.Sprintf("seed %d final drain", seed), tr)
		}
		if tr.root != nil || tr.n != 0 {
			t.Fatalf("seed %d: drained tree not empty (n=%d)", seed, tr.n)
		}
	}
}

// TestBuildTreeInvariants bulk-loads every size around the node-fill
// boundaries and checks shape and contents.
func TestBuildTreeInvariants(t *testing.T) {
	sizes := []int{0, 1, 2, minItems, maxItems, maxItems + 1, 2*maxItems + 1, maxItems*maxItems - 1,
		maxItems * maxItems, maxItems*maxItems + 1, 5000}
	for _, n := range sizes {
		ents := make([]entry, n)
		for i := range ents {
			ents[i] = entry{fmt.Sprintf("k%06d", i), []byte(fmt.Sprintf("%d", i))}
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
		// A loaded tree must take further edits like a grown one.
		ed := new(edit)
		tr = tr.put(ed, "k000000!", []byte("1")).del(ed, "k000001")
		checkTree(t, fmt.Sprintf("buildTree(%d) edited", n), tr)
	}
}

// TestSnapshotIsolation: a reader holding an old root sees exactly the old
// contents — through Get, iteration and a half-consumed iterator — while
// 10k further commits (overwrites, inserts, deletes of the very keys it
// holds) go by. Readers run concurrently with the writer; run under -race.
func TestSnapshotIsolation(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	want := map[string][]byte{}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("res-%03d/%04d", i%50, i)
		if err := db.Put("posts", key, i); err != nil {
			t.Fatal(err)
		}
		want[key] = []byte(fmt.Sprintf("%d", i))
	}
	old := db.table("posts")
	oldWant := oracleContents(want)
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
		if got, ok := old.get(e.key); !ok || !bytes.Equal(got, e.raw) {
			t.Fatalf("old root get(%q) = %q, %v; want %q", e.key, got, ok, e.raw)
		}
	}
	for i := len(oldWant) / 2; i < len(oldWant); i++ {
		if !half.ok || half.key != oldWant[i].key || !bytes.Equal(half.val, oldWant[i].raw) {
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

// heldVersion is a published index kept by a test together with what every
// table held at that moment.
type heldVersion struct {
	idx  dbIndex
	want map[string][]refEntry
}

func (h heldVersion) check(t *testing.T, label string) {
	t.Helper()
	for _, tab := range h.idx {
		if got := treeContents(tab.tree); !entriesEqual(got, h.want[tab.name]) {
			t.Fatalf("%s: table %s drifted: %d entries, want %d", label, tab.name, len(got), len(h.want[tab.name]))
		}
		if tab.n != len(h.want[tab.name]) {
			t.Fatalf("%s: table %s count %d, want %d", label, tab.name, tab.n, len(h.want[tab.name]))
		}
	}
}

// TestTransientEditsKeepEveryVersion is the isolation property of the
// edit-in-place tree: random multi-record applies — repeated keys, puts and
// deletes mixed, two tables, batches large enough to split and pool the
// nodes the same apply just made — against the sorted-map model, holding
// EVERY published version and re-checking each of them byte for byte after
// every later apply. An apply that wrote a node it did not make shows up as
// drift in an older version.
func TestTransientEditsKeepEveryVersion(t *testing.T) {
	tables := []string{"posts", "tasks"}
	for _, seed := range []int64{3, 11} {
		r := rand.New(rand.NewSource(seed))
		db := OpenMemory()
		model := map[string]map[string][]byte{"posts": {}, "tasks": {}}
		var held []heldVersion
		hold := func() {
			h := heldVersion{idx: db.loadIndex(), want: map[string][]refEntry{}}
			for _, tab := range tables {
				h.want[tab] = oracleContents(model[tab])
			}
			held = append(held, h)
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
					delete(model[tab], key)
				} else {
					val := fmt.Sprintf("%d.%d", a, i)
					muts = append(muts, Mutation{Op: OpPut, Table: tab, Key: key, Value: jsonOf(val)})
					model[tab][key] = []byte(`"` + val + `"`)
				}
			}
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
						var gen []byte
						for _, e := range first {
							if !strings.HasPrefix(e.key, "gen/") {
								continue
							}
							if gens++; gen == nil {
								gen = e.raw
							}
							if !bytes.Equal(e.raw, gen) {
								t.Errorf("a root holds half a batch: %s = %s after generation %s", e.key, e.raw, gen)
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

// TestNoTokenNoInPlaceEdit pins the ownership rule from both sides: a put or
// delete under a nil token, or under a token other than the one that made
// the nodes, copies every node it touches — the version it started from is
// untouched — while the token that made a node does edit it in place (the
// positive control: without it the first half would pass on a tree that
// always copies).
func TestNoTokenNoInPlaceEdit(t *testing.T) {
	mine, foreign := new(edit), new(edit)
	var base tree
	for i := 0; i < 200; i++ { // three levels
		base = base.put(mine, fmt.Sprintf("k%04d", i*2), []byte("base"))
	}
	checkTree(t, "base", base)
	want := treeContents(base)
	path := func(tr tree, key string) []*node {
		var out []*node
		for n := tr.root; ; n = n.kids[n.childFor(key)].n {
			out = append(out, n)
			if n.kids == nil {
				return out
			}
		}
	}
	for name, ed := range map[string]*edit{"nil token": nil, "foreign token": foreign} {
		cur := base
		for round := 0; round < 3; round++ { // nil-stamped copies must not become nil-owned
			before, beforeWant := cur, treeContents(cur)
			next := cur.put(ed, "k0101", []byte(fmt.Sprintf("edit-%d", round)))
			next = next.del(ed, "k0104")
			next = next.put(ed, "k0104", []byte("back"))
			for depth, n := range path(next, "k0101") {
				if old := path(before, "k0101"); depth < len(old) && old[depth] == n {
					t.Fatalf("%s, round %d: depth-%d node on the edited path is shared with the version before", name, round, depth)
				}
			}
			if got := treeContents(before); !entriesEqual(got, beforeWant) {
				t.Fatalf("%s, round %d: the version before the edit changed", name, round)
			}
			checkTree(t, name, next)
			if ed == nil {
				cur = next // next round edits nodes stamped nil, under nil
			}
		}
		if got := treeContents(base); !entriesEqual(got, want) {
			t.Fatalf("%s: base changed", name)
		}
	}
	// Positive control: the owner writes in place — same nodes, new contents.
	before := path(base, "k0101")
	after := path(base.put(mine, "k0101", []byte("mine")), "k0101")
	for depth := range before {
		if before[depth] != after[depth] {
			t.Fatalf("the owning token copied its own depth-%d node", depth)
		}
	}
	if got, _ := base.get("k0101"); string(got) != "mine" {
		t.Fatalf("owner's in-place put not visible through the same root: %q", got)
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
