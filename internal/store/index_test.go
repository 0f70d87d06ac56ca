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
// tree, checking the invariants and the full contents after every single
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
				tr = tr.del(key)
			} else {
				val := []byte(fmt.Sprintf("%d", i))
				oracle[key] = val
				tr = tr.put(key, val)
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
			tr = tr.del(k)
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
		tr = tr.put("k000000!", []byte("1")).del("k000001")
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
			muts = append(muts, Mutation{Op: OpPut, Table: "t", Key: fmt.Sprintf("k%07d", i), Value: i})
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
