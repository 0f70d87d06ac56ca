package store

// The store's one model. A write the store acknowledges must read back the
// same through every path that rebuilds state: the live index, a reopen
// from segments, a compaction and reopen, a snapshot installed on a fresh
// store, the WAL tail shipped to a follower, and a reopen after a crash at
// any file operation and byte. TestStoreModel runs seeded
// histories of puts, deletes and multi-record applies over names drawn from
// the edge cases of the frame codec, and holds every one of those readings
// to one map (model) through one reader (model.check). The other tests of
// this package that compare a store with what it should hold — the scan
// parity over binary keys, the merger-level tests, the corruption fuzzers, the
// follower and golden checks — take their expected state from a model too.
// A single history replays with -run 'TestStoreModel/seed17$'.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"itag/internal/errs"
)

// model is what a store must read back: table → key → raw value. A table
// is present while it holds a key. A value is the slice the write handed
// in, never copied: a test does not change a value it wrote.
type model map[string]map[string][]byte

// apply folds muts into m in order: the last write to a key wins.
func (m model) apply(muts ...Mutation) {
	for _, mu := range muts {
		tab := m[mu.Table]
		switch {
		case mu.Op == OpPut && tab == nil:
			m[mu.Table] = map[string][]byte{mu.Key: mu.Value}
		case mu.Op == OpPut:
			tab[mu.Key] = mu.Value
		case tab != nil:
			delete(tab, mu.Key)
			if len(tab) == 0 {
				delete(m, mu.Table)
			}
		}
	}
}

func (m model) clone() model {
	out := make(model, len(m))
	for table, rows := range m {
		cp := make(map[string][]byte, len(rows))
		for k, v := range rows {
			cp[k] = v
		}
		out[table] = cp
	}
	return out
}

// modelOf reads one version of a store's index into a model: how a test
// takes the state of a store it did not write through a model of its own —
// a leader to hold its follower to, a recovered store to match to a prefix
// of the history that wrote it.
func modelOf(x dbIndex) model {
	m := model{}
	for _, t := range x {
		for it := t.iter("", ""); it.ok; it.advance() {
			m.apply(Mutation{Op: OpPut, Table: t.name, Key: it.key, Value: it.val})
		}
	}
	return m
}

// diff returns how an index version differs from m, or "" when it holds
// exactly m: the same tables, and in each the same keys with the same
// values. It walks each tree once against m's maps, sorting nothing.
func (m model) diff(x dbIndex) string {
	if len(x) != len(m) {
		return fmt.Sprintf("the index holds %d tables, the model %d", len(x), len(m))
	}
	for _, t := range x {
		rows, ok := m[t.name]
		if !ok || t.n != len(rows) {
			return fmt.Sprintf("table %q holds %d keys, the model %d", t.name, t.n, len(rows))
		}
		prev := ""
		for it, n := t.iter("", ""), 0; it.ok; it.advance() {
			if v, ok := rows[it.key]; !ok || !bytes.Equal(v, it.val) {
				return fmt.Sprintf("table %q holds %q = %s, the model %s (held %v)", t.name, it.key, it.val, v, ok)
			}
			if n++; n > 1 && it.key <= prev {
				return fmt.Sprintf("table %q iterates %q after %q", t.name, it.key, prev)
			}
			prev = it.key
		}
	}
	return ""
}

// entries returns table's entries in key order.
func (m model) entries(table string) []entry {
	out := make([]entry, 0, len(m[table]))
	for k, v := range m[table] {
		out = append(out, entry{k, string(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// within returns the run of all — entries in key order — with keys in
// [start, end), end "" unbounded, at most limit of them (0: all).
func within(all []entry, start, end string, limit int) []entry {
	i := sort.Search(len(all), func(i int) bool { return all[i].key >= start })
	j := len(all)
	if end != "" {
		j = max(i, sort.Search(len(all), func(j int) bool { return all[j].key >= end }))
	}
	if limit > 0 && j-i > limit {
		j = i + limit
	}
	return all[i:j]
}

// withPrefix returns the run of all — entries in key order — whose keys
// start with prefix.
func withPrefix(all []entry, prefix string) []entry {
	run := within(all, prefix, "", 0)
	n := 0
	for n < len(run) && strings.HasPrefix(run[n].key, prefix) {
		n++
	}
	return run[:n]
}

// scanned drains one scan of a store into entries, its values copied.
func scanned(scan func(visit func(string, []byte) bool)) []entry {
	var out []entry
	scan(func(k string, raw []byte) bool {
		out = append(out, entry{k, string(raw)})
		return true
	})
	return out
}

func entriesEqual(a, b []entry) bool {
	return slices.Equal(a, b)
}

// check is the reader: it holds db to m through every read the store
// answers — Tables, Count, Scan and its early stop, Get and Has of every
// key and of absent ones, ScanPrefix and CountPrefix at drawn prefixes,
// ScanRange at drawn bounds and limits — and checks every table's tree
// invariants. r draws the bounds; nil draws them from a fixed seed.
func (m model) check(t testing.TB, label string, db *DB, r *rand.Rand) {
	t.Helper()
	if r == nil {
		r = rand.New(rand.NewSource(1))
	}
	checkStoreTrees(t, label, db)
	tables := make([]string, 0, len(m))
	for table := range m {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	if got := db.Tables(); !slices.Equal(got, tables) {
		t.Fatalf("%s: Tables() = %q, want %q", label, got, tables)
	}
	absentTable := "absent"
	for m[absentTable] != nil {
		absentTable += "!"
	}
	for _, table := range append(tables, absentTable) {
		rows := m[table]
		all := m.entries(table)
		if n := db.Count(table); n != len(all) {
			t.Fatalf("%s: Count(%q) = %d, want %d", label, table, n, len(all))
		}
		if got := scanned(func(v func(string, []byte) bool) { db.Scan(table, v) }); !entriesEqual(got, all) {
			t.Fatalf("%s: Scan(%q) read %d entries %q, want %d %q", label, table, len(got), got, len(all), all)
		}
		if len(all) > 1 {
			visits := 0
			db.Scan(table, func(string, []byte) bool { visits++; return false })
			if visits != 1 {
				t.Fatalf("%s: a Scan of %q stopped at once visited %d entries", label, table, visits)
			}
		}
		probes := []string{"", "\xff"}
		for _, e := range all {
			var raw json.RawMessage
			if err := db.Get(table, e.key, &raw); err != nil || string(raw) != e.val {
				t.Fatalf("%s: Get(%q, %q) = %s, %v; want %s", label, table, e.key, raw, err, e.val)
			}
			if !db.Has(table, e.key) {
				t.Fatalf("%s: Has(%q, %q) = false for a live key", label, table, e.key)
			}
			probes = append(probes, e.key, e.key+"\x00", e.key[:len(e.key)-min(len(e.key), 1)])
		}
		for _, k := range probes {
			if _, live := rows[k]; live {
				continue
			}
			var raw json.RawMessage
			if db.Has(table, k) || !errors.Is(db.Get(table, k, &raw), ErrNotFound) {
				t.Fatalf("%s: (%q, %q) reads as present, the model has no such key", label, table, k)
			}
		}
		for i := 0; i < 4; i++ {
			k := probes[r.Intn(len(probes))]
			prefix := k[:r.Intn(len(k)+1)]
			want := withPrefix(all, prefix)
			if got := scanned(func(v func(string, []byte) bool) { db.ScanPrefix(table, prefix, v) }); !entriesEqual(got, want) {
				t.Fatalf("%s: ScanPrefix(%q, %q) read %q, want %q", label, table, prefix, got, want)
			}
			if n := db.CountPrefix(table, prefix); n != len(want) {
				t.Fatalf("%s: CountPrefix(%q, %q) = %d, want %d", label, table, prefix, n, len(want))
			}
		}
		for i := 0; i < 6; i++ {
			start, end := probes[r.Intn(len(probes))], probes[r.Intn(len(probes))]
			if r.Intn(3) == 0 {
				end = ""
			}
			limit := r.Intn(4) // 0: unbounded
			want := within(all, start, end, limit)
			var got []entry
			n := db.ScanRange(table, start, end, limit, func(k string, raw []byte) bool {
				got = append(got, entry{k, string(raw)})
				return true
			})
			if !entriesEqual(got, want) || n != len(got) {
				t.Fatalf("%s: ScanRange(%q, %q, %q, %d) read %q (returned %d), want %q", label, table, start, end, limit, got, n, want)
			}
		}
	}
}

// modelTables and modelNames are what a history names its writes from: the
// names a frame has to carry as JSON strings — empty, 300 bytes long, the
// line separator and the HTML characters encoding/json escapes, a rune
// outside the BMP — and plain ones beside them.
var (
	modelTables = []string{"posts", "", "t<&>\u2028\U0001D11E"}
	modelNames  = []string{"", strings.Repeat("k", 300), "a\u2028b", "<a&b>", "\U0001F3F7", "res-1", "res-1/", "res-10"}
)

// drawKey draws a key, most of the time one the table already holds.
func drawKey(r *rand.Rand, m model, table string) string {
	if rows := m[table]; len(rows) > 0 && r.Intn(3) > 0 {
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys[r.Intn(len(keys))]
	}
	return modelNames[r.Intn(len(modelNames))] + []string{"", "/0", "/1"}[r.Intn(3)]
}

// drawWrite draws one step of a history and makes it: a put, a delete (of
// a held key, mostly) or a multi-record apply, which repeats a key inside
// itself half the time. It returns the mutations and the store's answer.
func drawWrite(r *rand.Rand, db *DB, m model, step int) ([]Mutation, error) {
	table := modelTables[r.Intn(len(modelTables))]
	var muts []Mutation
	var err error
	switch n := r.Intn(10); {
	case n < 4:
		key, val := drawKey(r, m, table), step*100+r.Intn(100)
		muts = []Mutation{{Op: OpPut, Table: table, Key: key, Value: []byte(strconv.Itoa(val))}}
		err = db.Put(table, key, val)
	case n < 6:
		muts = []Mutation{{Op: OpDelete, Table: table, Key: drawKey(r, m, table)}}
		err = db.Delete(table, muts[0].Key)
	default:
		for j := 0; j < 2+r.Intn(5); j++ {
			mu := Mutation{Op: OpPut, Table: modelTables[r.Intn(len(modelTables))]}
			mu.Key = drawKey(r, m, mu.Table)
			if j == 1 && r.Intn(2) == 0 {
				mu.Table, mu.Key = muts[0].Table, muts[0].Key
			}
			if r.Intn(4) == 0 {
				mu.Op = OpDelete
			} else {
				mu.Value = jsonOf(fmt.Sprintf("%s#%d.%d", mu.Key, step, j))
			}
			muts = append(muts, mu)
		}
		err = db.Apply(muts)
	}
	return muts, err
}

// refuseNonUTF8 makes one write that names a table or key that is not valid
// UTF-8 — a put, a delete, or one record of an apply — and requires the
// store to refuse it whole as a validation error, writing nothing.
func refuseNonUTF8(t *testing.T, r *rand.Rand, db *DB, step int) {
	t.Helper()
	table, key := modelTables[r.Intn(len(modelTables))], modelNames[r.Intn(len(modelNames))]
	if r.Intn(2) == 0 {
		table += "\xff"
	} else {
		key = key + "\xc3"
	}
	seq := db.Seq()
	var err error
	switch r.Intn(3) {
	case 0:
		err = db.Put(table, key, step)
	case 1:
		err = db.Delete(table, key)
	default:
		err = db.Apply([]Mutation{
			{Op: OpPut, Table: "posts", Key: "good", Value: jsonOf(step)},
			{Op: OpPut, Table: table, Key: key, Value: jsonOf(step)},
		})
	}
	if errs.CategoryOf(err) != errs.CategoryValidation || db.Seq() != seq {
		t.Fatalf("step %d: a write naming %q/%q = %v at seq %d → %d; want a validation error and nothing written", step, table, key, err, seq, db.Seq())
	}
}

// TestStoreModel runs 200 seeded histories, four at a time: most of a
// history's time is file creation and fsync, not CPU.
func TestStoreModel(t *testing.T) {
	seeds := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { modelHistory(t, seed) })
			}
		}()
	}
	for seed := int64(1); seed <= 200; seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
}

// modelHistory runs one seeded history. After every step the live store
// must read as the model; at the last step, and at one drawn prefix before
// it in a third of the histories, so must four
// read-backs: the WAL tail shipped to a durable follower in drawn chunk
// sizes (one byte included: one record per shipment), a SnapshotExport
// installed on a fresh durable store, a reopen from the segments, and a
// compaction followed by a reopen. At one drawn step before the last the
// store crashes (crashStep). The history goes on from each reopened store,
// so later steps and read-backs start from a snapshot and a tail.
func modelHistory(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	// The crash's draws come from a stream of their own, so a history draws
	// the writes it drew before the crash reading was added, up to its crash.
	cr := rand.New(rand.NewSource(^seed))
	dir := t.TempDir()
	path := filepath.Join(dir, "db.wal")
	// A quarter of the histories rotate segments every few KiB; the rest
	// keep one segment, since creating a file dominates a history's time.
	var hook crashHook
	opts := Options{SegmentBytes: []int64{4 << 10, 1 << 20, 1 << 20, 1 << 20}[r.Intn(4)], Fault: hook.fault}
	db := mustOpen(t, path, opts)
	defer func() { db.Close() }()
	follower := mustOpen(t, filepath.Join(dir, "follower.wal"), Options{})
	defer follower.Close()
	m := model{}
	steps := 12 + r.Intn(12)
	refused, sampled := r.Intn(steps), r.Intn(3*steps) // a third of the histories read back once before the end
	crashed := cr.Intn(steps - 1)
	for step := 0; step < steps; step++ {
		label := fmt.Sprintf("seed %d step %d", seed, step)
		if step == crashed {
			db, m = crashStep(t, label, m, db, follower, &hook, r, cr, path, opts, step)
		} else {
			muts, err := drawWrite(r, db, m, step)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			m.apply(muts...)
		}
		if step == refused {
			refuseNonUTF8(t, r, db, step)
		}
		m.check(t, label+" live", db, r)
		if step == sampled || step == steps-1 {
			db = readBack(t, label, m, db, follower, r, dir, opts)
		}
	}
}

// readBack takes the four read-backs of the store at dir/db.wal and holds
// each to m, returning the reopened store the history goes on with.
func readBack(t *testing.T, label string, m model, db, follower *DB, r *rand.Rand, dir string, opts Options) *DB {
	t.Helper()
	shipTail(t, label, db, follower, r)
	m.check(t, label+" shipped", follower, r)

	img, err := db.SnapshotExport()
	if err != nil {
		t.Fatalf("%s: SnapshotExport: %v", label, err)
	}
	fresh := mustOpen(t, filepath.Join(dir, fmt.Sprintf("fresh-%d.wal", db.Seq())), Options{})
	defer fresh.Close()
	if err := fresh.InstallSnapshot(img); err != nil || fresh.Seq() != db.Seq() {
		t.Fatalf("%s: InstallSnapshot = %v at seq %d, the image was taken at %d", label, err, fresh.Seq(), db.Seq())
	}
	m.check(t, label+" installed", fresh, r)

	reopen := func(what string) {
		t.Helper()
		seq := db.Seq()
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close before %s: %v", label, what, err)
		}
		db = mustOpen(t, filepath.Join(dir, "db.wal"), opts)
		if db.Seq() != seq {
			t.Fatalf("%s: %s recovered seq %d, want %d", label, what, db.Seq(), seq)
		}
		m.check(t, label+" "+what, db, r)
	}
	reopen("reopened")
	if err := db.Compact(); err != nil {
		t.Fatalf("%s: Compact: %v", label, err)
	}
	reopen("compacted and reopened")
	return db
}

// crashOps bounds the file operation a crash step draws to crash at: a
// step's write, a rotation after it, a compaction, a close and a reopen make
// about this many.
const crashOps = 16

// crashStep is the sixth reading. The step's write runs with the hook armed
// to crash the store at a drawn file operation, a write putting down a
// drawn prefix of its bytes; a compaction, a close, and a reopen and close
// follow under the same hook, so the crash lands in the append, a rotation,
// the compaction or the reopen's recovery (or, past them all, nowhere). The
// store reopened without the hook must read as the model after the write if
// the write was acknowledged, and otherwise as the model before it or after
// it: never a part of the write, never a resurrected delete. It returns the
// reopened store and its model.
func crashStep(t *testing.T, label string, m model, db, follower *DB, hook *crashHook, r, cr *rand.Rand, path string, opts Options, step int) (*DB, model) {
	t.Helper()
	keep := cr.Intn(1 << 30)
	hook.arm(func(_ FileOp, _ string, n int) (bool, int) { return true, keep % (n + 1) }, cr.Intn(crashOps))
	muts, werr := drawWrite(r, db, m, step)
	after := m.clone()
	after.apply(muts...)
	// The follower takes what the compaction is about to cover.
	shipTail(t, label, db, follower, cr)
	_ = db.Compact()
	_ = db.Close()
	if !hook.crashed() {
		if re, err := Open(path, opts); err == nil {
			_ = re.Close()
		}
	}
	hook.arm(nil, 0)
	opts.Fault = nil
	db = mustOpen(t, path, opts)
	got := db.loadIndex()
	switch {
	case after.diff(got) == "":
		m = after
	case werr == nil:
		t.Fatalf("%s: an acknowledged write is not recovered after a crash: %s", label, after.diff(got))
	case m.diff(got) != "":
		t.Fatalf("%s: a crash in a failed write (%v) recovered neither the state before it (%s) nor after it (%s)", label, werr, m.diff(got), after.diff(got))
	}
	m.check(t, label+" crashed and reopened", db, cr)
	return db, m
}

// shipTail ships db's WAL tail to follower in drawn chunk sizes (one byte
// included: one record per shipment) until the follower has everything db
// applied.
func shipTail(t *testing.T, label string, db, follower *DB, r *rand.Rand) {
	t.Helper()
	for {
		chunk := []int{1, 1, 150, 1 << 20}[r.Intn(4)]
		data, last, err := db.ReplTail(follower.AppliedSeq(), chunk, nil)
		if err != nil {
			t.Fatalf("%s: ReplTail(%d, %d): %v", label, follower.AppliedSeq(), chunk, err)
		}
		if len(data) == 0 {
			break
		}
		if applied, err := follower.ApplyReplicated(data); err != nil || applied != last {
			t.Fatalf("%s: ApplyReplicated = %d, %v; the tail ran to %d", label, applied, err, last)
		}
	}
	if fs, s := follower.AppliedSeq(), db.AppliedSeq(); fs != s {
		t.Fatalf("%s: the follower stopped at seq %d, the leader is at %d", label, fs, s)
	}
}

func mustOpen(t testing.TB, path string, opts Options) *DB {
	t.Helper()
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}
