package store

// Scan-parity property suite for the tree read path: Scan/ScanPrefix/
// ScanRange/Count/CountPrefix/Get/Has/Tables must match, byte for byte, a
// map-iterate-sort reference (refStore — the oracle lives in test code
// only) over randomized Put/Delete/Apply/Compact/reopen/replication
// interleavings, with the trees' node invariants
// intact after every operation, and stay well-formed for readers running
// concurrently with write bursts and online compactions (run with -race in
// CI).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// refStore is the reference: a plain map plus the seed read-path algorithm
// (filter every key, sort, then visit).
type refStore map[string]map[string][]byte

func (m refStore) put(table, key string, raw []byte) {
	t := m[table]
	if t == nil {
		t = make(map[string][]byte)
		m[table] = t
	}
	t[key] = raw
}

func (m refStore) del(table, key string) { delete(m[table], key) }

type refEntry struct {
	key string
	raw []byte
}

// rangeRef reproduces the seed algorithm for [start, end) with a limit.
func (m refStore) rangeRef(table, start, end string, limit int) []refEntry {
	var out []refEntry
	for k, v := range m[table] {
		if k >= start && (end == "" || k < end) {
			out = append(out, refEntry{k, v})
		}
	}
	sortEntries(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (m refStore) prefixRef(table, prefix string) []refEntry {
	var out []refEntry
	for k, v := range m[table] {
		if strings.HasPrefix(k, prefix) {
			out = append(out, refEntry{k, v})
		}
	}
	sortEntries(out)
	return out
}

func sortEntries(es []refEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].key < es[j-1].key; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// collectRange drains a store's ScanRange into entries.
func collectRange(s Store, table, start, end string, limit int) []refEntry {
	var out []refEntry
	s.ScanRange(table, start, end, limit, func(k string, raw []byte) bool {
		out = append(out, refEntry{k, append([]byte(nil), raw...)})
		return true
	})
	return out
}

func entriesEqual(a, b []refEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || !bytes.Equal(a[i].raw, b[i].raw) {
			return false
		}
	}
	return true
}

// parityKeys builds the probe positions for a table: every live key plus
// synthetic neighbours, so range bounds land on, between and past keys.
func parityKeys(m refStore, table string) []string {
	probes := []string{"", "res-0/", "res-9/", "zzz"}
	for k := range m[table] {
		probes = append(probes, k, k+"\x00", k[:max(len(k)-1, 0)])
	}
	return probes
}

// checkParity asserts every read of a store against the reference.
func checkParity(t *testing.T, name string, s *DB, m refStore, r *rand.Rand, tables []string) {
	t.Helper()
	checkStoreTrees(t, name, s)
	// A table exists from its first put on, emptied or not.
	var wantTables []string
	for table := range m {
		wantTables = append(wantTables, table)
	}
	sort.Strings(wantTables)
	if got := s.Tables(); !slices.Equal(got, wantTables) {
		t.Fatalf("%s: Tables() = %q, want %q", name, got, wantTables)
	}
	for _, table := range tables {
		if got, want := s.Count(table), len(m[table]); got != want {
			t.Fatalf("%s: Count(%s) = %d, want %d", name, table, got, want)
		}
		// Whole-table scan parity (Scan == ScanPrefix "").
		var scanned []refEntry
		s.Scan(table, func(k string, raw []byte) bool {
			scanned = append(scanned, refEntry{k, append([]byte(nil), raw...)})
			return true
		})
		if want := m.prefixRef(table, ""); !entriesEqual(scanned, want) {
			t.Fatalf("%s: Scan(%s) diverged:\n got %d entries\n want %d entries", name, table, len(scanned), len(want))
		}
		// Prefix parity on a sampled set of prefixes (first-segment-pinned and not).
		for _, prefix := range []string{"", "res-0/", "res-1/", "res-0/0", "res-", "absent/", "\xff", "\xff\xff", "a\xff", "a\xff\xff"} {
			var got []refEntry
			s.ScanPrefix(table, prefix, func(k string, raw []byte) bool {
				got = append(got, refEntry{k, append([]byte(nil), raw...)})
				return true
			})
			if want := m.prefixRef(table, prefix); !entriesEqual(got, want) {
				t.Fatalf("%s: ScanPrefix(%s, %q) diverged", name, table, prefix)
			}
			if got, want := s.CountPrefix(table, prefix), len(m.prefixRef(table, prefix)); got != want {
				t.Fatalf("%s: CountPrefix(%s, %q) = %d, want %d", name, table, prefix, got, want)
			}
		}
		// Range parity on random bounds drawn from real key positions.
		probes := parityKeys(m, table)
		for i := 0; i < 20; i++ {
			start := probes[r.Intn(len(probes))]
			end := probes[r.Intn(len(probes))]
			if r.Intn(4) == 0 {
				end = ""
			}
			limit := r.Intn(6) // 0 = unbounded
			got := collectRange(s, table, start, end, limit)
			if want := m.rangeRef(table, start, end, limit); !entriesEqual(got, want) {
				t.Fatalf("%s: ScanRange(%s, %q, %q, %d) diverged:\n got  %v\n want %v",
					name, table, start, end, limit, got, want)
			}
		}
		// Point parity on a sample of live and absent keys.
		for k, want := range m[table] {
			var out json.RawMessage
			if err := s.Get(table, k, &out); err != nil {
				t.Fatalf("%s: Get(%s, %q): %v", name, table, k, err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%s: Get(%s, %q) = %s, want %s", name, table, k, out, want)
			}
			if !s.Has(table, k) {
				t.Fatalf("%s: Has(%s, %q) = false for live key", name, table, k)
			}
			break // one live key per table per round is enough
		}
		if s.Has(table, "absent/key") {
			t.Fatalf("%s: Has reports a phantom key", name)
		}
	}
	// Early termination visits exactly one entry and ScanRange's limit is
	// honored by the visit count it returns.
	for _, table := range tables {
		if len(m[table]) < 2 {
			continue
		}
		visits := 0
		s.Scan(table, func(string, []byte) bool { visits++; return false })
		if visits != 1 {
			t.Fatalf("%s: early-terminated Scan visited %d entries", name, visits)
		}
		if n := s.ScanRange(table, "", "", 1, func(string, []byte) bool { return true }); n != 1 {
			t.Fatalf("%s: ScanRange limit 1 visited %d", name, n)
		}
	}
}

// TestScanIndexParity pins the indexed read path byte-for-byte against the
// seed map-iterate-sort reference over randomized Put/Delete/Apply/Compact
// interleavings on a durable DB and a replication follower.
func TestScanIndexParity(t *testing.T) {
	seeds := []int64{3, 17, 2026}
	steps := 300
	if testing.Short() {
		seeds, steps = seeds[:1], 120
	}
	tables := []string{"posts", "tasks"}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentBytes: 1 << 10, AutoCompact: 8 << 10}
			db, err := Open(filepath.Join(dir, "db.wal"), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			// A follower fed by ReplTail/ApplyReplicated, falling back to
			// InstallSnapshot whenever compaction outran it.
			follower, err := Open(filepath.Join(dir, "follower.wal"), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			m := make(refStore)
			r := rand.New(rand.NewSource(seed))
			randKey := func() string {
				return fmt.Sprintf("res-%d/%03d", r.Intn(6), r.Intn(50))
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("db: %v", err)
				}
			}
			for i := 0; i < steps; i++ {
				switch n := r.Intn(100); {
				case n < 50:
					table, key, val := tables[r.Intn(2)], randKey(), r.Intn(10000)
					must(db.Put(table, key, val))
					m.put(table, key, []byte(fmt.Sprintf("%d", val)))
				case n < 68:
					table, key := tables[r.Intn(2)], randKey()
					must(db.Delete(table, key))
					m.del(table, key)
				case n < 82:
					var muts []Mutation
					for j := 0; j < 2+r.Intn(3); j++ {
						table, key := tables[r.Intn(2)], randKey()
						if r.Intn(4) == 0 {
							muts = append(muts, Mutation{Op: OpDelete, Table: table, Key: key})
						} else {
							muts = append(muts, Mutation{Op: OpPut, Table: table, Key: key, Value: jsonOf(j)})
						}
					}
					must(db.Apply(muts))
					for _, mu := range muts {
						if mu.Op == OpPut {
							m.put(mu.Table, mu.Key, mu.Value)
						} else {
							m.del(mu.Table, mu.Key)
						}
					}
				case n < 92:
					if err := db.Compact(); err != nil {
						t.Fatal(err)
					}
				default:
					// Reopen: the rebuilt-on-recovery index must match too.
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open(filepath.Join(dir, "db.wal"), opts); err != nil {
						t.Fatal(err)
					}
				}
				checkStoreTrees(t, "db", db)
				if i%23 == 0 || i == steps-1 {
					checkParity(t, "db", db, m, r, tables)
					catchUp(t, db, follower, 256)
					checkParity(t, "follower", follower, m, r, tables)
				}
			}
		})
	}
}

// TestTreeParityBinaryKeys drives random put/overwrite/delete/batch
// sequences over a tiny byte alphabet — empty keys, NULs, '/' and 0xff runs,
// the bytes prefixEnd has to carry over — at an in-memory DB, checking the node invariants after every operation and every read
// against the oracle: Get/Has, ScanPrefix and CountPrefix for every short
// prefix (empty and all-0xff included), ScanRange with limits, Count and
// Tables.
func TestTreeParityBinaryKeys(t *testing.T) {
	alphabet := []string{"\x00", "/", "a", "\xfe", "\xff"}
	var prefixes []string // every string of length <= 2 over the alphabet
	prefixes = append(prefixes, "")
	for _, a := range alphabet {
		prefixes = append(prefixes, a)
		for _, b := range alphabet {
			prefixes = append(prefixes, a+b)
		}
	}
	steps := 1500
	if testing.Short() {
		steps = 400
	}
	tables := []string{"t", "u"}
	for _, seed := range []int64{11, 12} {
		r := rand.New(rand.NewSource(seed))
		randKey := func() string {
			var b strings.Builder
			for n := r.Intn(5); n > 0; n-- {
				b.WriteString(alphabet[r.Intn(len(alphabet))])
			}
			return b.String()
		}
		const name = "db"
		s := OpenMemory()
		// Binary keys are what the tree must order and bound, not what Apply
		// takes (a name must be valid UTF-8): they enter below that rule,
		// through the commit Apply hands a checked group to.
		commit := func(muts ...Mutation) error {
			if len(muts) == 1 {
				return s.commitRecord(muts[0].Op, muts[0].Table, muts[0].Key, muts[0].Value, nil)
			}
			return s.commitRecord(OpBatch, "", "", nil, muts)
		}
		m := make(refStore)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkStoreTrees(t, name, s)
		}
		for i := 0; i < steps; i++ {
			switch n := r.Intn(10); {
			case n < 5:
				table, key := tables[r.Intn(2)], randKey()
				must(commit(Mutation{Op: OpPut, Table: table, Key: key, Value: jsonOf(i)}))
				m.put(table, key, []byte(fmt.Sprint(i)))
			case n < 8:
				table, key := tables[r.Intn(2)], randKey()
				must(commit(Mutation{Op: OpDelete, Table: table, Key: key}))
				m.del(table, key)
			default:
				var muts []Mutation
				for j := 0; j < 1+r.Intn(4); j++ {
					mu := Mutation{Op: OpPut, Table: tables[r.Intn(2)], Key: randKey(), Value: jsonOf(j)}
					if r.Intn(3) == 0 {
						mu.Op, mu.Value = OpDelete, nil
					}
					muts = append(muts, mu)
				}
				must(commit(muts...))
				for _, mu := range muts {
					if mu.Op == OpPut {
						m.put(mu.Table, mu.Key, mu.Value)
					} else if m[mu.Table] != nil {
						m.del(mu.Table, mu.Key)
					}
				}
			}
			if i%50 != 0 && i != steps-1 {
				continue
			}
			checkParity(t, name, s, m, r, s.Tables())
			for _, table := range s.Tables() {
				for _, prefix := range prefixes {
					want := m.prefixRef(table, prefix)
					var got []refEntry
					s.ScanPrefix(table, prefix, func(k string, raw []byte) bool {
						got = append(got, refEntry{k, append([]byte(nil), raw...)})
						return true
					})
					if !entriesEqual(got, want) {
						t.Fatalf("%s: ScanPrefix(%s, %q) = %d entries, want %d", name, table, prefix, len(got), len(want))
					}
					if n := s.CountPrefix(table, prefix); n != len(want) {
						t.Fatalf("%s: CountPrefix(%s, %q) = %d, want %d", name, table, prefix, n, len(want))
					}
					limit := 1 + r.Intn(3)
					got = collectRange(s, table, prefix, prefixEnd(prefix), limit)
					if len(want) > limit {
						want = want[:limit]
					}
					if !entriesEqual(got, want) {
						t.Fatalf("%s: ScanRange(%s, %q.., limit %d) diverged", name, table, prefix, limit)
					}
				}
			}
		}
		s.Close()
	}
}

// TestConcurrentReadersDuringCompactAndWrites races lock-free snapshot
// readers against write bursts and online compactions: every observed scan
// must be internally consistent (strictly ascending keys, in-bounds, values
// intact) even though it can interleave with any number of commits.
func TestConcurrentReadersDuringCompactAndWrites(t *testing.T) {
	t.Run("db", func(t *testing.T) {
		s, err := Open(filepath.Join(t.TempDir(), "db.wal"), Options{SegmentBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		writers, readers := 4, 4
		ops := 400
		if testing.Short() {
			ops = 120
		}
		var stop atomic.Bool
		var wWg, rWg sync.WaitGroup
		errCh := make(chan error, writers+readers+1)
		for w := 0; w < writers; w++ {
			wWg.Add(1)
			go func(w int) {
				defer wWg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("res-%d/%03d", r.Intn(4), r.Intn(64))
					var err error
					switch r.Intn(10) {
					case 0:
						err = s.Delete("posts", key)
					case 1:
						err = s.Apply([]Mutation{
							{Op: OpPut, Table: "posts", Key: key, Value: jsonOf(i)},
							{Op: OpPut, Table: "tasks", Key: key, Value: jsonOf(i)},
						})
					default:
						err = s.Put("posts", key, i)
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		rWg.Add(1)
		go func() {
			defer rWg.Done()
			for !stop.Load() {
				if err := s.Compact(); err != nil {
					errCh <- err
					return
				}
			}
		}()
		for g := 0; g < readers; g++ {
			rWg.Add(1)
			go func(g int) {
				defer rWg.Done()
				r := rand.New(rand.NewSource(int64(100 + g)))
				for !stop.Load() {
					prefix := fmt.Sprintf("res-%d/", r.Intn(4))
					last := ""
					s.ScanPrefix("posts", prefix, func(k string, raw []byte) bool {
						if !strings.HasPrefix(k, prefix) {
							errCh <- fmt.Errorf("scan escaped prefix %q: %q", prefix, k)
							return false
						}
						if last != "" && k <= last {
							errCh <- fmt.Errorf("scan out of order: %q after %q", k, last)
							return false
						}
						if len(raw) == 0 {
							errCh <- fmt.Errorf("empty value at %q", k)
							return false
						}
						last = k
						return true
					})
					n := s.ScanRange("posts", prefix, prefixEnd(prefix), 5, func(string, []byte) bool { return true })
					if n > 5 {
						errCh <- fmt.Errorf("ScanRange limit overrun: %d", n)
						return
					}
					s.CountPrefix("posts", prefix)
					var out int
					_ = s.Get("posts", prefix+"001", &out)
				}
			}(g)
		}

		// Writers run to completion, then readers and the compactor are
		// told to stop — every reader overlapped the full write burst.
		wWg.Wait()
		stop.Store(true)
		rWg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}

		// Quiescent: the indexed state must equal the authoritative maps.
		var keys []string
		s.Scan("posts", func(k string, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != s.Count("posts") {
			t.Fatalf("Scan saw %d keys, Count says %d", len(keys), s.Count("posts"))
		}
	})
}
