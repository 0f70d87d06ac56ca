package store

// Scan-parity suite for the tree read path: every read must match the
// model (model_test.go) byte for byte over auto-compacting interleavings
// with a follower and over binary keys, with the trees' node invariants
// intact after every operation, and stay well-formed for readers running
// concurrently with write bursts and online compactions (run with -race in
// CI).

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestScanIndexParity runs randomized Put/Delete/Apply/Compact/reopen
// interleavings on a durable DB that compacts on its own (small segments,
// AutoCompact), and a follower fed by ReplTail that falls back to
// InstallSnapshot whenever compaction outran it; both are held to the
// model, the leader's trees after every operation.
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
			db := mustOpen(t, filepath.Join(dir, "db.wal"), opts)
			defer func() { db.Close() }()
			follower := mustOpen(t, filepath.Join(dir, "follower.wal"), opts)
			defer follower.Close()
			m := model{}
			r := rand.New(rand.NewSource(seed))
			randKey := func() string {
				return fmt.Sprintf("res-%d/%03d", r.Intn(6), r.Intn(50))
			}
			for i := 0; i < steps; i++ {
				var muts []Mutation
				switch n := r.Intn(100); {
				case n < 50:
					muts = []Mutation{{Op: OpPut, Table: tables[r.Intn(2)], Key: randKey(), Value: jsonOf(r.Intn(10000))}}
				case n < 68:
					muts = []Mutation{{Op: OpDelete, Table: tables[r.Intn(2)], Key: randKey()}}
				case n < 82:
					for j := 0; j < 2+r.Intn(3); j++ {
						mu := Mutation{Op: OpPut, Table: tables[r.Intn(2)], Key: randKey(), Value: jsonOf(j)}
						if r.Intn(4) == 0 {
							mu.Op, mu.Value = OpDelete, nil
						}
						muts = append(muts, mu)
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
					db = mustOpen(t, filepath.Join(dir, "db.wal"), opts)
				}
				if err := db.Apply(muts); err != nil {
					t.Fatal(err)
				}
				m.apply(muts...)
				checkStoreTrees(t, "db", db)
				if i%23 == 0 || i == steps-1 {
					m.check(t, fmt.Sprintf("db step %d", i), db, r)
					catchUp(t, db, follower, 256)
					m.check(t, fmt.Sprintf("follower step %d", i), follower, r)
				}
			}
		})
	}
}

// TestTreeParityBinaryKeys drives random put/overwrite/delete/batch
// sequences over a tiny byte alphabet — empty keys, NULs, '/' and 0xff runs,
// the bytes prefixEnd has to carry over — at an in-memory DB, checking the
// node invariants after every operation, and every read against the model:
// its reader, then ScanPrefix, CountPrefix and a limited ScanRange for
// every short prefix (empty and all-0xff included).
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
		m := model{}
		for i := 0; i < steps; i++ {
			var muts []Mutation
			switch n := r.Intn(10); {
			case n < 5:
				muts = []Mutation{{Op: OpPut, Table: tables[r.Intn(2)], Key: randKey(), Value: jsonOf(i)}}
			case n < 8:
				muts = []Mutation{{Op: OpDelete, Table: tables[r.Intn(2)], Key: randKey()}}
			default:
				for j := 0; j < 1+r.Intn(4); j++ {
					mu := Mutation{Op: OpPut, Table: tables[r.Intn(2)], Key: randKey(), Value: jsonOf(j)}
					if r.Intn(3) == 0 {
						mu.Op, mu.Value = OpDelete, nil
					}
					muts = append(muts, mu)
				}
			}
			if err := commit(muts...); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m.apply(muts...)
			checkStoreTrees(t, name, s)
			if i%50 != 0 && i != steps-1 {
				continue
			}
			m.check(t, fmt.Sprintf("%s seed %d step %d", name, seed, i), s, r)
			for _, table := range s.Tables() {
				all := m.entries(table)
				for _, prefix := range prefixes {
					want := withPrefix(all, prefix)
					got := scanned(func(v func(string, []byte) bool) { s.ScanPrefix(table, prefix, v) })
					if !entriesEqual(got, want) {
						t.Fatalf("%s: ScanPrefix(%s, %q) = %d entries, want %d", name, table, prefix, len(got), len(want))
					}
					if n := s.CountPrefix(table, prefix); n != len(want) {
						t.Fatalf("%s: CountPrefix(%s, %q) = %d, want %d", name, table, prefix, n, len(want))
					}
					limit := 1 + r.Intn(3)
					got = scanned(func(v func(string, []byte) bool) {
						s.ScanRange(table, prefix, prefixEnd(prefix), limit, v)
					})
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
