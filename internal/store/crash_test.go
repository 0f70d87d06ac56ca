package store

// Crash-injection harness: failpoints kill the WAL mid-append, mid-rotation
// and mid-snapshot-swap, then reopening must recover every acknowledged
// commit and drop at most the torn tail.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// crashCase describes one injection scenario.
type crashCase struct {
	name string
	site Failpoint
	// after lets N hits of the site through before crashing.
	after int32
	// compact runs Compact after the write phase (for the snapshot sites,
	// which only fire during compaction) and requires it to crash.
	compact bool
}

func crashCases() []crashCase {
	return []crashCase{
		{name: "mid-append", site: FailAppendMid, after: 4},
		{name: "mid-rotation", site: FailRotateMid, after: 0},
		{name: "snapshot-before-rename", site: FailSnapshotBeforeRename, compact: true},
		{name: "snapshot-before-cleanup", site: FailSnapshotBeforeCleanup, compact: true},
	}
}

// crashOpts keeps segments small so every scenario crosses rotations.
func crashOpts() Options {
	return Options{SyncEvery: 1, SegmentBytes: 512}
}

// armFailpoint installs tc's countdown hook on db.
func armFailpoint(tc crashCase, db *DB) {
	var hits atomic.Int32
	db.SetFailpoint(func(p Failpoint) bool {
		if p != tc.site {
			return false
		}
		return hits.Add(1) > tc.after
	})
}

// crashModel tracks, per worker, the expected post-recovery state. Keys are
// worker-unique, so each worker's view is authoritative for its keys.
type crashModel struct {
	mu sync.Mutex
	// want maps acked keys to their expected value; -1 means "acked as
	// deleted".
	want map[string]int
	// uncertain holds keys whose last op failed: the record may or may not
	// have reached disk, so recovery owes no particular state for them.
	uncertain map[string]bool
}

func newCrashModel() *crashModel {
	return &crashModel{want: make(map[string]int), uncertain: make(map[string]bool)}
}

// crashWorkload hammers the store with worker-unique puts (and periodic
// deletes) until ops run out or the store wedges. Every acked op is
// recorded in the model; the first failed op marks its key uncertain.
func crashWorkload(t *testing.T, s Store, m *crashModel, workers, ops int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("res-%02d/%04d", w, i)
				if err := s.Put("crash", key, i); err != nil {
					m.mu.Lock()
					m.uncertain[key] = true
					m.mu.Unlock()
					return
				}
				m.mu.Lock()
				m.want[key] = i
				m.mu.Unlock()
				if i%7 == 6 {
					victim := fmt.Sprintf("res-%02d/%04d", w, i-3)
					if err := s.Delete("crash", victim); err != nil {
						m.mu.Lock()
						m.uncertain[victim] = true
						m.mu.Unlock()
						return
					}
					m.mu.Lock()
					m.want[victim] = -1
					m.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
}

// verifyRecovered asserts the reopened store holds exactly what the model
// promises: every acked put present with its value, every acked delete
// absent, uncertain keys unconstrained, and nothing recovered that was
// never written.
func verifyRecovered(t *testing.T, s Store, m *crashModel) {
	t.Helper()
	lost, resurrected := 0, 0
	for key, val := range m.want {
		if m.uncertain[key] {
			continue
		}
		var got int
		err := s.Get("crash", key, &got)
		switch {
		case val >= 0 && err != nil:
			lost++
			if lost <= 5 {
				t.Errorf("acked key %s lost after recovery: %v", key, err)
			}
		case val >= 0 && got != val:
			t.Errorf("acked key %s recovered with value %d, want %d", key, got, val)
		case val < 0 && err == nil:
			resurrected++
			if resurrected <= 5 {
				t.Errorf("deleted key %s resurrected after recovery (value %d)", key, got)
			}
		}
	}
	if lost > 0 || resurrected > 0 {
		t.Fatalf("recovery broke durability: %d acked records lost, %d deleted keys resurrected", lost, resurrected)
	}
	s.Scan("crash", func(key string, _ []byte) bool {
		m.mu.Lock()
		_, acked := m.want[key]
		uncertain := m.uncertain[key]
		m.mu.Unlock()
		if !acked && !uncertain {
			t.Errorf("recovered key %s was never written", key)
		}
		return true
	})
}

func TestCrashInjectionDB(t *testing.T) {
	for _, tc := range crashCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			db, err := Open(path, crashOpts())
			if err != nil {
				t.Fatal(err)
			}
			m := newCrashModel()
			if tc.compact {
				// Snapshot sites fire only inside Compact: write cleanly,
				// then crash the compaction.
				crashWorkload(t, db, m, 4, 40)
				armFailpoint(tc, db)
				if cerr := db.Compact(); !errors.Is(cerr, ErrCrashed) {
					t.Fatalf("Compact with %s armed: err = %v, want ErrCrashed", tc.site, cerr)
				}
				if perr := db.Put("crash", "post-crash", 1); !errors.Is(perr, ErrCrashed) {
					t.Fatalf("wedged store accepted a write: %v", perr)
				}
			} else {
				armFailpoint(tc, db)
				crashWorkload(t, db, m, 8, 200)
				if serr := db.Err(); !errors.Is(serr, ErrCrashed) {
					t.Fatalf("failpoint never fired (sticky err %v); workload too small?", serr)
				}
			}
			_ = db.Close() // the "dead process" releasing descriptors

			db2, err := Open(path, crashOpts())
			if err != nil {
				t.Fatalf("recovery after %s failed: %v", tc.name, err)
			}
			defer db2.Close()
			verifyRecovered(t, db2, m)
			// Recovered stores must accept new writes and survive another
			// reopen cycle.
			if err := db2.Put("crash", "after-recovery", 42); err != nil {
				t.Fatalf("recovered store rejected write: %v", err)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			db3, err := Open(path, crashOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer db3.Close()
			var v int
			if err := db3.Get("crash", "after-recovery", &v); err != nil || v != 42 {
				t.Fatalf("post-recovery write lost: %v (v=%d)", err, v)
			}
		})
	}
}
