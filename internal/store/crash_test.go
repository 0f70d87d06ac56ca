package store

// Crash-injection harness: a store's fault hook kills it mid-append,
// mid-rotation and mid-snapshot-swap, then reopening must recover every
// acknowledged commit and drop at most the torn tail.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// crashSite says whether a file operation is the one to crash a store at,
// and how many bytes of a write to put down first.
type crashSite func(op FileOp, path string, n int) (hit bool, keep int)

// The crash matrix's sites, each an (operation, path) fault.
var (
	// tearAppend dies halfway through a batch's write to a segment, leaving
	// a torn record on disk.
	tearAppend crashSite = func(op FileOp, path string, n int) (bool, int) {
		return op == FileWrite && strings.Contains(path, segPrefix), n / 2
	}
	// atSnapshotCreate dies right after the compaction cut: the covered
	// segments are sealed and a fresh one is active, but no snapshot byte
	// has been written (recovery must replay every segment).
	atSnapshotCreate = opOn(FileCreate, snapTmpSuffix)
	// atSnapshotRename dies after writing the snapshot temp file but before
	// the atomic rename (the old snapshot, if any, stays in force).
	atSnapshotRename = opOn(FileRename, snapTmpSuffix)
	// atSegmentRemove dies after the snapshot rename, at the first removal
	// of a covered segment (recovery must skip them by seq).
	atSegmentRemove = opOn(FileRemove, segPrefix)
)

// opOn is the site of every op on a path containing frag.
func opOn(want FileOp, frag string) crashSite {
	return func(op FileOp, path string, _ int) (bool, int) {
		return op == want && strings.Contains(path, frag), 0
	}
}

// atNewSegmentWrite dies between sealing a segment and writing to its
// successor: the successor is created, and its first write crashes before
// any byte reaches it.
func atNewSegmentWrite() crashSite {
	var fresh string
	return func(op FileOp, path string, _ int) (bool, int) {
		if op == FileCreate && strings.Contains(path, segPrefix) {
			fresh = path
		}
		return op == FileWrite && path == fresh, 0
	}
}

// crashHook is a test's FaultHook: disarmed it lets every operation
// through; armed with a site, it lets skip hits of the site through,
// crashes the store at the next one and disarms.
type crashHook struct {
	mu    sync.Mutex
	site  crashSite
	skip  int
	fired bool
}

// arm sets the site and the hits to let through; a nil site disarms.
func (h *crashHook) arm(site crashSite, skip int) {
	h.mu.Lock()
	h.site, h.skip, h.fired = site, skip, false
	h.mu.Unlock()
}

// crashed reports whether the hook crashed a store since it was armed.
func (h *crashHook) crashed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fired
}

// fault is the FaultHook to open the store with.
func (h *crashHook) fault(op FileOp, path string, n int) (bool, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.site == nil {
		return false, 0
	}
	hit, keep := h.site(op, path, n)
	if !hit {
		return false, 0
	}
	if h.skip > 0 {
		h.skip--
		return false, 0
	}
	h.site, h.fired = nil, true
	return true, keep
}

// crashCase describes one injection scenario.
type crashCase struct {
	name string
	site func() crashSite
	// after lets N hits of the site through before crashing.
	after int
	// compact runs Compact after the write phase (for the snapshot sites,
	// which only fire during compaction) and requires it to crash.
	compact bool
}

func crashCases() []crashCase {
	return []crashCase{
		{name: "mid-append", site: func() crashSite { return tearAppend }, after: 4},
		{name: "mid-rotation", site: atNewSegmentWrite, after: 0},
		{name: "snapshot-before-rename", site: func() crashSite { return atSnapshotRename }, compact: true},
		{name: "snapshot-before-cleanup", site: func() crashSite { return atSegmentRemove }, compact: true},
	}
}

// crashOpts keeps segments small so every scenario crosses rotations.
func crashOpts() Options {
	return Options{SyncEvery: 1, SegmentBytes: 512}
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
			var hook crashHook
			opts := crashOpts()
			opts.Fault = hook.fault
			db, err := Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := newCrashModel()
			if tc.compact {
				// Snapshot sites fire only inside Compact: write cleanly,
				// then crash the compaction.
				crashWorkload(t, db, m, 4, 40)
				hook.arm(tc.site(), tc.after)
				if cerr := db.Compact(); !errors.Is(cerr, ErrCrashed) {
					t.Fatalf("Compact with %s armed: err = %v, want ErrCrashed", tc.name, cerr)
				}
				if perr := db.Put("crash", "post-crash", 1); !errors.Is(perr, ErrCrashed) {
					t.Fatalf("wedged store accepted a write: %v", perr)
				}
			} else {
				hook.arm(tc.site(), tc.after)
				crashWorkload(t, db, m, 8, 200)
				if serr := db.Err(); !errors.Is(serr, ErrCrashed) {
					t.Fatalf("the crash never fired (sticky err %v); workload too small?", serr)
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
