package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestReplTailInsideCompactionWindow lands a ReplTail from inside the
// covered segments between a compaction cut and the snapshot rename. In
// that window the snapshot sequence still trails the cut, so the tail must
// stay servable: the covered segments remain on the sealed list until the
// rename. (They used to leave it at the cut; a follower pulling from inside
// them then met the first post-cut record and got a sequence-gap corruption
// error instead of its records or ErrSnapshotNeeded.) Once the compaction
// finishes the same pull answers ErrSnapshotNeeded.
//
// The window is entered at two file operations of the compaction, neither
// under the WAL's file lock: the create of the snapshot temp file (right
// after the cut) and its sync (right before the rename).
func TestReplTailInsideCompactionWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   FileOp
	}{{"snapshot:after-cut", FileCreate}, {"snapshot:before-rename", FileSync}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var (
				leader   *DB
				inWindow bool
				data     []byte
				last     uint64
				tailErr  error
				from     uint64
				armed    atomic.Bool
			)
			// The hook runs inside the window: no crash, the compaction
			// carries on once it returns.
			hook := func(op FileOp, path string, _ int) (bool, int) {
				if op != tc.op || !strings.HasSuffix(path, snapTmpSuffix) || !armed.CompareAndSwap(true, false) {
					return false, 0
				}
				inWindow = true
				if got := leader.Stats().SnapshotSeq; got != 0 {
					t.Errorf("snapshot seq already %d inside the window", got)
				}
				// A write after the cut: the record a gapped tail trips on.
				if err := leader.Put("posts", "res-9/after-cut", 1); err != nil {
					t.Errorf("post-cut write: %v", err)
				}
				data, last, tailErr = leader.ReplTail(from, 1<<20, nil)
				return false, 0
			}
			opts := Options{SegmentBytes: 256}
			leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SegmentBytes: 256, Fault: hook})
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			follower, err := Open(filepath.Join(dir, "follower.wal"), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			for i := 0; i < 60; i++ {
				if err := leader.Put("posts", fmt.Sprintf("res-%d/%03d", i%4, i), i); err != nil {
					t.Fatal(err)
				}
			}
			if st := leader.Stats(); st.Segments < 4 {
				t.Fatalf("want several sealed segments before the cut, have %d", st.Segments)
			}
			// Park the follower part-way through the sealed segments.
			for follower.AppliedSeq() < 20 {
				shipOnce(t, leader, follower, 200)
			}
			from = follower.AppliedSeq()
			if from >= 60 {
				t.Fatalf("follower already caught up (%d)", from)
			}

			armed.Store(true)
			if err := leader.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if !inWindow {
				t.Fatalf("the hook at the snapshot's %s never ran", tc.op)
			}
			if tailErr != nil {
				t.Fatalf("ReplTail(%d) inside the compaction window: %v", from, tailErr)
			}
			if last != 61 {
				t.Fatalf("window tail ends at seq %d, want 61 (60 covered + the post-cut write)", last)
			}
			if applied, err := follower.ApplyReplicated(data); err != nil || applied != 61 {
				t.Fatalf("follower applied the window tail to seq %d: %v", applied, err)
			}
			modelOf(leader.loadIndex()).check(t, "follower", follower, nil)

			// After the rename and cleanup the covered tail is gone for good.
			if _, _, err := leader.ReplTail(from, 1<<20, nil); !errors.Is(err, ErrSnapshotNeeded) {
				t.Fatalf("ReplTail(%d) after the compaction: err = %v, want ErrSnapshotNeeded", from, err)
			}
			if st := leader.Stats(); st.SnapshotSeq != 60 || st.Segments != 1 {
				t.Fatalf("after compaction: snapshot seq %d, %d segments; want 60 and 1", st.SnapshotSeq, st.Segments)
			}
		})
	}
}

// TestCrashAfterCutRecoversFromSegments: dying right after the cut leaves
// sealed segments and no snapshot; recovery replays them all.
func TestCrashAfterCutRecoversFromSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	opts := Options{SegmentBytes: 256}
	var hook crashHook
	db, err := Open(path, Options{SegmentBytes: 256, Fault: hook.fault})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Put("t", fmt.Sprintf("k%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	want := modelOf(db.loadIndex())
	hook.arm(atSnapshotCreate, 0)
	if err := db.Compact(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Compact crashed at the snapshot's create: %v, want ErrCrashed", err)
	}
	_ = db.Close()
	re, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.SnapshotsLoaded != 0 || st.RecoveredRecords != 40 {
		t.Fatalf("recovery loaded %d snapshots and replayed %d records; want 0 and 40", st.SnapshotsLoaded, st.RecoveredRecords)
	}
	want.check(t, "re", re, nil)
	checkStoreTrees(t, "recovered", re)
}

// TestInstallSnapshotInsideCompactionWindow lands an InstallSnapshot between
// a compaction's cut (seq C) and its rename. The install persists a newer
// image (seq S > C) and deletes every segment <= S; the compaction used to
// carry on and rename its older image over it, so the snapshot sequence
// regressed and a restart recovered state C with the records up to S gone
// from disk. The compaction must notice the newer snapshot and abandon its
// own.
func TestInstallSnapshotInsideCompactionWindow(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256}
	leader, err := Open(filepath.Join(dir, "leader.wal"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	path := filepath.Join(dir, "follower.wal")
	var (
		follower   *DB
		img        []byte
		installErr error
		installed  bool
		armed      atomic.Bool
	)
	// At the sync of the compaction's snapshot, right before its rename, the
	// hook installs the newer image; no crash, the compaction carries on.
	hook := func(op FileOp, p string, _ int) (bool, int) {
		if op == FileSync && strings.HasSuffix(p, snapTmpSuffix) && armed.CompareAndSwap(true, false) {
			installed = true
			installErr = follower.InstallSnapshot(img)
		}
		return false, 0
	}
	follower, err = Open(path, Options{SegmentBytes: 256, Fault: hook})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := leader.Put("posts", fmt.Sprintf("res-%d/%03d", i%4, i), i); err != nil {
			t.Fatal(err)
		}
	}
	// The follower holds the first 20-odd records; the image is at 60.
	for follower.AppliedSeq() < 20 {
		shipOnce(t, leader, follower, 200)
	}
	cutSeq := follower.AppliedSeq()
	if img, err = leader.SnapshotExport(); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	if err := follower.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !installed || installErr != nil {
		t.Fatalf("InstallSnapshot inside the window: ran=%v err=%v", installed, installErr)
	}
	if got := follower.Stats().SnapshotSeq; got != 60 {
		t.Fatalf("snapshot seq %d after the compaction finished, want the installed 60 (cut was at %d)", got, cutSeq)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.SnapshotSeq != 60 || re.AppliedSeq() != 60 {
		t.Fatalf("recovered snapshot seq %d, applied seq %d; want 60 and 60", st.SnapshotSeq, re.AppliedSeq())
	}
	modelOf(leader.loadIndex()).check(t, "re", re, nil)
	checkStoreTrees(t, "recovered", re)
	if leftovers, _ := filepath.Glob(path + ".snapshot*tmp"); len(leftovers) != 0 {
		t.Fatalf("temp snapshots left behind: %v", leftovers)
	}
}
