package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestReplTailMemoryEqualsFile drives one WAL through everything that moves
// the tail window — segment rotations, the window sliding, a compaction cut,
// a record larger than the window, a torn batch — and after each stretch
// asks both ReplTail paths the same random (from, maxBytes) questions: the
// window's copy and the file scan must return the same bytes and the same
// last sequence wherever both can answer, and ReplTail itself must return
// exactly that. A wedged store's torn batch is served by neither.
func TestReplTailMemoryEqualsFile(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var hook crashHook
	db, err := Open(filepath.Join(t.TempDir(), "leader.wal"), Options{SegmentBytes: 96 << 10, Fault: hook.fault})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	fromMemory, fromFile := 0, 0
	compare := func(when string) {
		t.Helper()
		applied, floor := db.AppliedSeq(), db.Stats().SnapshotSeq
		if applied == floor {
			return
		}
		for i := 0; i < 200; i++ {
			from := floor + uint64(rng.Int63n(int64(applied-floor)))
			if i%4 == 0 && applied-floor > 20 { // a follower that is keeping up
				from = applied - 1 - uint64(rng.Intn(20))
			}
			maxBytes := 1 + rng.Intn(64<<10)
			fdata, flast, ferr := db.readTail(nil, from, maxBytes, nil)
			if ferr != nil {
				t.Fatalf("%s: file tail(%d, %d): %v", when, from, maxBytes, ferr)
			}
			got, last, err := db.ReplTail(from, maxBytes, nil)
			if err != nil || last != flast || !bytes.Equal(got, fdata) {
				t.Fatalf("%s: ReplTail(%d, %d) = %d bytes to seq %d, %v; the file scan has %d bytes to seq %d",
					when, from, maxBytes, len(got), last, err, len(fdata), flast)
			}
			mdata, mlast, ok := db.wal.tail.read(nil, from, maxBytes)
			if !ok {
				fromFile++
				continue
			}
			fromMemory++
			if mlast != flast || !bytes.Equal(mdata, fdata) {
				t.Fatalf("%s: window tail(%d, %d) = %d bytes to seq %d; the file scan has %d bytes to seq %d",
					when, from, maxBytes, len(mdata), mlast, len(fdata), flast)
			}
		}
	}
	write := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			size := 40 + rng.Intn(900)
			if rng.Intn(40) == 0 {
				size = 8<<10 + rng.Intn(24<<10)
			}
			key := fmt.Sprintf("res-%03d/%012d", rng.Intn(50), db.Seq()+1)
			if err := db.Put("posts", key, strings.Repeat("x", size)); err != nil {
				t.Fatal(err)
			}
		}
	}

	write(100)
	compare("first records")
	if _, _, ok := db.wal.tail.read(nil, 0, 1<<20); !ok {
		t.Fatal("a window that has never slid does not hold the first record")
	}
	write(1500) // several windows' worth: the window slides, segments rotate
	if st := db.Stats(); st.Rotations < 3 {
		t.Fatalf("%d rotations, want the stream to cross several segments", st.Rotations)
	}
	if _, _, ok := db.wal.tail.read(nil, 0, 1<<20); ok {
		t.Fatal("the window still holds record 1 after several windows of writes")
	}
	compare("after sliding")

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReplTail(db.Stats().SnapshotSeq-1, 1<<20, nil); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("ReplTail below the cut = %v, want ErrSnapshotNeeded whatever the window holds", err)
	}
	write(60)
	compare("after a compaction cut")

	// A record larger than the window is never held: the window restarts
	// after it, and the pull that needs it is a file scan.
	if err := db.Put("posts", "res-big/000000000001", strings.Repeat("B", tailWindowBytes+1)); err != nil {
		t.Fatal(err)
	}
	big := db.AppliedSeq()
	if _, _, ok := db.wal.tail.read(nil, big-1, 1<<20); ok {
		t.Fatal("the window serves a record larger than itself")
	}
	data, last, err := db.ReplTail(big-1, 1024, nil)
	if err != nil || last != big || len(data) <= tailWindowBytes {
		t.Fatalf("ReplTail of the oversize record = %d bytes to seq %d, %v", len(data), last, err)
	}
	write(30)
	if _, _, ok := db.wal.tail.read(nil, big, 1<<20); !ok {
		t.Fatal("the window did not restart after the oversize record")
	}
	compare("after an oversize record")
	if fromMemory == 0 || fromFile == 0 {
		t.Fatalf("%d comparisons answered from memory, %d only from files: want both paths exercised", fromMemory, fromFile)
	}

	// A torn batch: half its bytes are in the file, the store is wedged, and
	// nothing of it may reach a follower from either path.
	applied := db.AppliedSeq()
	hook.arm(tearAppend, 0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := db.Put("posts", fmt.Sprintf("res-torn/%012d", i), "never acknowledged"); !errors.Is(err, ErrCrashed) {
				t.Errorf("write %d into the torn batch = %v, want ErrCrashed", i, err)
			}
		}(i)
	}
	wg.Wait()
	hook.arm(nil, 0)
	if got := db.AppliedSeq(); got != applied {
		t.Fatalf("applied watermark moved %d → %d over a torn batch", applied, got)
	}
	if data, last, err := db.ReplTail(applied, 1<<20, nil); err != nil || len(data) != 0 || last != applied {
		t.Fatalf("ReplTail past the watermark of a wedged store = %d bytes to seq %d, %v", len(data), last, err)
	}
	if _, _, ok := db.wal.tail.read(nil, applied, 1<<20); ok {
		t.Fatal("the window holds a record of the torn batch")
	}
	compare("wedged")
	for _, from := range []uint64{applied - 1, applied - 5} {
		data, last, err := db.ReplTail(from, 1<<20, nil)
		if err != nil || last != applied || bytes.Contains(data, []byte("res-torn")) {
			t.Fatalf("ReplTail(%d) on the wedged store ends at seq %d (%v), want %d and nothing torn", from, last, err, applied)
		}
	}
}

// TestTailWindowResetByReplication: a store that ingests a leader's frames
// or a snapshot keeps no window over them (it has nobody to ship to until
// it is reopened as a leader), and a window never bridges a sequence gap.
func TestTailWindowResetByReplication(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(filepath.Join(dir, "follower.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for i := 0; i < 10; i++ {
		if err := leader.Put("t", fmt.Sprintf("k%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, leader, follower, 1<<20)
	if _, _, ok := follower.wal.tail.read(nil, 5, 1<<20); ok {
		t.Fatal("replicated frames entered the follower's window")
	}
	// Chained shipping still works, from the follower's files.
	data, last, err := follower.ReplTail(5, 1<<20, nil)
	want, _, _ := leader.ReplTail(5, 1<<20, nil)
	if err != nil || last != 10 || !bytes.Equal(data, want) {
		t.Fatalf("follower ReplTail(5) = %d bytes to seq %d, %v; leader ships %d bytes", len(data), last, err, len(want))
	}
	if err := follower.Put("t", "local", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := follower.wal.tail.read(nil, 10, 1<<20); !ok {
		t.Fatal("a local commit after replicated ones did not start a window")
	}
	if _, _, ok := follower.wal.tail.read(nil, 9, 1<<20); ok {
		t.Fatal("the window reaches back over records it never held")
	}

	for i := 10; i < 20; i++ {
		if err := leader.Put("t", fmt.Sprintf("k%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	img, err := leader.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := follower.wal.tail.read(nil, 10, 1<<20); ok {
		t.Fatal("InstallSnapshot left the window holding pre-install records")
	}
}
