package store

// Tests for the snapshot + segment WAL layout and group commit.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itag/internal/errs"
)

func TestSegmentRotationAndRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put("t", fmt.Sprintf("k%03d", i), kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotated segments, stats = %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(path)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segment files, got %d (%v)", len(segs), err)
	}

	db2, err := Open(path, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Count("t"); got != 100 {
		t.Fatalf("recovered %d keys, want 100", got)
	}
	if got := db2.Stats().RecoveredRecords; got != 100 {
		t.Fatalf("recovered %d records, want 100", got)
	}
	// And the store keeps accepting writes on the recovered active segment.
	if err := db2.Put("t", "after", kv{N: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRecoveryReplaysOnlyTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put("t", fmt.Sprintf("k%03d", i%40), kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Tail written after the snapshot cut.
	for i := 0; i < 5; i++ {
		if err := db.Put("t", fmt.Sprintf("tail%d", i), kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	_ = db.Delete("t", "k000")
	want := modelOf(db.loadIndex())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	want.check(t, "snapshot recovery", db2, nil)
	st := db2.Stats()
	if !(st.SnapshotsLoaded == 1) {
		t.Fatalf("recovery did not load the snapshot: %+v", st)
	}
	if st.RecoveredRecords > 10 {
		t.Fatalf("recovery replayed %d records; must replay only the post-snapshot tail", st.RecoveredRecords)
	}
	if st.SnapshotSeq == 0 || db2.Seq() <= st.SnapshotSeq {
		t.Fatalf("sequence bookkeeping wrong: seq=%d snapshotSeq=%d", db2.Seq(), st.SnapshotSeq)
	}
}

func TestCompactIsOnline(t *testing.T) {
	// Writers and readers keep working while Compact runs; afterwards the
	// reopened store reads as the model of what the live one held.
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50; i++ {
		_ = db.Put("t", fmt.Sprintf("seed%02d", i), kv{N: i})
	}
	var wg sync.WaitGroup
	stopWriters := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopWriters:
					return
				default:
				}
				if err := db.Put("t", fmt.Sprintf("g%d-%04d", g, i), kv{N: i}); err != nil {
					t.Error(err)
					return
				}
				db.Count("t")
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stopWriters)
	wg.Wait()
	want := modelOf(db.loadIndex())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	want.check(t, "online compactions + reopen", db2, nil)
}

// TestCompactConcurrentCommitsNotLost is the regression test for the
// cut-vs-enqueue race: a commit that takes its sequence number while the
// writer is inside the compaction cut must not be covered by the snapshot
// seq (its record lands after the cut; a snapshot seq that included it
// would make recovery skip it silently).
func TestCompactConcurrentCommitsNotLost(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("wal%d", round))
		db, err := Open(path, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		const workers, ops = 8, 30
		var mu sync.Mutex
		acked := make(map[string]int)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("g%d-%d", g, i)
					if err := db.Put("t", key, kv{N: i}); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					acked[key] = i
					mu.Unlock()
				}
			}(g)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(path, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		var lost []string
		for key := range acked {
			if !db2.Has("t", key) {
				lost = append(lost, key)
			}
		}
		db2.Close()
		if len(lost) > 0 {
			t.Fatalf("round %d: acked Puts lost after compact+reopen: %v", round, lost)
		}
	}
}

// TestAutoCompactWithoutRotation checks the threshold is evaluated per
// commit, not only at rotation: with rotation disabled the growing active
// segment alone must still trigger a background snapshot.
func TestAutoCompactWithoutRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SegmentBytes: -1, AutoCompact: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		if err := db.Put("t", "hot", kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("auto-compact never triggered with rotation disabled")
	}
}

func TestAutoCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SegmentBytes: 512, AutoCompact: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := db.Put("t", "hot", kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := db.Stats().Compactions; got == 0 {
		t.Fatal("auto-compact never triggered")
	}
	var got kv
	if err := db.Get("t", "hot", &got); err != nil || got.N != 399 {
		t.Fatalf("after auto-compact: %+v, %v", got, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Get("t", "hot", &got); err != nil || got.N != 399 {
		t.Fatalf("after auto-compact + reopen: %+v, %v", got, err)
	}
}

func TestGroupCommitConcurrentDurability(t *testing.T) {
	// Many concurrent committers with SyncEvery=1: every acked Put must
	// survive reopen, and the writer must have coalesced commits into far
	// fewer fsyncs than records.
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers, ops = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if err := db.Put("t", fmt.Sprintf("w%02d-%03d", w, i), kv{N: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.Stats()
	if st.Commits != workers*ops {
		t.Fatalf("commits = %d, want %d", st.Commits, workers*ops)
	}
	if st.Fsyncs > st.Commits {
		t.Fatalf("more fsyncs (%d) than commits (%d)", st.Fsyncs, st.Commits)
	}
	// Coalescing itself is asserted deterministically in
	// TestNaturalBatchingCoalesces; how much of it free-running committers
	// get depends on scheduler timing (on GOMAXPROCS=1 batches can
	// degenerate to single commits).
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Count("t"); got != workers*ops {
		t.Fatalf("recovered %d keys, want %d", got, workers*ops)
	}
}

// TestNaturalBatchingCoalesces pins group commit by natural batching without
// leaning on the scheduler: the first batch is held inside its leader (at its
// write to the segment) until eight more commits have queued behind it, so the
// next flush must take all eight in one write + one fsync.
func TestNaturalBatchingCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	hold := func(op FileOp, _ string, _ int) (bool, int) {
		if op == FileWrite && held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return false, 0
	}
	db, err := Open(path, Options{SyncEvery: 1, Fault: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const followers = 8
	var wg sync.WaitGroup
	put := func(i int) {
		defer wg.Done()
		if err := db.Put("t", fmt.Sprintf("k%d", i), kv{N: i}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go put(0)
	<-entered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go put(i)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		db.mu.Lock()
		queued := len(db.pend)
		db.mu.Unlock()
		if queued == followers {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d commits queued behind the held batch, want %d", queued, followers)
		}
	}
	close(release)
	wg.Wait()
	st := db.Stats()
	if st.Commits != followers+1 || st.CommitBatches != 2 || st.Fsyncs != 2 {
		t.Fatalf("commits/batches/fsyncs = %d/%d/%d, want %d/2/2", st.Commits, st.CommitBatches, st.Fsyncs, followers+1)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i <= followers; i++ {
		var got kv
		if err := db2.Get("t", fmt.Sprintf("k%d", i), &got); err != nil || got.N != i {
			t.Fatalf("k%d after reopen: %+v, %v", i, got, err)
		}
	}
}

// TestCommitsRacingClose runs committers into Close: every Put returns nil
// or ErrClosed, every key acknowledged with nil survives a reopen, and the
// store leaves no goroutine behind once it is closed.
func TestCommitsRacingClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	goroutines := runtime.NumGoroutine()
	db, err := Open(path, Options{SyncEvery: 1, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const committers = 16
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		acked  []string
		puts   atomic.Int64
		closed = make(chan struct{})
	)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key := fmt.Sprintf("g%02d-%05d", g, i)
				switch err := db.Put("t", key, kv{N: i}); {
				case err == nil:
					mu.Lock()
					acked = append(acked, key)
					mu.Unlock()
					puts.Add(1)
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("Put %s racing Close: %v", key, err)
					return
				}
			}
		}(g)
	}
	for puts.Load() < 200 {
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	go func() { wg.Wait(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("a Put racing Close did not return")
	}

	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), goroutines)
		}
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, key := range acked {
		if !db2.Has("t", key) {
			t.Fatalf("acknowledged key %s lost across Close (%d acked)", key, len(acked))
		}
	}
}

func TestSequentialCommitsFsyncEach(t *testing.T) {
	// One committer at a time gives the writer nothing to coalesce: at
	// SyncEvery 1 every record is its own batch and pays its own fsync.
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Put("t", fmt.Sprintf("k%d", i), kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Fsyncs != 20 {
		t.Fatalf("sequential commits must fsync per record: %d fsyncs for 20 commits", st.Fsyncs)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Count("t"); got != 20 {
		t.Fatalf("recovered %d keys, want 20", got)
	}
}

// TestOpenRefusesPreSegmentWAL: the single-file WAL of unframed JSON lines
// has had no writer since PR 3 and lost its reader in PR 23. A plain file at
// the base path is a boot error naming it — not a fresh, empty segment family
// started beside the data — and the refusal leaves the directory as it was.
func TestOpenRefusesPreSegmentWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.jsonl")
	legacy := `{"seq":1,"op":"put","table":"t","key":"a","value":{"v":"x","n":1}}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path, Options{})
	if err == nil {
		db.Close()
		t.Fatal("Open started a store beside a pre-segment WAL file")
	}
	if errs.CategoryOf(err) != errs.CategoryValidation {
		t.Errorf("err = %v, want a validation error", err)
	}
	for _, want := range []string{path, "pre-segment single-file WAL", "PR 22"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(left) != 1 || left[0] != path {
		t.Errorf("the refused open changed the directory: %v", left)
	}
	if got, _ := os.ReadFile(path); string(got) != legacy {
		t.Errorf("the refused open rewrote the file: %q", got)
	}
}

func TestSequenceGapRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = db.Put("t", fmt.Sprintf("k%d", i), kv{N: i})
	}
	_ = db.Close()
	// Remove the middle record (a full line) from the segment: the CRC of
	// each remaining line is intact but the sequence now has a hole.
	seg := activeSegment(t, path)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, l := range splitLines(data) {
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	if err := os.WriteFile(seg, append(lines[0], lines[2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("a sequence gap in the WAL must fail recovery, not lose a record silently")
	}
}

// splitLines splits data into newline-terminated chunks (keeping the \n).
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			out = append(out, data[start:i+1])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

func TestStatsShape(t *testing.T) {
	mem := OpenMemory()
	_ = mem.Put("t", "k", kv{N: 1})
	if st := mem.Stats(); st.Backend != "memory" || st.Commits != 1 || st.Segments != 0 {
		t.Fatalf("memory stats: %+v", st)
	}

	db, err := Open(filepath.Join(t.TempDir(), "db.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 40; i++ {
		if err := db.Put("t", fmt.Sprintf("res-%02d/x", i), kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Backend != "wal" || st.Commits != 40 || st.Segments < 1 || st.Fsyncs == 0 {
		t.Fatalf("wal stats: %+v", st)
	}
}

// TestWALWriterIsMadeAtFirstAppend: a durable store makes its 256 KiB
// segment writer at its first append, not at Open, and keeps it across
// rotations. Open, InstallSnapshot and Close of a follower that never
// appends allocate less than the writer; the first commit makes it, and
// three later commits, each sealing its segment and opening the next, write
// through that same writer.
func TestWALWriterIsMadeAtFirstAppend(t *testing.T) {
	const writer = 256 << 10
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := range 100 {
		if err := leader.Put("t", fmt.Sprintf("k%03d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := leader.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	path := filepath.Join(dir, "follower.wal")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= writer {
		t.Errorf("Open, InstallSnapshot and Close allocated %d B, want less than the %d B writer", n, writer)
	}
	if db.wal.bw != nil {
		t.Errorf("a store that never appended holds a writer")
	}
	db, err = Open(path, Options{SegmentBytes: 1}) // every batch seals its segment
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.wal.bw != nil {
		t.Fatalf("Open made the writer before any append")
	}
	if err := db.Put("t", "first", 1); err != nil {
		t.Fatal(err)
	}
	bw := db.wal.bw
	if bw == nil || bw.Size() != writer {
		t.Fatalf("the first commit made no %d B writer", writer)
	}
	for i := range 3 {
		if err := db.Put("t", fmt.Sprintf("later%d", i), i); err != nil {
			t.Fatal(err)
		}
		if db.wal.bw != bw {
			t.Fatalf("commit %d, after a rotation, made a second writer", i+2)
		}
	}
	if r := db.Stats().Rotations; r != 4 {
		t.Fatalf("%d rotations, want one per commit (4)", r)
	}
	var got int
	if err := db.Get("t", "k099", &got); err != nil || got != 99 {
		t.Fatalf("the installed state reads k099 = %d, %v", got, err)
	}
}
