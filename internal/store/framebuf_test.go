package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// durableTaskPutAllocs bounds one Catalog.PutTask on a warm WAL store: the
// write set's slab, the tree's path copy and the index version come to 5
// allocations. A commit queue that takes a new array per batch again, and a
// leader that collects each batch's writes into a new list, read 7; a task
// key built as a string of its own, a frame in an allocation of its own, or
// a queue entry not drawn from its pool, one more each.
const durableTaskPutAllocs = 5

// TestDurableCommitAllocs holds a one-record commit on a WAL store under
// durableTaskPutAllocs: its frame is written into the buffer the WAL keeps
// between batches, and the commit queue and the leader's list of writes are
// arrays kept from one batch to the next, so neither allocates once warm.
func TestDurableCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops items at random under -race, so allocation counts are not the product's")
	}
	db, err := Open(filepath.Join(t.TempDir(), "commit.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := NewCatalog(db)
	task := TaskRec{ID: "task-000001", ProjectID: "proj-000001", ResourceID: "res-0001", WorkerID: "tagger-01",
		Status: TaskAssigned, Reward: 0.05, CreatedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	put := func() {
		if err := c.PutTask(task); err != nil {
			t.Fatal(err)
		}
	}
	for range 20 {
		put()
	}
	allocs := testing.AllocsPerRun(200, put)
	if allocs > durableTaskPutAllocs {
		t.Errorf("a one-record PutTask on a WAL store allocates %.1f times, want at most %d", allocs, durableTaskPutAllocs)
	} else {
		t.Logf("a one-record PutTask on a WAL store allocates %.1f times (bound %d)", allocs, durableTaskPutAllocs)
	}
}

// durableCommitBytes bounds the bytes one commit allocates into a durable
// store whose tasks and posts tables hold 2.4e4 keys each (four levels):
// a one-record Catalog.PutTask appended at the task table's right edge and
// a Catalog.AppendPost at the end of one of 1 200 resources' ranges, write
// set, encoding, frame and path copy included. Each reads about 1.4 KB;
// when a branch copy carried its separators (24 B a slot) and an entry its
// value as a slice (40 B) they read about 2.3 and 2.2 KB.
const (
	durableTaskPutBytes = 1550
	durablePostBytes    = 1500
)

// TestDurableCommitBytes holds the path copy of a one-record commit under
// durableCommitBytes: the branches on the path copy their child pointers
// and share their separators with the version before.
func TestDurableCommitBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops items at random under -race, so allocations are not the product's")
	}
	db, err := Open(filepath.Join(t.TempDir(), "commit.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := NewCatalog(db)
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	const keys, resources = 24000, 1200
	task := func(i int) TaskRec {
		return TaskRec{ID: fmt.Sprintf("task-%08d", i), ProjectID: "proj-000001", ResourceID: fmt.Sprintf("res-%05d", i%resources),
			WorkerID: "tagger-01", Status: TaskCompleted, Reward: 0.05, CreatedAt: at, DoneAt: at}
	}
	post := func(i int) PostRec {
		return PostRec{ResourceID: fmt.Sprintf("res-%05d", i*7919%resources), TaggerID: "tagger-01", TaskID: fmt.Sprintf("task-%08d", i),
			Tags: []string{"go", "database", "tagging"}, Time: at}
	}
	for i := 0; i < keys; i += 1000 {
		w := c.Begin(2000)
		for j := i; j < i+1000; j++ {
			if err := w.PutTask(task(j)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.AppendPost(post(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, table := range []string{TableTasks, TablePosts} {
		if d := depth(db.table(table)); d < 4 {
			t.Fatalf("%s has %d levels, want 4: three of branches", table, d)
		}
	}
	next := keys
	commit := func(put func(i int) error) func() {
		return func() {
			if err := put(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	for _, tc := range []struct {
		name  string
		bound uint64
		put   func()
	}{
		{"PutTask", durableTaskPutBytes, commit(func(i int) error { return c.PutTask(task(i)) })},
		{"AppendPost", durablePostBytes, commit(func(i int) error { _, err := c.AppendPost(post(i)); return err })},
	} {
		for range 50 {
			tc.put()
		}
		const runs = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			tc.put()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > tc.bound {
			t.Errorf("a one-record %s into 2.4e4 keys allocates %d B, want at most %d", tc.name, per, tc.bound)
		} else {
			t.Logf("a one-record %s into 2.4e4 keys allocates %d B (bound %d)", tc.name, per, tc.bound)
		}
	}
}

// TestLeaderFramesMatchFiles makes one batch leader take a shipment and the
// local commits queued behind it, then a preload-sized batch record that
// outgrows the kept frame buffer: each time the tail window holds exactly the
// bytes ReplTail's file scan reads for the same sequences, and the shipment's
// lines are on disk as they were received.
func TestLeaderFramesMatchFiles(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "leader.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put("posts", "res-000/000000000001", "first"); err != nil {
		t.Fatal(err)
	}
	sameAsFiles := func(when string) {
		t.Helper()
		applied, held := db.AppliedSeq(), 0
		for from := uint64(0); from < applied; from++ {
			mem, mlast, ok := db.wal.tail.read(nil, from, 1<<20)
			if !ok {
				continue
			}
			held++
			file, flast, err := db.readTail(nil, from, 1<<20, nil)
			if err != nil || mlast != flast || !bytes.Equal(mem, file) {
				t.Fatalf("%s: the window holds %d bytes to seq %d after %d; the files hold %d bytes to seq %d (%v)",
					when, len(mem), mlast, from, len(file), flast, err)
			}
		}
		if held == 0 {
			t.Fatalf("%s: the window holds nothing to compare", when)
		}
	}

	// Hold the file lock so the first committer leads a batch that cannot
	// start; everything queued meanwhile is the next leader's one pass.
	db.wal.fmu.Lock()
	errc := make(chan error, 8)
	// waitFor polls cond under db.mu. While fmu is held no commit can
	// finish, so one that returns meanwhile was refused before it queued.
	waitFor := func(cond func() bool) {
		for {
			db.mu.Lock()
			ok := cond()
			db.mu.Unlock()
			if ok {
				return
			}
			select {
			case err := <-errc:
				db.wal.fmu.Unlock()
				t.Fatalf("a commit returned while the leader was held: %v", err)
			case <-time.After(time.Millisecond):
			}
		}
	}
	queued := func(n int) { waitFor(func() bool { return len(db.pend) == n }) }
	go func() { errc <- db.Put("posts", "res-000/000000000002", "blocked leader") }()
	waitFor(func() bool { return db.leading })
	var shipment []byte
	for i := uint64(1); i <= 3; i++ {
		shipment = appendFrame(shipment, Record{Seq: db.Seq() + i, Op: OpPut, Table: "posts",
			Key: fmt.Sprintf("res-001/%012d", i), Value: []byte(`"shipped"`)})
	}
	go func() { _, err := db.ApplyReplicated(shipment); errc <- err }()
	queued(1)
	for i := 0; i < 4; i++ {
		go func() { errc <- db.Put("posts", fmt.Sprintf("res-002/%012d", i+1), strings.Repeat("v", 100*i)) }()
		queued(i + 2)
	}
	db.wal.fmu.Unlock()
	for range 6 {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.CommitBatches != 3 {
		t.Fatalf("%d commit batches, want 3: the first commit, the blocked leader's, and one pass for the rest", st.CommitBatches)
	}
	if _, _, ok := db.wal.tail.read(nil, db.AppliedSeq()-4, 1<<20); !ok {
		t.Fatal("the window does not hold the local commits queued behind the shipment")
	}
	sameAsFiles("shipment plus local commits")
	file, _, err := db.readTail(nil, 2, len(shipment), nil)
	if err != nil || !bytes.Equal(file, shipment) {
		t.Fatalf("the shipment is on disk as %q (%v), want it as received, %q", file, err, shipment)
	}

	// A preload: one batch record far larger than the kept buffer. The
	// window holds its frame, and the buffer it grew is let go.
	muts := make([]Mutation, 400)
	for i := range muts {
		muts[i] = Mutation{Op: OpPut, Table: "posts", Key: fmt.Sprintf("res-003/%012d", i+1), Value: []byte(`"` + strings.Repeat("p", 300) + `"`)}
	}
	if err := db.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("posts", "res-004/000000000001", "after the preload"); err != nil {
		t.Fatal(err)
	}
	sameAsFiles("a preload-sized batch")
	if c := cap(db.wal.frames); c > keptFrameBytes {
		t.Fatalf("the WAL keeps a %d-byte frame buffer, want at most %d", c, keptFrameBytes)
	}
}
