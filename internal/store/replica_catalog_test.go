package store

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// recordingObserver notes what the Catalog's invalidate point reports.
type recordingObserver struct {
	written  []string
	replaced int
}

func (o *recordingObserver) PostWritten(resourceID string, seq uint64) {
	o.written = append(o.written, fmt.Sprintf("%s/%d", resourceID, seq))
}
func (o *recordingObserver) PostsReplaced() { o.replaced++ }

// TestReplicaRecordCacheCoherent: a record read (and so cached) through a
// replica's Catalog is never served stale once a replicated batch or a
// snapshot install has overwritten it — including by a fill that read the
// old value before the install and publishes after it — and the replica's
// write clocks move on every replicated write exactly as a local commit
// moves the leader's, never backwards.
func TestReplicaRecordCacheCoherent(t *testing.T) {
	dir := t.TempDir()
	ldb, err := Open(filepath.Join(dir, "leader.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	fdb, err := Open(filepath.Join(dir, "follower.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	leader, follower := NewCatalog(ldb), NewCatalog(fdb)
	obs := &recordingObserver{}
	follower.ObservePosts(obs)

	version := clockSum(follower)
	ship := func(what string) {
		t.Helper()
		data, last, err := ldb.ReplTail(fdb.AppliedSeq(), 1<<20, nil)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: ReplTail = %d bytes, %v", what, len(data), err)
		}
		if applied, err := follower.ApplyReplicated(data); err != nil || applied != last {
			t.Fatalf("%s: ApplyReplicated = %d, %v; want %d", what, applied, err, last)
		}
		if v := clockSum(follower); v <= version {
			t.Fatalf("%s: the replica's write clocks did not advance (%d → %d)", what, version, v)
		} else {
			version = v
		}
	}
	project := func(name string) ProjectRec { return ProjectRec{ID: "p1", Name: name, Budget: 10} }
	read := func(want string) {
		t.Helper()
		for i := 0; i < 2; i++ { // the second read is a cache hit
			got, err := follower.GetProject("p1")
			if err != nil || got.Name != want {
				t.Fatalf("replica GetProject = %q, %v; want %q", got.Name, err, want)
			}
		}
	}

	if err := leader.PutProject(project("v1")); err != nil {
		t.Fatal(err)
	}
	ship("first write")
	read("v1")

	// A plain replicated put over a cached record.
	if err := leader.PutProject(project("v2")); err != nil {
		t.Fatal(err)
	}
	ship("overwrite")
	read("v2")

	// A batch record: every sub-record is invalidated, and its post reported.
	ws := leader.Begin(3)
	_ = ws.PutProject(project("v3"))
	_ = ws.PutTask(TaskRec{ID: "t1", ProjectID: "p1", Status: TaskCompleted})
	seq, err := ws.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"a"}, Time: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.GetTask("p1", "t1"); err == nil {
		t.Fatal("replica has a task the leader has not committed")
	}
	postsBefore := follower.Clock(TablePosts).Load()
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	ship("batch")
	read("v3")
	if task, err := follower.GetTask("p1", "t1"); err != nil || task.Status != TaskCompleted {
		t.Fatalf("replica GetTask after the batch = %+v, %v", task, err)
	}
	if got := follower.Clock(TablePosts).Load(); got != postsBefore+1 {
		t.Fatalf("posts clock %d → %d over a batch holding one post", postsBefore, got)
	}
	if want := []string{fmt.Sprintf("r1/%d", seq)}; !reflect.DeepEqual(obs.written, want) {
		t.Fatalf("posts observer heard %v, want %v", obs.written, want)
	}

	// A snapshot install over a cached record, with a fill in flight across
	// it: the fill read v3's bytes before the install, and publishes after.
	staleRaw := storedRaw(t, follower, TableProjects, "p1")
	stale, _ := follower.GetProject("p1")
	if err := leader.PutProject(project("v4")); err != nil {
		t.Fatal(err)
	}
	img, err := ldb.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if v := clockSum(follower); v <= version {
		t.Fatalf("snapshot install: the replica's write clocks did not advance (%d → %d)", version, v)
	}
	for _, table := range []string{TableResources, TablePosts, TableProjects, TableTasks, TableUsers} {
		if follower.Clock(table).Load() == 0 {
			t.Errorf("snapshot install left the %s clock at zero", table)
		}
	}
	follower.cache.add(TableProjects, "p1", staleRaw, stale)
	read("v4")
	if obs.replaced != 1 {
		t.Fatalf("posts observer heard %d replacements, want 1", obs.replaced)
	}

	// A Catalog over something that is not a DB cannot take frames.
	wrapped := NewCatalog(struct{ Store }{OpenMemory()})
	if _, err := wrapped.ApplyReplicated([]byte("x\n")); err == nil {
		t.Error("ApplyReplicated over a wrapped store succeeded")
	}
	if err := wrapped.InstallSnapshot(img); err == nil {
		t.Error("InstallSnapshot over a wrapped store succeeded")
	}
}
