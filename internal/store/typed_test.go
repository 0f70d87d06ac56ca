package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestResourceCRUD(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if err := c.PutResource(ResourceRec{}); err == nil {
		t.Error("empty ID must be rejected")
	}
	r := ResourceRec{ID: "r1", ProjectID: "p1", Kind: "url", Name: "example"}
	if err := c.PutResource(r); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetResource("r1")
	if err != nil || got.Name != "example" {
		t.Fatalf("get: %+v, %v", got, err)
	}
	if _, err := c.GetResource("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing resource: %v", err)
	}
}

func TestListResourcesByProject(t *testing.T) {
	c := NewCatalog(OpenMemory())
	for i := 0; i < 6; i++ {
		proj := "p1"
		if i%2 == 0 {
			proj = "p2"
		}
		_ = c.PutResource(ResourceRec{ID: fmt.Sprintf("r%d", i), ProjectID: proj})
	}
	all, err := c.ListResources("")
	if err != nil || len(all) != 6 {
		t.Fatalf("all: %d, %v", len(all), err)
	}
	p1, err := c.ListResources("p1")
	if err != nil || len(p1) != 3 {
		t.Fatalf("p1: %d, %v", len(p1), err)
	}
}

func TestPostSequence(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if _, err := c.AppendPost(PostRec{}); err == nil {
		t.Error("post without resource must fail")
	}
	if _, err := c.AppendPost(PostRec{ResourceID: "r1"}); err == nil {
		t.Error("post without tags must fail")
	}
	now := time.Now().UTC()
	for i := 1; i <= 5; i++ {
		seq, err := c.AppendPost(PostRec{ResourceID: "r1", Tags: []string{fmt.Sprintf("t%d", i)}, Time: now})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	_, _ = c.AppendPost(PostRec{ResourceID: "r2", Tags: []string{"other"}, Time: now})
	posts, err := c.PostsOf("r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 5 {
		t.Fatalf("posts = %d", len(posts))
	}
	for i, p := range posts {
		if p.Tags[0] != fmt.Sprintf("t%d", i+1) {
			t.Errorf("post %d out of order: %v", i, p.Tags)
		}
	}
	if c.DB().CountPrefix(TablePosts, "r1/") != 5 || c.DB().CountPrefix(TablePosts, "r2/") != 1 || c.DB().CountPrefix(TablePosts, "zz/") != 0 {
		t.Error("counts wrong")
	}
}

func TestPostSequenceRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(db)
	now := time.Now().UTC()
	for i := 0; i < 3; i++ {
		if _, err := c.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"x"}, Time: now}); err != nil {
			t.Fatal(err)
		}
	}
	_ = db.Close()

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := NewCatalog(db2)
	seq, err := c2.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"y"}, Time: now})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Errorf("sequence after recovery = %d, want 4", seq)
	}
}

func TestUpdateAndGetPost(t *testing.T) {
	c := NewCatalog(OpenMemory())
	now := time.Now().UTC()
	seq, err := c.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"a"}, Time: now})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.GetPost("r1", seq)
	if err != nil {
		t.Fatal(err)
	}
	yes := true
	p.Approved = &yes
	if err := c.UpdatePost("r1", seq, p); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetPost("r1", seq)
	if err != nil || got.Approved == nil || !*got.Approved {
		t.Errorf("approval not persisted: %+v, %v", got, err)
	}
	if err := c.UpdatePost("r1", 999, p); !errors.Is(err, ErrNotFound) {
		t.Errorf("updating missing post: %v", err)
	}
}

func TestProjectCRUD(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if err := c.PutProject(ProjectRec{}); err == nil {
		t.Error("empty project ID must fail")
	}
	p := ProjectRec{ID: "p1", ProviderID: "prov1", Name: "demo", Budget: 100, Status: ProjectActive, CreatedAt: time.Now().UTC()}
	if err := c.PutProject(p); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetProject("p1")
	if err != nil || got.Budget != 100 {
		t.Fatalf("get: %+v, %v", got, err)
	}
	_ = c.PutProject(ProjectRec{ID: "p2", ProviderID: "prov2"})
	mine, err := c.ListProjects("prov1")
	if err != nil || len(mine) != 1 {
		t.Errorf("ListProjects: %d, %v", len(mine), err)
	}
	all, _ := c.ListProjects("")
	if len(all) != 2 {
		t.Errorf("all projects = %d", len(all))
	}
}

func TestTaskCRUD(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if err := c.PutTask(TaskRec{ID: "t1"}); err == nil {
		t.Error("task without project must fail")
	}
	for i := 0; i < 4; i++ {
		status := TaskPending
		if i%2 == 0 {
			status = TaskCompleted
		}
		if err := c.PutTask(TaskRec{ID: fmt.Sprintf("t%d", i), ProjectID: "p1", ResourceID: "r1", Status: status}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.GetTask("p1", "t1")
	if err != nil || got.Status != TaskPending {
		t.Fatalf("get task: %+v, %v", got, err)
	}
	done, err := c.TasksByProject("p1", TaskCompleted)
	if err != nil || len(done) != 2 {
		t.Errorf("completed tasks = %d, %v", len(done), err)
	}
	all, _ := c.TasksByProject("p1", "")
	if len(all) != 4 {
		t.Errorf("all tasks = %d", len(all))
	}
	if other, _ := c.TasksByProject("p2", ""); len(other) != 0 {
		t.Errorf("wrong project tasks = %d", len(other))
	}
}

func TestUserCRUDAndApprovalRate(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if err := c.PutUser(UserRec{}); err == nil {
		t.Error("empty user ID must fail")
	}
	u := UserRec{ID: "u1", Role: RoleTagger, Judged: 10, JudgedOK: 7}
	if err := c.PutUser(u); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetUser("u1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ApprovalRate() != 0.7 {
		t.Errorf("approval rate = %v", got.ApprovalRate())
	}
	if (UserRec{}).ApprovalRate() != 1 {
		t.Error("unjudged user must have rate 1")
	}
	_ = c.PutUser(UserRec{ID: "u2", Role: RoleProvider})
	taggers, err := c.ListUsers(RoleTagger)
	if err != nil || len(taggers) != 1 {
		t.Errorf("taggers = %d, %v", len(taggers), err)
	}
	everyone, _ := c.ListUsers("")
	if len(everyone) != 2 {
		t.Errorf("everyone = %d", len(everyone))
	}
}

func TestCatalogEndToEndPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(db)
	now := time.Now().UTC().Truncate(time.Second)
	_ = c.PutProject(ProjectRec{ID: "p1", ProviderID: "prov", Budget: 50, Status: ProjectActive, CreatedAt: now})
	_ = c.PutResource(ResourceRec{ID: "r1", ProjectID: "p1", Kind: "url"})
	_ = c.PutUser(UserRec{ID: "tagger1", Role: RoleTagger})
	_, _ = c.AppendPost(PostRec{ResourceID: "r1", TaggerID: "tagger1", Tags: []string{"go", "db"}, Time: now})
	_ = c.PutTask(TaskRec{ID: "task1", ProjectID: "p1", ResourceID: "r1", Status: TaskCompleted})
	_ = db.Close()

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := NewCatalog(db2)
	if _, err := c2.GetProject("p1"); err != nil {
		t.Error("project lost")
	}
	posts, _ := c2.PostsOf("r1")
	if len(posts) != 1 || posts[0].Tags[1] != "db" {
		t.Errorf("posts lost: %+v", posts)
	}
	tasks, _ := c2.TasksByProject("p1", "")
	if len(tasks) != 1 {
		t.Error("tasks lost")
	}
}

// TestWriteSetCommitsOnceAndInOrder: staged writes are invisible until
// Commit, one store commit however many there are, with post sequence
// numbers taken at staging time and the write clocks advanced only once the
// store holds the data.
func TestWriteSetCommitsOnceAndInOrder(t *testing.T) {
	db := OpenMemory()
	c := NewCatalog(db)
	now := time.Now().UTC().Truncate(time.Second)
	if _, err := c.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"seed"}, Time: now}); err != nil {
		t.Fatal(err)
	}
	before, clock := db.Stats().Commits, func() uint64 { return clockSum(c) }
	clockBefore := clock()

	w, other := c.Begin(4), c.Begin(1)
	if err := w.PutTask(TaskRec{ID: "t1"}); err == nil {
		t.Error("a task without a project must be rejected at staging")
	}
	if _, err := w.AppendPost(PostRec{ResourceID: "r1"}); err == nil {
		t.Error("a post without tags must be rejected at staging")
	}
	seqA, err := w.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"a"}, Time: now})
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := other.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"b"}, Time: now})
	if err != nil {
		t.Fatal(err)
	}
	if seqA != 2 || seqB != 3 {
		t.Fatalf("staged sequence numbers %d, %d; want 2, 3 in staging order", seqA, seqB)
	}
	if err := w.PutTask(TaskRec{ID: "t1", ProjectID: "p1", Status: TaskAssigned}); err != nil {
		t.Fatal(err)
	}
	if err := w.PutTask(TaskRec{ID: "t1", ProjectID: "p1", Status: TaskCompleted}); err != nil {
		t.Fatal(err)
	}
	if n := db.CountPrefix(TablePosts, "r1/"); n != 1 {
		t.Fatalf("%d posts visible before Commit, want the 1 that was there", n)
	}
	if _, err := c.GetTask("p1", "t1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("staged task visible before Commit: %v", err)
	}
	if got := clock(); got != clockBefore {
		t.Fatalf("write clock moved from %d to %d with nothing written", clockBefore, got)
	}

	// The later reservation commits first: sequence order is staging order.
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Commits - before; got != 2 {
		t.Fatalf("two write sets cost %d store commits", got)
	}
	posts, err := c.PostsOf("r1")
	if err != nil || len(posts) != 3 || posts[1].Tags[0] != "a" || posts[2].Tags[0] != "b" {
		t.Fatalf("posts = %+v, %v", posts, err)
	}
	if task, err := c.GetTask("p1", "t1"); err != nil || task.Status != TaskCompleted {
		t.Fatalf("task = %+v, %v; the later staged write wins", task, err)
	}
	if got := clock(); got != clockBefore+4 {
		t.Fatalf("write clock advanced by %d for 4 staged writes", got-clockBefore)
	}
	if err := w.Commit(); err != nil || db.Stats().Commits-before != 2 {
		t.Fatalf("an empty Commit must be free: %v, %d commits", err, db.Stats().Commits-before)
	}
}

// TestWriteSetOfOneIsAPlainRecord: the single-record methods are write sets
// of one, and a write set of one reaches the WAL as the put record it always
// was — no batch wrapper, not a byte more.
func TestWriteSetOfOneIsAPlainRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := NewCatalog(db)
	task := TaskRec{ID: "t1", ProjectID: "p1", ResourceID: "r1", Status: TaskAssigned}
	if err := c.PutTask(task); err != nil {
		t.Fatal(err)
	}
	viaCatalog := db.Stats().WALBytes
	if err := db.Put(TableTasks, "p1/t2", task); err != nil { // same length key and value
		t.Fatal(err)
	}
	if viaPut := db.Stats().WALBytes - viaCatalog; viaPut != viaCatalog {
		t.Fatalf("PutTask wrote %d WAL bytes, a bare Put of the same record %d", viaCatalog, viaPut)
	}
	data, _, err := db.ReplTail(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseReplicated(data, 0)
	if err != nil || len(recs) != 2 || recs[0].Op != OpPut || recs[0].Batch != nil {
		t.Fatalf("records = %+v, %v", recs, err)
	}
}

// TestCommittedListIsScratch: a committed write set's mutation list goes
// back to its pool, cleared, and the next set stages other records into it.
// Nothing the store keeps refers to that list: the tree (Get), the tail
// window a follower is shipped from, the log a reopen replays and a snapshot
// all still hold the committed records while the list holds the next set's.
func TestCommittedListIsScratch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(db)
	committed := []TaskRec{
		{ID: "t1", ProjectID: "p1", ResourceID: "r1", Status: TaskAssigned},
		{ID: "t2", ProjectID: "p1", ResourceID: "r2", Status: TaskAssigned},
		{ID: "t3", ProjectID: "p2", ResourceID: "r3", Status: TaskAssigned},
	}
	w := c.Begin(len(committed) + 1) // room for the next set too
	for _, task := range committed {
		if err := w.PutTask(task); err != nil {
			t.Fatal(err)
		}
	}
	list := *w.muts
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, m := range list {
		if m.Table != "" || m.Key != "" || m.Value != nil {
			t.Fatalf("mutation %d still holds %s/%s after Commit: the list must go back cleared", i, m.Table, m.Key)
		}
	}

	// The next set stages other values under the same keys, and one more
	// key, into the recycled list, and is never committed.
	next := c.Begin(len(committed) + 1)
	for _, task := range append(slices.Clone(committed), TaskRec{ID: "t4", ProjectID: "p2"}) {
		task.ResourceID, task.Status = "staged", TaskCompleted
		if err := next.PutTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if &(*next.muts)[0] != &list[0] {
		if !raceEnabled { // under -race a sync.Pool drops items at random
			t.Fatal("the next write set did not stage into the recycled list")
		}
		copy(list, *next.muts)
	}

	holds := func(what string, c *Catalog) {
		t.Helper()
		for _, want := range committed {
			if got, err := c.GetTask(want.ProjectID, want.ID); err != nil || got.ResourceID != want.ResourceID || got.Status != want.Status {
				t.Errorf("%s: task %s = %+v, %v; want the committed record", what, want.ID, got, err)
			}
		}
		if _, err := c.GetTask("p2", "t4"); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: an uncommitted task is visible: %v", what, err)
		}
	}
	holds("Get", c)

	data, _, err := db.ReplTail(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseReplicated(data, 0)
	if err != nil || len(recs) != 1 || len(recs[0].Batch) != len(committed) {
		t.Fatalf("tail window: records %+v, %v; want one batch of %d", recs, err, len(committed))
	}
	for i, sub := range recs[0].Batch {
		task, err := decodeRec[TaskRec](sub.Value)
		if want := committed[i]; err != nil || sub.Key != taskKey(want.ProjectID, want.ID) || task.ResourceID != want.ResourceID {
			t.Errorf("tail window: sub-record %d is %s = %+v, %v; want the committed task %s", i, sub.Key, task, err, want.ID)
		}
	}

	snap, err := db.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	installed := mustOpen(t, filepath.Join(t.TempDir(), "installed.wal"), Options{})
	defer installed.Close()
	if err := installed.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	holds("installed snapshot", NewCatalog(installed))

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	holds("replay", NewCatalog(reopened))
}

// TestWriteSetFailedCommitWritesNothing: a failed Commit leaves no key, no
// cache entry and no clock tick behind, and the set is empty afterwards.
func TestWriteSetFailedCommitWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	var hook crashHook
	db, err := Open(path, Options{Fault: hook.fault})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(db)
	if err := c.PutTask(TaskRec{ID: "t0", ProjectID: "p1"}); err != nil {
		t.Fatal(err)
	}
	clockBefore := clockSum(c)
	hook.arm(tearAppend, 0)
	w := c.Begin(2)
	_, _ = w.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"lost"}})
	_ = w.PutTask(TaskRec{ID: "t1", ProjectID: "p1"})
	if err := w.Commit(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Commit = %v, want the store's failure", err)
	}
	if got := clockSum(c); got != clockBefore {
		t.Errorf("write clock moved by %d on a failed commit", got-clockBefore)
	}
	if db.CountPrefix(TablePosts, "r1/") != 0 || db.Has(TableTasks, "p1/t1") {
		t.Error("a failed commit left keys in memory")
	}
	hook.arm(nil, 0)
	_ = db.Close()
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count(TablePosts) != 0 || re.Count(TableTasks) != 1 {
		t.Errorf("after restart: %d posts, %d tasks; want 0, 1", re.Count(TablePosts), re.Count(TableTasks))
	}
}

func BenchmarkAppendPostMemory(b *testing.B) {
	c := NewCatalog(OpenMemory())
	now := time.Now().UTC()
	p := PostRec{ResourceID: "r1", Tags: []string{"go", "db", "tags"}, Time: now}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AppendPost(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendPostWAL(b *testing.B) {
	path := filepath.Join(b.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	c := NewCatalog(db)
	now := time.Now().UTC()
	p := PostRec{ResourceID: "r1", Tags: []string{"go", "db", "tags"}, Time: now}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AppendPost(p); err != nil {
			b.Fatal(err)
		}
	}
}

// clockSum sums the catalog's table write clocks: each only advances, so an
// unchanged sum across an operation proves none of them moved.
func clockSum(c *Catalog) uint64 {
	var sum uint64
	for _, table := range []string{TableResources, TablePosts, TableProjects, TableTasks, TableUsers} {
		sum += c.Clock(table).Load()
	}
	return sum
}

// TestProjectSetsStayOutOfThePools: the list and value buffer of an
// unpooled set — a project's creation, here 6 001 records — are not handed to
// the next set, while those of the largest set a batch call stages (10 000
// tasks:batch items, 20 000 mutations) are recycled.
func TestProjectSetsStayOutOfThePools(t *testing.T) {
	c := NewCatalog(OpenMemory())
	stage := func(w *WriteSet, n int) *WriteSet {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.PutResource(ResourceRec{ID: fmt.Sprintf("r%05d", i), ProjectID: "p1", Kind: "url", Name: fmt.Sprintf("resource %0100d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	project := stage(c.BeginUnpooled(6001), 6001)
	first, scratch := &(*project.muts)[0], &(*project.scratch)[0]
	if err := project.Commit(); err != nil {
		t.Fatal(err)
	}
	next := stage(c.Begin(2), 2)
	if &(*next.muts)[0] == first || &(*next.scratch)[0] == scratch {
		t.Fatalf("Begin(2) after a project's 6 001-record set stages into its list or buffer (cap %d, %d bytes)",
			cap(*next.muts), cap(*next.scratch))
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}

	batch := stage(c.Begin(20000), 20000)
	first, scratch = &(*batch.muts)[0], &(*batch.scratch)[0]
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	next = stage(c.Begin(2), 2)
	if (&(*next.muts)[0] != first || &(*next.scratch)[0] != scratch) && !raceEnabled { // under -race a sync.Pool drops items at random
		t.Fatal("a 20 000-mutation set's list or buffer was not recycled")
	}
}
