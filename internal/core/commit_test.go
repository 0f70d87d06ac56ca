package core

// Tests for the commit discipline of the manual path: one store commit per
// call, taken after the engine lock is released, with its error returned.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itag/internal/chaos"
	"itag/internal/dataset"
	"itag/internal/store"
)

// tornAppends returns a schedule whose one fault tears a store's writes to
// its segments at half, and opts with the schedule's hook: the store runs
// clean until the schedule starts, then crashes at its next append.
func tornAppends(opts store.Options) (*chaos.Schedule, store.Options) {
	s := chaos.NewSchedule(1, chaos.Fault{Kind: chaos.KindTornWrite, Host: ".seg-"})
	opts.Fault = s.Disk
	return s, opts
}

func openWAL(t *testing.T, path string, opts store.Options) *store.DB {
	t.Helper()
	db, err := store.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

// batchProject is an n-resource FP-MU manual project with two taggers.
func batchProject(t *testing.T, s *Service, n, budget int) (proj string, taggers [2]string, run *Run) {
	t.Helper()
	ctx := context.Background()
	prov, err := s.RegisterProvider(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	for i := range taggers {
		if taggers[i], err = s.RegisterTagger(ctx, fmt.Sprintf("tagger-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	resources := make([]dataset.Resource, n)
	for i := range resources {
		id := fmt.Sprintf("res-%04d", i)
		resources[i] = dataset.Resource{ID: id, Kind: dataset.KindURL, Name: id, Popularity: 1}
	}
	proj, err = s.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "batch", Budget: budget, PayPerTask: 0.05, Strategy: "fp-mu", Resources: resources,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run, err = s.run(proj); err != nil {
		t.Fatal(err)
	}
	return proj, taggers, run
}

// completedTasks counts the project's task records that say completed.
func completedTasks(t *testing.T, cat *store.Catalog, proj string) int {
	t.Helper()
	done, err := cat.TasksByProject(proj, store.TaskCompleted)
	if err != nil {
		t.Fatal(err)
	}
	return len(done)
}

// checkConservation: every debited task is either completed on disk or
// still outstanding — none leaked, none paid twice.
func checkConservation(t *testing.T, s *Service, proj string, run *Run) {
	t.Helper()
	spent, done, pending := run.Engine.Spent(), completedTasks(t, s.Catalog(), proj), run.Engine.PendingTasks()
	if spent != done+pending {
		t.Fatalf("Spent() = %d, completed = %d, PendingTasks() = %d: budget not conserved", spent, done, pending)
	}
}

func commits(s *Service) uint64 { return s.StoreStats().Commits }

// TestSubmitTaskReportsLostPost: a post that did not persist is not acked.
// The task stays outstanding (the tagger holds it), the budget is conserved,
// and no post key comes back after a restart.
func TestSubmitTaskReportsLostPost(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "itag.wal")
	tear, opts := tornAppends(store.Options{SyncEvery: 1})
	db := openWAL(t, path, opts)
	s := NewService(store.NewCatalog(db), 77)
	proj, tagger, run := leakProject(t, s)
	task, err := s.RequestTask(ctx, proj, tagger)
	if err != nil {
		t.Fatal(err)
	}

	tear.Start()
	if err := s.SubmitTask(ctx, proj, task.ID, []string{"go", "db"}); err == nil {
		t.Fatal("SubmitTask acked a post the store did not take")
	}
	checkConservation(t, s, proj, run)
	if got := run.Engine.PendingTasks(); got != 1 {
		t.Errorf("PendingTasks() = %d, want the unsubmitted task still outstanding", got)
	}
	if _, ok := run.tasks[task.ID]; !ok {
		t.Error("the task the tagger holds can no longer be submitted")
	}
	checkRank(t, run.Engine)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := openWAL(t, path, store.Options{SyncEvery: 1})
	if n := re.CountPrefix(store.TablePosts, task.ResourceID+"/"); n != 0 {
		t.Errorf("%d post keys under %s after restart, want none", n, task.ResourceID)
	}
	if got, err := store.NewCatalog(re).GetTask(proj, task.ID); err != nil || got.Status != store.TaskAssigned {
		t.Errorf("task after restart = %+v, %v; want it still assigned", got, err)
	}
}

// applyFailStore fails every commit while fail is set, and takes them again
// once it is cleared (unlike a crash through the store's fault hook, which wedges it).
type applyFailStore struct {
	store.Store
	fail bool
}

func (a *applyFailStore) Apply(muts []store.Mutation) error {
	if a.fail {
		return errors.New("injected commit failure")
	}
	return a.Store.Apply(muts)
}

// TestSubmitTaskRetriesAfterFailedCommit: SubmitTask builds the completed
// record from the assigned one the run holds, never re-reading the store. A
// failed commit must hand the tagger back the assigned record — not the
// completed copy it was about to write — and the retry then writes exactly
// one completed record.
func TestSubmitTaskRetriesAfterFailedCommit(t *testing.T) {
	ctx := context.Background()
	fs := &applyFailStore{Store: store.OpenMemory()}
	s := NewService(store.NewCatalog(fs), 77)
	proj, tagger, run := leakProject(t, s)
	task, err := s.RequestTask(ctx, proj, tagger)
	if err != nil {
		t.Fatal(err)
	}

	fs.fail = true
	if err := s.SubmitTask(ctx, proj, task.ID, []string{"go"}); err == nil {
		t.Fatal("SubmitTask acked a commit the store refused")
	}
	fs.fail = false
	if held, ok := run.tasks[task.ID]; !ok || held.record(proj, task.ID) != task {
		t.Fatalf("held record after a failed commit = %+v, %v; want the assigned record %+v", held, ok, task)
	}
	if got := run.Engine.PendingTasks(); got != 1 {
		t.Errorf("PendingTasks() = %d after a failed submit, want 1", got)
	}
	if err := s.SubmitTask(ctx, proj, task.ID, []string{"go"}); err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	tasks, err := s.Catalog().TasksByProject(proj, "")
	if err != nil || len(tasks) != 1 {
		t.Fatalf("task records after the retry = %+v, %v; want one", tasks, err)
	}
	if got := tasks[0]; got.Status != store.TaskCompleted || got.WorkerID != tagger || got.DoneAt.IsZero() || !got.CreatedAt.Equal(task.CreatedAt) {
		t.Errorf("stored task = %+v; want the leased record, completed", got)
	}
	if spent, pending := run.Engine.Spent(), run.Engine.PendingTasks(); spent != 1 || pending != 0 {
		t.Errorf("spent = %d, pending = %d; want 1, 0", spent, pending)
	}
	checkRank(t, run.Engine)
}

// TestTaggersNotSerialisedBehindACommit: while one tagger's submit sits in
// the store's writer (held inside the fault hook at its write, where an
// fsync would be), the other tagger's calls get through the engine and queue at the
// store. The store has one writer, so they cannot return before it is
// released; what the engine lock no longer does is keep them from reaching
// it. Before, the first submit's commit ran under Engine.mu, the second
// tagger waited on ChooseNext, and the queue behind the held batch stayed
// empty.
func TestTaggersNotSerialisedBehindACommit(t *testing.T) {
	ctx := context.Background()
	inHook, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var armed atomic.Bool
	hold := func(op store.FileOp, _ string, _ int) (bool, int) {
		if op == store.FileWrite && armed.Load() {
			once.Do(func() { close(inHook); <-release })
		}
		return false, 0
	}
	db := openWAL(t, filepath.Join(t.TempDir(), "itag.wal"), store.Options{SyncEvery: 1, Fault: hold})
	s := NewService(store.NewCatalog(db), 77)
	proj, taggers, run := batchProject(t, s, 8, 100)
	var held [2]store.TaskRec
	for i, tg := range taggers {
		var err error
		if held[i], err = s.RequestTask(ctx, proj, tg); err != nil {
			t.Fatal(err)
		}
	}

	armed.Store(true)
	before, seq := s.StoreStats(), db.Seq()
	errc := make(chan error, 3)
	go func() { errc <- s.SubmitTask(ctx, proj, held[0].ID, []string{"first"}) }()
	<-inHook // tagger 0's commit is the batch in the writer's hands

	go func() { errc <- s.SubmitTask(ctx, proj, held[1].ID, []string{"second"}) }()
	go func() {
		_, err := s.RequestTask(ctx, proj, taggers[1])
		errc <- err
	}()
	// A commit takes its sequence number as it joins the writer's queue: two
	// more numbers mean both of tagger 1's calls are through the engine and
	// waiting at the store, while tagger 0's commit is still blocked.
	for deadline := time.Now().Add(10 * time.Second); db.Seq() != seq+3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the second tagger is stuck behind the first tagger's commit")
		}
	}
	if spent := run.Engine.Spent(); spent != 3 {
		t.Errorf("Spent() = %d with three tasks leased", spent)
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	after := s.StoreStats()
	if got := after.Commits - before.Commits; got != 3 {
		t.Errorf("%d commits for two submits and a request, want 3", got)
	}
	if got := after.CommitBatches - before.CommitBatches; got != 2 {
		t.Errorf("3 commits in %d batches, want 2: the held one, then both that queued behind it", got)
	}
	checkConservation(t, s, proj, run)
}

// TestBatchTasksCommitsOnce: 200 request+submit items are one store commit,
// each task written once, already completed; items fail on their own.
func TestBatchTasksCommitsOnce(t *testing.T) {
	ctx := context.Background()
	s := newService(t)
	proj, taggers, run := batchProject(t, s, 50, 205)
	items := make([]BatchItem, 0, 210)
	for i := 0; i < 200; i++ {
		items = append(items, BatchItem{TaggerID: taggers[i%2], Tags: []string{"go", fmt.Sprintf("t%d", i%7)}})
	}
	items = append(items,
		BatchItem{TaggerID: "ghost", Tags: []string{"x"}}, // unknown tagger
		BatchItem{TaggerID: taggers[0]},                   // request only
		BatchItem{TaggerID: taggers[1], Tags: []string{}}, // request only, too
	)
	for i := 0; i < 7; i++ { // 3 more fit the budget, 4 do not
		items = append(items, BatchItem{TaggerID: taggers[0], Tags: []string{"late"}})
	}
	before := commits(s)
	res, err := s.BatchTasks(ctx, proj, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := commits(s) - before; got != 1 {
		t.Errorf("the call cost %d store commits, want 1", got)
	}
	if len(res) != len(items) {
		t.Fatalf("%d results for %d items", len(res), len(items))
	}
	for i, r := range res[:200] {
		if r.Err != nil || !r.Submitted {
			t.Fatalf("item %d = %+v", i, r)
		}
		got, err := s.Catalog().GetTask(proj, r.TaskID)
		if err != nil || got.Status != store.TaskCompleted || got.WorkerID != items[i].TaggerID || got.DoneAt.IsZero() || got.ResourceID != r.ResourceID {
			t.Fatalf("stored task of item %d = %+v, %v", i, got, err)
		}
	}
	if res[200].Err == nil || res[200].TaskID != "" {
		t.Errorf("unknown tagger item = %+v", res[200])
	}
	for _, i := range []int{201, 202} {
		r := res[i]
		if r.Err != nil || r.Submitted {
			t.Fatalf("request-only item %d = %+v", i, r)
		}
		if got, err := s.Catalog().GetTask(proj, r.TaskID); err != nil || got.Status != store.TaskAssigned {
			t.Fatalf("stored task of request-only item %d = %+v, %v", i, got, err)
		}
		if err := s.SubmitTask(ctx, proj, r.TaskID, []string{"later"}); err != nil {
			t.Errorf("request-only task %s is not submittable: %v", r.TaskID, err)
		}
	}
	okLate := 0
	for _, r := range res[203:] {
		if r.Err == nil {
			okLate++
		} else if r.TaskID != "" {
			t.Errorf("exhausted item carries a task: %+v", r)
		}
	}
	if okLate != 3 {
		t.Errorf("%d late items fit a budget with room for 3", okLate)
	}
	if spent := run.Engine.Spent(); spent != 205 {
		t.Errorf("Spent() = %d, want the whole budget of 205", spent)
	}
	checkConservation(t, s, proj, run)
	checkRank(t, run.Engine)
	total := 0
	for _, r := range run.Engine.cfg.Resources {
		total += s.Catalog().DB().CountPrefix(store.TablePosts, r.ID+"/")
	}
	if total != 205 {
		t.Errorf("%d posts stored, want 205", total)
	}
}

// TestBatchTasksRejectedPostKeepsTaskAssigned: an item whose post the engine
// refuses still holds its task, like a failed SubmitTask after RequestTask.
func TestBatchTasksRejectedPostKeepsTaskAssigned(t *testing.T) {
	ctx := context.Background()
	s := newService(t)
	proj, taggers, run := batchProject(t, s, 4, 10)
	res, err := s.BatchTasks(ctx, proj, []BatchItem{
		{TaggerID: taggers[0], Tags: []string{""}}, // an empty tag is no tag
		{TaggerID: taggers[1], Tags: []string{"fine"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[0].Submitted || res[0].TaskID == "" {
		t.Fatalf("rejected item = %+v", res[0])
	}
	if res[1].Err != nil || !res[1].Submitted {
		t.Fatalf("good item = %+v", res[1])
	}
	if got, err := s.Catalog().GetTask(proj, res[0].TaskID); err != nil || got.Status != store.TaskAssigned {
		t.Fatalf("stored task of the rejected item = %+v, %v", got, err)
	}
	if err := s.SubmitTask(ctx, proj, res[0].TaskID, []string{"fixed"}); err != nil {
		t.Fatalf("the task of a rejected post cannot be resubmitted: %v", err)
	}
	checkConservation(t, s, proj, run)
}

// TestBatchTasksCrashIsAllOrNothing kills the store inside a tasks:batch
// commit, at the two ends of it: torn mid-append (nothing of the call
// survives) and right after it turned durable (all of it does). Either way
// the crashed process conserves its budget, and a restart + ResumeRuns finds
// every write of the call or none, a sound rank index and a budget that
// adds up.
func TestBatchTasksCrashIsAllOrNothing(t *testing.T) {
	const budget, nItems = 60, 40
	for _, tc := range []struct {
		name      string
		op        store.FileOp // crashed at on a segment once the call starts: its write, or the create of its successor
		survives  bool
		wantError bool
	}{
		{"append:mid-batch", store.FileWrite, false, true},
		{"rotate:mid", store.FileCreate, true, false}, // the batch is durable and acked; the rotation after it dies
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			path := filepath.Join(t.TempDir(), "itag.wal")
			opts := store.Options{SyncEvery: 1, SegmentBytes: 8 << 10} // the batch record alone fills a segment
			var armed atomic.Bool
			crash := opts
			crash.Fault = func(op store.FileOp, path string, n int) (bool, int) {
				return armed.Load() && op == tc.op && strings.Contains(path, ".seg-"), n / 2
			}
			db := openWAL(t, path, crash)
			s := NewService(store.NewCatalog(db), 77)
			proj, taggers, run := batchProject(t, s, 10, budget)
			// Some history before the crash: 5 completed, 1 assigned.
			for i := 0; i < 5; i++ {
				task, err := s.RequestTask(ctx, proj, taggers[0])
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SubmitTask(ctx, proj, task.ID, []string{"before"}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.RequestTask(ctx, proj, taggers[1]); err != nil {
				t.Fatal(err)
			}
			postsBefore, tasksBefore := db.Count(store.TablePosts), db.Count(store.TableTasks)

			items := make([]BatchItem, nItems)
			for i := range items {
				items[i] = BatchItem{TaggerID: taggers[i%2], Tags: []string{"crash", fmt.Sprintf("t%d", i)}}
				if i%10 == 9 {
					items[i].Tags = nil // request-only leases ride along
				}
			}
			armed.Store(true)
			res, err := s.BatchTasks(ctx, proj, items, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(db.Err(), store.ErrCrashed) {
				t.Fatalf("the store did not crash in the call: %v", db.Err())
			}
			for i, r := range res {
				if (r.Err != nil) != tc.wantError {
					t.Fatalf("item %d = %+v, want error = %v", i, r, tc.wantError)
				}
				if tc.wantError && r.TaskID != "" {
					t.Fatalf("failed item %d still names a task: %+v", i, r)
				}
			}
			// The crashed process: nothing leaked, whichever way it went.
			checkRank(t, run.Engine)
			kept := 0 // items of the call that took effect
			if tc.survives {
				kept = nItems
			}
			if got := run.Engine.Spent(); got != 6+kept {
				t.Errorf("Spent() = %d in the crashed process, want %d", got, 6+kept)
			}
			if wantTasks := 1 + kept/10; len(run.tasks) != wantTasks {
				t.Errorf("%d submittable tasks in the crashed process, want %d", len(run.tasks), wantTasks)
			}
			if tc.survives {
				// The catalog still reads; the conservation check needs it.
				checkConservation(t, s, proj, run)
			}

			_ = db.Close()
			re := openWAL(t, path, opts)
			s2 := NewService(store.NewCatalog(re), 77)
			if n, err := s2.ResumeRuns(ctx); err != nil || n != 1 {
				t.Fatalf("ResumeRuns = %d, %v", n, err)
			}
			wantPosts, wantTasks, wantDone := postsBefore+kept-kept/10, tasksBefore+kept, 5+kept-kept/10
			if got := re.Count(store.TablePosts); got != wantPosts {
				t.Errorf("%d posts after restart, want %d (all of the call or none)", got, wantPosts)
			}
			if got := re.Count(store.TableTasks); got != wantTasks {
				t.Errorf("%d tasks after restart, want %d (all of the call or none)", got, wantTasks)
			}
			if got := completedTasks(t, s2.Catalog(), proj); got != wantDone {
				t.Errorf("%d completed tasks after restart, want %d", got, wantDone)
			}
			run2, err := s2.run(proj)
			if err != nil {
				t.Fatal(err)
			}
			checkRank(t, run2.Engine)
			// The rebuilt engine re-counts from zero over what is left.
			if got := run2.Engine.Budget() + wantDone; got != budget {
				t.Errorf("rebuilt budget %d + %d completed = %d, want %d", run2.Engine.Budget(), wantDone, got, budget)
			}
			// It starts out holding the leases that were written and not
			// submitted: the one before the call and its request-only items.
			if held := 1 + kept/10; run2.Engine.Spent() != held || run2.Engine.PendingTasks() != held || len(run2.tasks) != held {
				t.Errorf("rebuilt engine starts at spent %d, pending %d, %d submittable; want %d held leases",
					run2.Engine.Spent(), run2.Engine.PendingTasks(), len(run2.tasks), held)
			}
			posts := 0
			for _, n := range run2.Engine.Posts() {
				posts += n
			}
			if posts != wantPosts {
				t.Errorf("rebuilt trackers hold %d posts, the store %d", posts, wantPosts)
			}
			// And the resumed project keeps working.
			if res, err := s2.BatchTasks(ctx, proj, items[:3], nil); err != nil || res[0].Err != nil {
				t.Fatalf("BatchTasks after restart: %+v, %v", res, err)
			}
		})
	}
}

// TestConcurrentSubmittersRebuildSameQuality: posts from many submitters
// race onto ONE resource; their sequence numbers are reserved under the
// engine lock, so the post log replays in the order the live tracker saw
// and a restart rebuilds exactly its quality.
func TestConcurrentSubmittersRebuildSameQuality(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "itag.wal")
	db := openWAL(t, path, store.Options{})
	s := NewService(store.NewCatalog(db), 77)
	proj, taggers, run := batchProject(t, s, 1, 400)
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Order-sensitive posts: which tags meet in the window
				// decides the stability score.
				tags := []string{fmt.Sprintf("w%d", w), fmt.Sprintf("i%d", i%5), "common"}
				if w%2 == 0 {
					task, err := s.RequestTask(ctx, proj, taggers[0])
					if err == nil {
						err = s.SubmitTask(ctx, proj, task.ID, tags)
					}
					if err != nil {
						t.Error(err)
						return
					}
					continue
				}
				res, err := s.BatchTasks(ctx, proj, []BatchItem{{TaggerID: taggers[1], Tags: tags}}, nil)
				if err != nil || res[0].Err != nil {
					t.Errorf("batch: %+v, %v", res, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	live, err := run.Engine.Status("res-0000")
	if err != nil {
		t.Fatal(err)
	}
	if live.Posts != workers*each {
		t.Fatalf("live engine holds %d posts, want %d", live.Posts, workers*each)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := openWAL(t, path, store.Options{})
	s2 := NewService(store.NewCatalog(re), 77)
	if n, err := s2.ResumeRuns(ctx); err != nil || n != 1 {
		t.Fatalf("ResumeRuns = %d, %v", n, err)
	}
	run2, err := s2.run(proj)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := run2.Engine.Status("res-0000")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Posts != live.Posts || rebuilt.Stability != live.Stability {
		t.Fatalf("rebuilt: %d posts, stability %v; live: %d posts, stability %v",
			rebuilt.Posts, rebuilt.Stability, live.Posts, live.Stability)
	}
	if len(rebuilt.Series) != len(live.Series) {
		t.Fatalf("rebuilt series has %d points, live %d", len(rebuilt.Series), len(live.Series))
	}
	for i := range live.Series {
		if rebuilt.Series[i] != live.Series[i] {
			t.Fatalf("quality series diverges at post %d: rebuilt %v, live %v", i, rebuilt.Series[i], live.Series[i])
		}
	}
}

// TestCreateProjectIsOneWriteSet: the project row, its resources and its
// seed posts are one store commit, so a create is all or nothing whichever
// write the store fails: what a restart and ResumeRuns bring back is the
// whole project when CreateProject acked it and no row at all when it did
// not — where 1 + N + M separate commits left a project that resumed over
// whatever subset of its resources had made it.
func TestCreateProjectIsOneWriteSet(t *testing.T) {
	ctx := context.Background()
	spec := func(prov string, n int) ProjectSpec {
		sp := ProjectSpec{
			ProviderID: prov, Name: "one write set", Budget: 1000, PayPerTask: 0.05,
			Resources: make([]dataset.Resource, n), SeedPosts: make(map[string][][]string, n),
		}
		for i := range sp.Resources {
			id := fmt.Sprintf("res-%04d", i)
			sp.Resources[i] = dataset.Resource{ID: id, Kind: dataset.KindURL, Name: id, Popularity: 1}
			sp.SeedPosts[id] = [][]string{{"go", "seed"}}
		}
		return sp
	}

	for _, failAt := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("store fails commit %d of the create", failAt), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "itag.wal")
			var armed atomic.Bool
			hits := 0 // touched by the store's one writer only
			failing := func(op store.FileOp, path string, n int) (bool, int) {
				if !armed.Load() || op != store.FileWrite || !strings.Contains(path, ".seg-") {
					return false, 0
				}
				hits++
				return hits == failAt, n / 2
			}
			db := openWAL(t, path, store.Options{SyncEvery: 1, Fault: failing})
			s := NewService(store.NewCatalog(db), 77)
			prov, err := s.RegisterProvider(ctx, "bob")
			if err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			before := commits(s)
			proj, createErr := s.CreateProject(ctx, spec(prov, 200))
			wantProjects, wantRows := 0, 0
			if createErr == nil {
				wantProjects, wantRows = 1, 200
				if got := commits(s) - before; got != 1 {
					t.Errorf("creating 200 resources with a seed post each cost %d store commits, want 1", got)
				}
			}
			if len(s.runs) != wantProjects {
				t.Errorf("%d live runs after CreateProject = %q, %v", len(s.runs), proj, createErr)
			}

			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := NewService(store.NewCatalog(openWAL(t, path, store.Options{SyncEvery: 1})), 77)
			resumed, err := s2.ResumeRuns(ctx)
			if err != nil {
				t.Fatal(err)
			}
			projects, err := s2.Catalog().ListProjects("")
			if err != nil {
				t.Fatal(err)
			}
			resources, err := s2.Catalog().ListResources("")
			if err != nil {
				t.Fatal(err)
			}
			posts := 0
			for _, r := range spec(prov, 200).Resources {
				posts += s2.Catalog().DB().CountPrefix(store.TablePosts, r.ID+"/")
			}
			if len(projects) != wantProjects || len(resources) != wantRows || posts != wantRows || resumed != wantProjects {
				t.Errorf("CreateProject = %q, %v; the restart holds %d project(s), %d resource(s), %d seed post(s) and resumed %d run(s), want %d, %d, %d, %d",
					proj, createErr, len(projects), len(resources), posts, resumed, wantProjects, wantRows, wantRows, wantProjects)
			}
		})
	}
}
