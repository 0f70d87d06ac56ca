package core

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"itag/internal/dataset"
	"itag/internal/store"
)

func newService(t *testing.T) *Service {
	t.Helper()
	return NewService(store.NewCatalog(store.OpenMemory()), 77)
}

func createSimProject(t *testing.T, s *Service, budget int) (providerID, projectID string) {
	t.Helper()
	prov, err := s.RegisterProvider(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := s.CreateProject(context.Background(), ProjectSpec{
		ProviderID: prov, Name: "demo", Budget: budget, PayPerTask: 0.05,
		Strategy: "fp-mu", Simulate: true, NumResources: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prov, proj
}

func TestCreateProjectValidation(t *testing.T) {
	s := newService(t)
	if _, err := s.CreateProject(context.Background(), ProjectSpec{}); err == nil {
		t.Error("missing provider must fail")
	}
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: "ghost", Budget: 10, Simulate: true}); err == nil {
		t.Error("unknown provider must fail")
	}
	prov, _ := s.RegisterProvider(context.Background(), "p")
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: prov, Simulate: true}); err == nil {
		t.Error("zero budget must fail")
	}
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: prov, Budget: 10, Strategy: "bogus", Simulate: true}); err == nil {
		t.Error("bad strategy must fail")
	}
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: prov, Budget: 10}); err == nil {
		t.Error("no resources and no simulate must fail")
	}
}

func TestSimulatedProjectLifecycle(t *testing.T) {
	s := newService(t)
	prov, proj := createSimProject(t, s, 120)

	info, err := s.Project(context.Background(), proj)
	if err != nil {
		t.Fatal(err)
	}
	if info.Project.ProviderID != prov || info.Running {
		t.Errorf("info = %+v", info)
	}
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.StartSimulation(context.Background(), proj); err == nil {
		t.Error("double start must fail")
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	info, _ = s.Project(context.Background(), proj)
	if info.Spent != 120 {
		t.Errorf("spent = %d, want 120", info.Spent)
	}
	if info.MeanStability <= 0 || info.MeanOracle <= 0 {
		t.Errorf("quality not tracked: %+v", info)
	}
	rec, _ := s.Catalog().GetProject(proj)
	if rec.Status != store.ProjectDone || rec.Spent != 120 {
		t.Errorf("persisted project: %+v", rec)
	}
	// Posts persisted via OnPost.
	resources, _ := s.Catalog().ListResources(proj)
	totalPosts := 0
	for _, r := range resources {
		totalPosts += s.Catalog().DB().CountPrefix(store.TablePosts, r.ID+"/")
	}
	// Some posts may be rejected by the judge; persisted posts equal
	// accepted posts, which must be positive and <= 120.
	if totalPosts == 0 || totalPosts > 120 {
		t.Errorf("persisted posts = %d", totalPosts)
	}
	// Series available.
	xs, ys, err := s.QualitySeries(context.Background(), proj, SeriesMeanStability)
	if err != nil || len(xs) == 0 || len(ys) != len(xs) {
		t.Errorf("series: %d/%d, %v", len(xs), len(ys), err)
	}
	if _, _, err := s.QualitySeries(context.Background(), proj, "nope"); err == nil {
		t.Error("unknown series must fail")
	}
	// Export produces rows with tags.
	rows, next, err := s.ExportPage(context.Background(), proj, "", 0)
	if err != nil || len(rows) != 12 || next != "" {
		t.Fatalf("export: %d rows, next %q, %v", len(rows), next, err)
	}
	withTags := 0
	for _, row := range rows {
		if len(row.TopTags) > 0 {
			withTags++
		}
	}
	if withTags == 0 {
		t.Error("export has no tags")
	}
}

func TestProviderControlsThroughService(t *testing.T) {
	s := newService(t)
	_, proj := createSimProject(t, s, 60)
	if err := s.StopResource(context.Background(), proj, "r0003"); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Catalog().GetResource("r0003")
	if !rec.Stopped {
		t.Error("stop not persisted")
	}
	if err := s.ResumeResource(context.Background(), proj, "r0003"); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.Catalog().GetResource("r0003")
	if rec.Stopped {
		t.Error("resume not persisted")
	}
	if err := s.Promote(context.Background(), proj, "r0005"); err != nil {
		t.Fatal(err)
	}
	if err := s.SwitchStrategy(context.Background(), proj, "mu"); err != nil {
		t.Fatal(err)
	}
	prec, _ := s.Catalog().GetProject(proj)
	if prec.Strategy != "mu" {
		t.Errorf("strategy not persisted: %s", prec.Strategy)
	}
	if err := s.SwitchStrategy(context.Background(), proj, "garbage"); err == nil {
		t.Error("bad strategy spec must fail")
	}
	if err := s.AddBudget(context.Background(), proj, 40); err != nil {
		t.Fatal(err)
	}
	prec, _ = s.Catalog().GetProject(proj)
	if prec.Budget != 100 {
		t.Errorf("budget not persisted: %d", prec.Budget)
	}
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	info, _ := s.Project(context.Background(), proj)
	if info.Spent != 100 {
		t.Errorf("spent = %d, want 100", info.Spent)
	}
}

func TestManualTaskFlow(t *testing.T) {
	s := newService(t)
	prov, _ := s.RegisterProvider(context.Background(), "bob")
	tagger, _ := s.RegisterTagger(context.Background(), "carol")
	proj, err := s.CreateProject(context.Background(), ProjectSpec{
		ProviderID: prov, Name: "manual", Budget: 3, PayPerTask: 0.10,
		Strategy:  "fp",
		Resources: manualResources(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartSimulation(context.Background(), proj); err == nil {
		t.Error("manual project must refuse simulation")
	}
	// Unknown tagger rejected.
	if _, err := s.RequestTask(context.Background(), proj, "ghost"); err == nil {
		t.Error("unknown tagger must fail")
	}
	task, err := s.RequestTask(context.Background(), proj, tagger)
	if err != nil {
		t.Fatal(err)
	}
	if task.ResourceID == "" || task.Reward != 0.10 {
		t.Errorf("task = %+v", task)
	}
	// Bad submission (empty tags) keeps the task claimable.
	if err := s.SubmitTask(context.Background(), proj, task.ID, nil); err == nil {
		t.Error("empty tags must fail")
	}
	if err := s.SubmitTask(context.Background(), proj, task.ID, []string{"go", "db"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTask(context.Background(), proj, task.ID, []string{"again"}); err == nil {
		t.Error("double submit must fail")
	}
	rec, err := s.Catalog().GetTask(proj, task.ID)
	if err != nil || rec.Status != store.TaskCompleted {
		t.Errorf("task record: %+v, %v", rec, err)
	}
	// Post persisted pending approval; judge it.
	posts, _ := s.Catalog().PostsOf(task.ResourceID)
	if len(posts) != 1 || posts[0].Approved != nil {
		t.Fatalf("posts = %+v", posts)
	}
	if err := s.JudgePost(context.Background(), proj, task.ResourceID, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.JudgePost(context.Background(), proj, task.ResourceID, 1, false); err == nil {
		t.Error("double judgment must fail")
	}
	if got := s.Users().TaggerApprovalRate(tagger); got != 1 {
		t.Errorf("tagger rate = %v", got)
	}
	if got := s.Ledger().Earned(tagger); got != 0.10 {
		t.Errorf("earned = %v", got)
	}
	// Exhaust the budget.
	for i := 0; i < 2; i++ {
		tk, err := s.RequestTask(context.Background(), proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitTask(context.Background(), proj, tk.ID, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RequestTask(context.Background(), proj, tagger); err == nil {
		t.Error("exhausted budget must refuse tasks")
	}
	// Provider rating flows through.
	s.RateProvider(context.Background(), prov, true)
	s.RateProvider(context.Background(), prov, false)
	if got := s.Users().ProviderApprovalRate(prov); got != 0.5 {
		t.Errorf("provider rate = %v", got)
	}
}

func TestServicePersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "itag.wal")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(store.NewCatalog(db), 5)
	_, proj := createSimProject(t, s, 40)
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	cat := store.NewCatalog(db2)
	rec, err := cat.GetProject(proj)
	if err != nil || rec.Status != store.ProjectDone {
		t.Errorf("recovered project: %+v, %v", rec, err)
	}
	resources, _ := cat.ListResources(proj)
	if len(resources) != 12 {
		t.Errorf("recovered resources = %d", len(resources))
	}
}

func TestStopProject(t *testing.T) {
	s := newService(t)
	_, proj := createSimProject(t, s, 500)
	if err := s.StopProject(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Catalog().GetProject(proj)
	if rec.Status != store.ProjectStopped {
		t.Errorf("status = %s", rec.Status)
	}
	// With everything stopped the engine drains immediately.
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	info, _ := s.Project(context.Background(), proj)
	if info.Spent != 0 {
		t.Errorf("stopped project spent %d", info.Spent)
	}
}

func TestResourceDetailThroughService(t *testing.T) {
	s := newService(t)
	_, proj := createSimProject(t, s, 60)
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	st, err := s.ResourceDetail(context.Background(), proj, "r0000")
	if err != nil {
		t.Fatal(err)
	}
	if st.Posts == 0 && st.Allocated == 0 {
		t.Errorf("detail empty: %+v", st)
	}
	if _, err := s.ResourceDetail(context.Background(), proj, "nope"); err == nil {
		t.Error("unknown resource must fail")
	}
	if _, err := s.ResourceDetail(context.Background(), "ghost-project", "r0000"); err == nil {
		t.Error("unknown project must fail")
	}
}

func TestProjectsListing(t *testing.T) {
	s := newService(t)
	provA, _ := s.RegisterProvider(context.Background(), "a")
	provB, _ := s.RegisterProvider(context.Background(), "b")
	for i := 0; i < 2; i++ {
		if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: provA, Budget: 10, Simulate: true, NumResources: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: provB, Budget: 10, Simulate: true, NumResources: 3}); err != nil {
		t.Fatal(err)
	}
	all, next, err := s.ProjectsPage(context.Background(), "", "", 0)
	if err != nil || len(all) != 3 || next != "" {
		t.Fatalf("all = %d, next %q, %v", len(all), next, err)
	}
	mine, next, err := s.ProjectsPage(context.Background(), provA, "", 0)
	if err != nil || len(mine) != 2 || next != "" {
		t.Fatalf("provA = %d, next %q, %v", len(mine), next, err)
	}
	if !strings.HasPrefix(mine[0].Project.ID, "proj-") {
		t.Errorf("project ID = %s", mine[0].Project.ID)
	}
}

// TestConcurrentJudgesPayOnce: of eight concurrent approvals of one post,
// exactly one is recorded and paid, post after post.
func TestConcurrentJudgesPayOnce(t *testing.T) {
	s := newService(t)
	ctx := context.Background()
	prov, _ := s.RegisterProvider(ctx, "bob")
	tagger, _ := s.RegisterTagger(ctx, "carol")
	const posts, judges, pay = 16, 8, 0.25
	proj, err := s.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "judged", Budget: posts, PayPerTask: pay,
		Strategy: "fp", Resources: manualResources(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < posts; i++ {
		task, err := s.RequestTask(ctx, proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitTask(ctx, proj, task.ID, []string{"go"}); err != nil {
			t.Fatal(err)
		}
	}
	judged := 0
	for _, res := range manualResources() {
		stored, err := s.Catalog().PostsOf(res.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stored {
			seq := uint64(i + 1)
			var wins atomic.Int32
			var wg sync.WaitGroup
			start := make(chan struct{})
			for j := 0; j < judges; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if s.JudgePost(ctx, proj, res.ID, seq, true) == nil {
						wins.Add(1)
					}
				}()
			}
			close(start)
			wg.Wait()
			if n := wins.Load(); n != 1 {
				t.Fatalf("post %s/%d: %d of %d concurrent judges succeeded, want 1", res.ID, seq, n, judges)
			}
			judged++
		}
	}
	if judged != posts {
		t.Fatalf("judged %d posts, want %d", judged, posts)
	}
	if got := s.Ledger().Earned(tagger); got != posts*pay {
		t.Errorf("earned = %v, want one payment per post = %v", got, posts*pay)
	}
}

func manualResources() []dataset.Resource {
	return []dataset.Resource{
		{ID: "u1", Kind: dataset.KindURL, Name: "example.com", Popularity: 0.5},
		{ID: "u2", Kind: dataset.KindURL, Name: "example.org", Popularity: 0.5},
	}
}

// leakProject is a two-resource FP project where u1 (no posts) ranks before
// u2 (two seed posts), so the next pick is known.
func leakProject(t *testing.T, s *Service) (proj, tagger string, run *Run) {
	t.Helper()
	ctx := context.Background()
	prov, _ := s.RegisterProvider(ctx, "bob")
	tagger, _ = s.RegisterTagger(ctx, "carol")
	proj, err := s.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "leak", Budget: 5, PayPerTask: 0.10, Strategy: "fp",
		Resources: manualResources(),
		SeedPosts: map[string][][]string{"u2": {{"a"}, {"b"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err = s.run(proj)
	if err != nil {
		t.Fatal(err)
	}
	return proj, tagger, run
}

// TestRequestTaskRefundsWhenTaskWriteFails: a task whose record cannot be
// written was never handed out, so it must not stay debited and pending —
// which would also leave u1's rank key one post too high.
func TestRequestTaskRefundsWhenTaskWriteFails(t *testing.T) {
	db, err := store.Open(filepath.Join(t.TempDir(), "itag.wal"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewService(store.NewCatalog(db), 77)
	proj, tagger, run := leakProject(t, s)

	db.SetFailpoint(func(p store.Failpoint) bool { return p == store.FailAppendMid })
	if _, err := s.RequestTask(context.Background(), proj, tagger); err == nil {
		t.Fatal("RequestTask must report the failed task write")
	}
	if got := run.Engine.Spent(); got != 0 {
		t.Errorf("Spent() = %d after a failed request, want 0", got)
	}
	if got := run.Engine.PendingTasks(); got != 0 {
		t.Errorf("PendingTasks() = %d after a failed request, want 0", got)
	}
	if len(run.tasks) != 0 {
		t.Errorf("task mapping kept for a task nobody holds: %v", run.tasks)
	}
	checkRank(t, run.Engine)
	if id, ok := run.Engine.ChooseNext(); !ok || id != "u1" {
		t.Errorf("next pick = %q, %v; want u1 back at zero posts", id, ok)
	}
}
