package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"itag/internal/dataset"
	"itag/internal/errs"
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

// TestCreateProjectValidatesPay: a negative pay would lower a tagger's
// earnings on every approval, and NaN or ±Inf cannot be stored; each is a
// validation error before anything is written. Zero pay is a volunteer
// project and is accepted.
func TestCreateProjectValidatesPay(t *testing.T) {
	ctx := context.Background()
	s := newService(t)
	prov, _ := s.RegisterProvider(ctx, "p")
	before := s.Catalog().DB().Count(store.TableProjects)
	for _, pay := range []float64{-0.05, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := s.CreateProject(ctx, ProjectSpec{ProviderID: prov, Name: "n", Budget: 10, PayPerTask: pay, Simulate: true})
		if errs.CategoryOf(err) != errs.CategoryValidation {
			t.Errorf("pay %v: CreateProject = %v, want a validation error", pay, err)
		}
	}
	if n := s.Catalog().DB().Count(store.TableProjects); n != before {
		t.Errorf("refused projects wrote %d project rows", n-before)
	}
	if _, err := s.CreateProject(ctx, ProjectSpec{ProviderID: prov, Name: "volunteer", Budget: 10, PayPerTask: 0, Simulate: true}); err != nil {
		t.Errorf("pay 0: CreateProject = %v", err)
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
	r3 := proj + "-r0003" // a simulated project's resource IDs carry its ID
	if err := s.StopResource(context.Background(), proj, r3); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Catalog().GetResource(r3)
	if !rec.Stopped {
		t.Error("stop not persisted")
	}
	if err := s.ResumeResource(context.Background(), proj, r3); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.Catalog().GetResource(r3)
	if rec.Stopped {
		t.Error("resume not persisted")
	}
	if err := s.Promote(context.Background(), proj, proj+"-r0005"); err != nil {
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
	if err := s.JudgePost(context.Background(), proj, task.ResourceID, 1, false); errs.CategoryOf(err) != errs.CategoryConflict {
		t.Errorf("double judgment = %v, want a conflict", err)
	}
	if u := storedUser(t, s, tagger); u.ApprovalRate() != 1 || u.Judged != 1 || u.Earned != 0.10 {
		t.Errorf("tagger after one approval = %+v", u)
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
	// Provider rating flows through to the provider's record.
	for _, positive := range []bool{true, false} {
		if err := s.RateProvider(context.Background(), prov, positive); err != nil {
			t.Fatal(err)
		}
	}
	if u := storedUser(t, s, prov); u.ApprovalRate() != 0.5 || u.Judged != 2 || u.Earned != 0 {
		t.Errorf("provider after two ratings = %+v", u)
	}
	if err := s.RateProvider(context.Background(), tagger, true); !errors.Is(err, ErrInvalidRole) {
		t.Errorf("rating a tagger = %v, want ErrInvalidRole", err)
	}
}

// storedUser reads a user's record, where every judgment is counted.
func storedUser(t *testing.T, s *Service, id string) store.UserRec {
	t.Helper()
	u, err := s.Catalog().GetUser(id)
	if err != nil {
		t.Fatal(err)
	}
	return u
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
	st, err := s.ResourceDetail(context.Background(), proj, proj+"-r0000")
	if err != nil {
		t.Fatal(err)
	}
	if st.Posts == 0 && st.Allocated == 0 {
		t.Errorf("detail empty: %+v", st)
	}
	if _, err := s.ResourceDetail(context.Background(), proj, "nope"); err == nil {
		t.Error("unknown resource must fail")
	}
	if _, err := s.ResourceDetail(context.Background(), "ghost-project", proj+"-r0000"); err == nil {
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

// TestSimulatedProjectsOwnTheirResourceIDs: two simulated projects generate
// worlds with the same resource names, and each keeps its own rows — its
// listing, its export and the keys its posts are stored under.
func TestSimulatedProjectsOwnTheirResourceIDs(t *testing.T) {
	s := newService(t)
	defer s.Close()
	ctx := context.Background()
	prov, _ := s.RegisterProvider(ctx, "alice")
	var projects [2]string
	for i := range projects {
		var err error
		if projects[i], err = s.CreateProject(ctx, ProjectSpec{
			ProviderID: prov, Budget: 20, Simulate: true, NumResources: 5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	owner := make(map[string]string) // resource ID → project
	for _, proj := range projects {
		recs, err := s.Catalog().ListResources(proj)
		if err != nil || len(recs) != 5 {
			t.Fatalf("ListResources(%s) = %d rows, %v; want 5", proj, len(recs), err)
		}
		for _, r := range recs {
			if !strings.HasPrefix(r.ID, proj+"-") || owner[r.ID] != "" {
				t.Errorf("%s lists resource %q (owned by %q)", proj, r.ID, owner[r.ID])
			}
			owner[r.ID] = proj
		}
		if err := s.StartSimulation(ctx, proj); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitSimulation(ctx, proj); err != nil {
			t.Fatal(err)
		}
	}
	for _, proj := range projects {
		rows, _, err := s.ExportPage(ctx, proj, "", 0)
		if err != nil || len(rows) != 5 {
			t.Fatalf("ExportPage(%s) = %d rows, %v; want 5", proj, len(rows), err)
		}
		for _, row := range rows {
			if owner[row.ID] != proj {
				t.Errorf("%s exports %s's resource %s", proj, owner[row.ID], row.ID)
			}
		}
	}
	stored := 0
	for id := range owner {
		stored += s.Catalog().DB().CountPrefix(store.TablePosts, id+"/")
	}
	if want := 2 * 20; stored == 0 || stored > want {
		t.Errorf("%d posts stored under the two projects' resources, want 1..%d", stored, want)
	}
}

// simOutcome is what a finished simulated run leaves behind: its spend,
// and from the catalog its posts per resource and per tagger.
type simOutcome struct {
	Spent      int
	PerRes     map[string]int
	PerTagger  map[string]int
	TotalPosts int
}

func runSimulation(t *testing.T, s *Service, proj string) simOutcome {
	t.Helper()
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	return storedOutcome(t, s, proj)
}

func storedOutcome(t *testing.T, s *Service, proj string) simOutcome {
	t.Helper()
	info, err := s.Project(context.Background(), proj)
	if err != nil {
		t.Fatal(err)
	}
	out := simOutcome{Spent: info.Spent, PerRes: make(map[string]int), PerTagger: make(map[string]int)}
	recs, err := s.Catalog().ListResources(proj)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		posts, err := s.Catalog().PostsOf(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		out.PerRes[r.ID] = len(posts)
		out.TotalPosts += len(posts)
		for _, p := range posts {
			out.PerTagger[p.TaggerID]++
		}
	}
	return out
}

// TestSimulatedProjectsAreIsolated: a simulated project's run does not
// depend on another project having run in the same Service. Each project's
// marketplace keeps its own workers' reviews (both populations use the
// same worker IDs) and its own resources, so B after A equals B in a fresh
// Service with the same seeds and creation order, where A never ran, and
// A's listing and export survive B.
func TestSimulatedProjectsAreIsolated(t *testing.T) {
	ctx := context.Background()
	const budget, resources = 480, 12
	twoProjects := func() (s *Service, a, b string) {
		s = newService(t)
		prov, err := s.RegisterProvider(ctx, "alice")
		if err != nil {
			t.Fatal(err)
		}
		var ids [2]string
		for i := range ids {
			if ids[i], err = s.CreateProject(ctx, ProjectSpec{
				ProviderID: prov, Name: fmt.Sprintf("p%d", i), Budget: budget, PayPerTask: 0.05,
				Strategy: "fp-mu", Simulate: true, NumResources: resources,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s, ids[0], ids[1]
	}

	shared, a, b := twoProjects()
	defer shared.Close()
	outA := runSimulation(t, shared, a)
	got := runSimulation(t, shared, b)

	fresh, a2, b2 := twoProjects()
	defer fresh.Close()
	if a2 != a || b2 != b {
		t.Fatalf("creation order minted %s, %s; first service %s, %s", a2, b2, a, b)
	}
	want := runSimulation(t, fresh, b2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("B after A differs from B alone:\n after A %+v\n alone   %+v", got, want)
	}

	if outA.Spent != budget || len(outA.PerRes) != resources {
		t.Fatalf("A = %+v, want spent %d over %d resources", outA, budget, resources)
	}
	if now := storedOutcome(t, shared, a); !reflect.DeepEqual(now, outA) {
		t.Errorf("A's stored outcome changed after B ran:\n before %+v\n after  %+v", outA, now)
	}
	rows, _, err := shared.ExportPage(ctx, a, "", 0)
	if err != nil || len(rows) != resources {
		t.Fatalf("ExportPage(A) = %d rows, %v; want %d", len(rows), err, resources)
	}
	exported := 0
	for _, row := range rows {
		exported += row.Posts
	}
	if exported != outA.TotalPosts {
		t.Errorf("A's export counts %d posts, its catalog %d", exported, outA.TotalPosts)
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
	for _, p := range submitPosts(t, s, proj, tagger, posts) {
		var wins atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for j := 0; j < judges; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if s.JudgePost(ctx, proj, p.resourceID, p.seq, true) == nil {
					wins.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := wins.Load(); n != 1 {
			t.Fatalf("post %s/%d: %d of %d concurrent judges succeeded, want 1", p.resourceID, p.seq, n, judges)
		}
	}
	if u := storedUser(t, s, tagger); u.Judged != posts || u.JudgedOK != posts || u.Earned != posts*pay {
		t.Errorf("stored tagger = %+v, want %d judged, %d approved and one payment per post = %v", u, posts, posts, posts*pay)
	}
}

// submitPosts has the tagger request and submit n tasks of proj and returns
// where each post landed, in order.
func submitPosts(t *testing.T, s *Service, proj, tagger string, n int) []postRef {
	t.Helper()
	ctx := context.Background()
	out := make([]postRef, 0, n)
	for i := 0; i < n; i++ {
		task, err := s.RequestTask(ctx, proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitTask(ctx, proj, task.ID, []string{"go"}); err != nil {
			t.Fatal(err)
		}
		posts, err := s.Catalog().PostsOf(task.ResourceID)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, postRef{task.ResourceID, uint64(len(posts))})
	}
	return out
}

type postRef struct {
	resourceID string
	seq        uint64
}

// TestConcurrentJudgesOfOneTagger: judges of different posts by one tagger
// all land in the tagger's one stored record — none overwrites another's
// count with a record it read before that one's commit.
func TestConcurrentJudgesOfOneTagger(t *testing.T) {
	s := newService(t)
	ctx := context.Background()
	prov, _ := s.RegisterProvider(ctx, "bob")
	tagger, _ := s.RegisterTagger(ctx, "carol")
	const n, pay = 24, 0.5
	proj, err := s.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "judged", Budget: n, PayPerTask: pay,
		Strategy: "fp", Resources: manualResources(),
	})
	if err != nil {
		t.Fatal(err)
	}
	posts := submitPosts(t, s, proj, tagger, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, p := range posts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.JudgePost(ctx, proj, p.resourceID, p.seq, i%3 != 0); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	approved := n - n/3
	if u := storedUser(t, s, tagger); u.Judged != n || u.JudgedOK != approved || u.Earned != float64(approved)*pay {
		t.Errorf("stored tagger = %+v, want %d judged, %d approved, earned %v", u, n, approved, float64(approved)*pay)
	}
}

// TestEarnedIsApprovedPay is the money invariant at service level: whatever
// the judges decide, and in whatever order, the taggers' stored earnings sum
// to the stored approved posts times the pay, and each tagger's counts match
// the verdicts on its own posts.
func TestEarnedIsApprovedPay(t *testing.T) {
	s := newService(t)
	ctx := context.Background()
	prov, _ := s.RegisterProvider(ctx, "bob")
	const perTagger, pay = 10, 0.25
	taggers := make([]string, 3)
	for i := range taggers {
		taggers[i], _ = s.RegisterTagger(ctx, fmt.Sprintf("t%d", i))
	}
	proj, err := s.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "money", Budget: perTagger * len(taggers), PayPerTask: pay,
		Strategy: "fp", Resources: manualResources(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var posts []postRef
	for _, tagger := range taggers {
		posts = append(posts, submitPosts(t, s, proj, tagger, perTagger)...)
	}
	var wg sync.WaitGroup
	for i, p := range posts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every post is judged twice: the second verdict is refused.
			for _, approved := range []bool{i%2 == 0, i%2 != 0} {
				_ = s.JudgePost(ctx, proj, p.resourceID, p.seq, approved)
			}
		}()
	}
	wg.Wait()

	type counts struct{ judged, ok int }
	want := make(map[string]counts)
	approved := 0
	for _, res := range manualResources() {
		stored, err := s.Catalog().PostsOf(res.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range stored {
			if p.Approved == nil {
				t.Fatalf("post by %s on %s left unjudged", p.TaggerID, res.ID)
			}
			c := want[p.TaggerID]
			c.judged++
			if *p.Approved {
				c.ok++
				approved++
			}
			want[p.TaggerID] = c
		}
	}
	users, err := s.Catalog().ListUsers(store.RoleTagger)
	if err != nil {
		t.Fatal(err)
	}
	earned := 0.0
	for _, u := range users {
		earned += u.Earned
		if w := want[u.ID]; u.Judged != w.judged || u.JudgedOK != w.ok || u.Earned != float64(w.ok)*pay {
			t.Errorf("tagger %s = %+v, its posts say %d judged, %d approved", u.ID, u, w.judged, w.ok)
		}
	}
	if approved == 0 || earned != float64(approved)*pay {
		t.Errorf("Σ earned = %v, want %d approved posts × %v", earned, approved, pay)
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
