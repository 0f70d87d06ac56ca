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

	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/errs"
	"itag/internal/rng"
	"itag/internal/store"
	"itag/internal/taggersim"
)

func newService(t *testing.T) *Service {
	t.Helper()
	return NewService(store.NewCatalog(store.OpenMemory()), 77)
}

// simProject is a project over a generated world with a simulated tagger
// population registered to tag it on the served path.
type simProject struct {
	prov, id string
	world    *dataset.World
	taggers  []string // taggers[i] is the population's i-th profile
	pop      *taggersim.Population
}

// createSimProject registers a provider and eight taggers, and creates a
// project over twelve resources of a generated world, uploaded as a
// provider uploads them: their IDs carry the provider's, so the projects of
// one Service never share a resource, and their latent distributions ride
// along, so the engine tracks oracle quality.
func createSimProject(t *testing.T, s *Service, budget int) simProject {
	t.Helper()
	ctx := context.Background()
	prov, err := s.RegisterProvider(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	p := simProject{prov: prov}
	if p.world, err = dataset.Generate(rng.New(1), dataset.GeneratorConfig{NumResources: 12}); err != nil {
		t.Fatal(err)
	}
	for i := range p.world.Dataset.Resources {
		p.world.Dataset.Resources[i].ID = prov + "-" + p.world.Dataset.Resources[i].ID
	}
	if p.pop, err = taggersim.NewPopulation(rng.New(2), taggersim.PopulationConfig{Size: 8, UnreliableFraction: 0.1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range WorkerIDs(p.pop) {
		tagger, err := s.RegisterTagger(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		p.taggers = append(p.taggers, tagger)
	}
	p.id, err = s.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "demo", Budget: budget, PayPerTask: 0.05,
		Strategy: "fp-mu", Resources: p.world.Dataset.Resources,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// resource is the ID of the project's i-th generated resource.
func (p simProject) resource(i int) string { return p.world.Dataset.Resources[i].ID }

// simulate gives e, the engine of p's run, the marketplace a stepped run
// drives: an MTurk simulator whose workers are p's population, and the
// latent-overlap judge. A served project's engine has none; this is what
// the in-process harness runs.
func (p simProject) simulate(t *testing.T, e *Engine) {
	t.Helper()
	plat, err := crowd.NewMTurkSim(WorkerIDs(p.pop), GenerativeSource(taggersim.NewSimulator(p.world), p.pop, 4), 5)
	if err != nil {
		t.Fatal(err)
	}
	e.cfg.Platform, e.cfg.Judge = plat, LatentOverlapJudge(p.world, 0.5)
}

// tagUntilSpent plays the simulated marketplace on the served path: the
// taggers lease in turn, post what their profile would post and submit,
// until RequestTask reports the budget spent. It returns the posts
// submitted.
func (p simProject) tagUntilSpent(t *testing.T, s *Service) int {
	t.Helper()
	ctx := context.Background()
	sim := taggersim.NewSimulator(p.world)
	r := rng.New(3)
	for n := 0; ; n++ {
		who := n % len(p.taggers)
		task, err := s.RequestTask(ctx, p.id, p.taggers[who])
		if errs.CategoryOf(err) == errs.CategoryExhausted {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		tags, err := sim.GeneratePost(r, &p.pop.Profiles[who], task.ResourceID)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitTask(ctx, p.id, task.ID, tags); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateProjectValidation(t *testing.T) {
	s := newService(t)
	if _, err := s.CreateProject(context.Background(), ProjectSpec{}); err == nil {
		t.Error("missing provider must fail")
	}
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: "ghost", Budget: 10, Resources: manualResources()}); err == nil {
		t.Error("unknown provider must fail")
	}
	prov, _ := s.RegisterProvider(context.Background(), "p")
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: prov, Resources: manualResources()}); err == nil {
		t.Error("zero budget must fail")
	}
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: prov, Budget: 10, Strategy: "bogus", Resources: manualResources()}); err == nil {
		t.Error("bad strategy must fail")
	}
	if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: prov, Budget: 10}); err == nil {
		t.Error("no resources must fail")
	}
	if n := s.Catalog().DB().Count(store.TableProjects); n != 0 {
		t.Errorf("refused projects wrote %d project rows", n)
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
		_, err := s.CreateProject(ctx, ProjectSpec{ProviderID: prov, Name: "n", Budget: 10, PayPerTask: pay, Resources: manualResources()})
		if errs.CategoryOf(err) != errs.CategoryValidation {
			t.Errorf("pay %v: CreateProject = %v, want a validation error", pay, err)
		}
	}
	if n := s.Catalog().DB().Count(store.TableProjects); n != before {
		t.Errorf("refused projects wrote %d project rows", n-before)
	}
	if _, err := s.CreateProject(ctx, ProjectSpec{ProviderID: prov, Name: "volunteer", Budget: 10, PayPerTask: 0, Resources: manualResources()}); err != nil {
		t.Errorf("pay 0: CreateProject = %v", err)
	}
}

// TestSimulatedProjectLifecycle: a project over generated resources,
// tagged by a simulated population through leases and submits, spends its
// budget, tracks stability and oracle quality, stores every post and
// exports tags.
func TestSimulatedProjectLifecycle(t *testing.T) {
	s := newService(t)
	p := createSimProject(t, s, 120)
	proj := p.id

	info, err := s.Project(context.Background(), proj)
	if err != nil {
		t.Fatal(err)
	}
	if info.Project.ProviderID != p.prov || info.Spent != 0 {
		t.Errorf("info = %+v", info)
	}
	if n := p.tagUntilSpent(t, s); n != 120 {
		t.Errorf("submitted %d posts, want 120", n)
	}
	info, _ = s.Project(context.Background(), proj)
	if info.Spent != 120 || info.PendingTasks != 0 {
		t.Errorf("spent = %d, pending %d; want 120, 0", info.Spent, info.PendingTasks)
	}
	if info.MeanStability <= 0 || info.MeanOracle <= 0 {
		t.Errorf("quality not tracked: %+v", info)
	}
	resources, _ := s.Catalog().ListResources(proj)
	totalPosts := 0
	for _, r := range resources {
		totalPosts += s.Catalog().DB().CountPrefix(store.TablePosts, r.ID+"/")
	}
	if totalPosts != 120 {
		t.Errorf("persisted posts = %d, want 120", totalPosts)
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
	p := createSimProject(t, s, 60)
	proj, r3 := p.id, p.resource(3)
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
	if err := s.Promote(context.Background(), proj, p.resource(5)); err != nil {
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
	p.tagUntilSpent(t, s)
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
	p := createSimProject(t, s, 40)
	proj := p.id
	p.tagUntilSpent(t, s)
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
	if err != nil || rec.Status != store.ProjectActive {
		t.Errorf("recovered project: %+v, %v", rec, err)
	}
	resources, _ := cat.ListResources(proj)
	if len(resources) != 12 {
		t.Errorf("recovered resources = %d", len(resources))
	}
	posts := 0
	for _, r := range resources {
		posts += db2.CountPrefix(store.TablePosts, r.ID+"/")
	}
	if posts != 40 {
		t.Errorf("recovered posts = %d, want 40", posts)
	}
}

func TestStopProject(t *testing.T) {
	s := newService(t)
	p := createSimProject(t, s, 500)
	proj := p.id
	if err := s.StopProject(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Catalog().GetProject(proj)
	if rec.Status != store.ProjectStopped {
		t.Errorf("status = %s", rec.Status)
	}
	// With everything stopped the engine leases nothing.
	if n := p.tagUntilSpent(t, s); n != 0 {
		t.Errorf("a stopped project leased %d tasks", n)
	}
	info, _ := s.Project(context.Background(), proj)
	if info.Spent != 0 {
		t.Errorf("stopped project spent %d", info.Spent)
	}
}

func TestResourceDetailThroughService(t *testing.T) {
	s := newService(t)
	p := createSimProject(t, s, 60)
	proj := p.id
	p.tagUntilSpent(t, s)
	st, err := s.ResourceDetail(context.Background(), proj, p.resource(0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Posts == 0 && st.Allocated == 0 {
		t.Errorf("detail empty: %+v", st)
	}
	if _, err := s.ResourceDetail(context.Background(), proj, "nope"); err == nil {
		t.Error("unknown resource must fail")
	}
	if _, err := s.ResourceDetail(context.Background(), "ghost-project", p.resource(0)); err == nil {
		t.Error("unknown project must fail")
	}
}

func TestProjectsListing(t *testing.T) {
	s := newService(t)
	provA, _ := s.RegisterProvider(context.Background(), "a")
	provB, _ := s.RegisterProvider(context.Background(), "b")
	for i, prov := range []string{provA, provA, provB} {
		res := []dataset.Resource{{ID: fmt.Sprintf("res-%d", i), Kind: dataset.KindURL, Name: "example.com"}}
		if _, err := s.CreateProject(context.Background(), ProjectSpec{ProviderID: prov, Budget: 10, Resources: res}); err != nil {
			t.Fatal(err)
		}
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

// TestSimulatedProjectsOwnTheirResourceIDs: two projects over generated
// worlds with the same resource names, uploaded under their providers' IDs,
// each keep their own rows — their listing, their export and the keys
// their posts are stored under — and an upload of IDs another project holds
// is refused and writes nothing.
func TestSimulatedProjectsOwnTheirResourceIDs(t *testing.T) {
	s := newService(t)
	ctx := context.Background()
	projects := [2]simProject{createSimProject(t, s, 20), createSimProject(t, s, 20)}
	before := s.Catalog().DB().Count(store.TableProjects)
	if _, err := s.CreateProject(ctx, ProjectSpec{
		ProviderID: projects[0].prov, Budget: 20, Resources: projects[1].world.Dataset.Resources,
	}); errs.CategoryOf(err) != errs.CategoryConflict {
		t.Errorf("an upload of another project's resource IDs = %v, want a conflict", err)
	}
	if n := s.Catalog().DB().Count(store.TableProjects); n != before {
		t.Errorf("the refused upload wrote %d project rows", n-before)
	}
	owner := make(map[string]string) // resource ID → project
	for _, p := range projects {
		recs, err := s.Catalog().ListResources(p.id)
		if err != nil || len(recs) != 12 {
			t.Fatalf("ListResources(%s) = %d rows, %v; want 12", p.id, len(recs), err)
		}
		for _, r := range recs {
			if owner[r.ID] != "" {
				t.Errorf("%s lists resource %q, owned by %q", p.id, r.ID, owner[r.ID])
			}
			owner[r.ID] = p.id
		}
		p.tagUntilSpent(t, s)
	}
	for _, p := range projects {
		rows, _, err := s.ExportPage(ctx, p.id, "", 0)
		if err != nil || len(rows) != 12 {
			t.Fatalf("ExportPage(%s) = %d rows, %v; want 12", p.id, len(rows), err)
		}
		for _, row := range rows {
			if owner[row.ID] != p.id {
				t.Errorf("%s exports %s's resource %s", p.id, owner[row.ID], row.ID)
			}
		}
	}
	stored := 0
	for id := range owner {
		stored += s.Catalog().DB().CountPrefix(store.TablePosts, id+"/")
	}
	if stored != 2*20 {
		t.Errorf("%d posts stored under the two projects' resources, want %d", stored, 2*20)
	}
}

// simOutcome is what a project tagged to its budget leaves behind: its
// spend, and from the catalog its posts per resource and per tagger.
type simOutcome struct {
	Spent      int
	PerRes     map[string]int
	PerTagger  map[string]int
	TotalPosts int
}

func runSimulation(t *testing.T, s *Service, p simProject) simOutcome {
	t.Helper()
	p.tagUntilSpent(t, s)
	return storedOutcome(t, s, p.id)
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

// TestSimulatedProjectsAreIsolated: a project's tagging does not depend on
// another project having been tagged in the same Service (the two share
// the tag interner and the catalog, and their generated worlds the same
// resource names): B after A equals B in a fresh Service with the same
// seeds and creation order, where A was never tagged, and A's listing and
// export survive B.
func TestSimulatedProjectsAreIsolated(t *testing.T) {
	ctx := context.Background()
	const budget, resources = 480, 12
	twoProjects := func() (s *Service, a, b simProject) {
		s = newService(t)
		return s, createSimProject(t, s, budget), createSimProject(t, s, budget)
	}

	shared, a, b := twoProjects()
	outA := runSimulation(t, shared, a)
	got := runSimulation(t, shared, b)

	fresh, a2, b2 := twoProjects()
	if a2.id != a.id || b2.id != b.id {
		t.Fatalf("creation order minted %s, %s; first service %s, %s", a2.id, b2.id, a.id, b.id)
	}
	want := runSimulation(t, fresh, b2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("B after A differs from B alone:\n after A %+v\n alone   %+v", got, want)
	}

	if outA.Spent != budget || len(outA.PerRes) != resources {
		t.Fatalf("A = %+v, want spent %d over %d resources", outA, budget, resources)
	}
	if now := storedOutcome(t, shared, a.id); !reflect.DeepEqual(now, outA) {
		t.Errorf("A's stored outcome changed after B ran:\n before %+v\n after  %+v", outA, now)
	}
	rows, _, err := shared.ExportPage(ctx, a.id, "", 0)
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
