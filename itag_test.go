package itag_test

import (
	"context"
	"math"
	"testing"

	"itag"
	"itag/internal/rng"
)

// These tests exercise the public facade exactly as a downstream user
// would: everything below goes only through package itag.

func buildWorld(t testing.TB, n int, seed int64) (*itag.World, *itag.Population, *itag.Simulator) {
	t.Helper()
	world, err := itag.GenerateWorld(rng.New(seed), itag.WorldConfig{NumResources: n})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := itag.NewPopulation(rng.New(seed+1), itag.PopulationConfig{Size: 20})
	if err != nil {
		t.Fatal(err)
	}
	return world, pop, itag.NewSimulator(world)
}

func TestFacadeQuickstartFlow(t *testing.T) {
	world, pop, sim := buildWorld(t, 20, 1)
	platform, err := itag.NewMTurkSim(itag.WorkerIDs(pop), itag.GenerativeSource(sim, pop, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := itag.NewEngine(itag.EngineConfig{
		Resources: world.Dataset.Resources,
		Strategy:  itag.NewFPMU(),
		Budget:    200,
		Platform:  platform,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if engine.Spent() != 200 {
		t.Errorf("spent = %d", engine.Spent())
	}
	if q := engine.MeanOracle(); q < 0.5 {
		t.Errorf("mean oracle quality = %v", q)
	}
	st, err := engine.Status(world.Dataset.Resources[0].ID)
	if err != nil || st.Posts == 0 {
		t.Errorf("status: %+v, %v", st, err)
	}
}

func TestFacadeStrategyParsing(t *testing.T) {
	for _, spec := range []string{"fc", "fp", "mu", "fp-mu", "random"} {
		s, err := itag.ParseStrategy(spec)
		if err != nil || s == nil {
			t.Errorf("ParseStrategy(%q): %v", spec, err)
		}
	}
	if _, err := itag.ParseStrategy("not-a-strategy"); err == nil {
		t.Error("bad spec must fail")
	}
}

func TestFacadePlannedOptimal(t *testing.T) {
	world, pop, sim := buildWorld(t, 12, 5)
	plan, gain, err := itag.PlanOptimal(sim, world.Dataset.Resources, nil, 60, itag.PlanConfig{
		Samples: 4, Population: pop, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, x := range plan {
		total += x
	}
	if total != 60 || gain <= 0 {
		t.Fatalf("plan total=%d gain=%v", total, gain)
	}
	platform, err := itag.NewMTurkSim(itag.WorkerIDs(pop), itag.GenerativeSource(sim, pop, 7), 8)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := itag.NewEngine(itag.EngineConfig{
		Resources: world.Dataset.Resources,
		Strategy:  itag.NewPlannedStrategy("optimal", plan),
		Budget:    60,
		Platform:  platform,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if engine.Spent() != 60 {
		t.Errorf("spent = %d", engine.Spent())
	}
}

func TestFacadeReplayFlow(t *testing.T) {
	world, pop, sim := buildWorld(t, 15, 10)
	r := rng.New(11)
	if err := sim.GenerateTrace(r, pop, itag.TraceConfig{NumPosts: 600, ChoiceTheta: 0.3}); err != nil {
		t.Fatal(err)
	}
	seedTrace, evalTrace := world.Dataset.SplitFraction(0.5)
	seedPosts := make(map[string][][]string)
	for _, p := range seedTrace {
		seedPosts[p.ResourceID] = append(seedPosts[p.ResourceID], p.Tags)
	}
	replayer := itag.NewReplayer(evalTrace)
	platform, err := itag.NewPlatform(itag.PlatformConfig{
		Workers: []string{"w1", "w2"},
		Post:    itag.ReplaySource(replayer),
		Seed:    12,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := itag.NewEngine(itag.EngineConfig{
		Resources: world.Dataset.Resources,
		SeedPosts: seedPosts,
		Strategy:  itag.FewestPosts{},
		Budget:    80,
		Platform:  platform,
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if engine.Spent() == 0 || engine.Spent() > 80 {
		t.Errorf("replay spent = %d", engine.Spent())
	}
}

// TestFacadeServiceAndStore: a project over a generated world's resources,
// tagged to its budget through the Service's leases and submits by a
// simulated tagger.
func TestFacadeServiceAndStore(t *testing.T) {
	ctx := context.Background()
	world, pop, sim := buildWorld(t, 8, 14)
	svc := itag.NewService(itag.NewCatalog(itag.OpenMemoryStore()), 14)
	prov, err := svc.RegisterProvider(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := svc.RegisterTagger(ctx, pop.Profiles[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := svc.CreateProject(ctx, itag.ProjectSpec{
		ProviderID: prov, Budget: 50, Resources: world.Dataset.Resources,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(15)
	for i := 0; i < 50; i++ {
		task, err := svc.RequestTask(ctx, proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		tags, err := sim.GeneratePost(r, &pop.Profiles[0], task.ResourceID)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.SubmitTask(ctx, proj, task.ID, tags); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.RequestTask(ctx, proj, tagger); err == nil {
		t.Error("a lease past the budget was granted")
	}
	info, err := svc.Project(ctx, proj)
	if err != nil || info.Spent != 50 {
		t.Errorf("info: %+v, %v", info, err)
	}
}

// reviewCount wraps a platform and counts the reviews the engine sends it.
type reviewCount struct {
	itag.Platform
	reviews, approved int
}

func (p *reviewCount) Review(workerID string, approved bool) {
	p.reviews++
	if approved {
		p.approved++
	}
	p.Platform.Review(workerID, approved)
}

func TestFacadeApprovalJudge(t *testing.T) {
	world, pop, sim := buildWorld(t, 10, 15)
	inner, err := itag.NewMTurkSim(itag.WorkerIDs(pop), itag.GenerativeSource(sim, pop, 16), 17)
	if err != nil {
		t.Fatal(err)
	}
	platform := &reviewCount{Platform: inner}
	engine, err := itag.NewEngine(itag.EngineConfig{
		Resources:  world.Dataset.Resources,
		Strategy:   itag.MostUnstable{},
		Budget:     100,
		Platform:   platform,
		Judge:      itag.LatentOverlapJudge(world, 0.5),
		PayPerTask: 0.02,
		Seed:       18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	// Every completed task is reviewed; with an honest-majority population
	// most posts are approved, and only approved posts enter the statistics.
	posts := 0
	for _, n := range engine.Posts() {
		posts += n
	}
	if platform.reviews != 100 || platform.approved*2 <= platform.reviews || platform.approved != posts {
		t.Errorf("%d reviews, %d approved, %d posts counted; want 100 reviews, a majority approved, one post per approval",
			platform.reviews, platform.approved, posts)
	}
	if math.IsNaN(engine.MeanStability()) {
		t.Error("NaN stability")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() float64 {
		world, pop, sim := buildWorld(t, 10, 42)
		platform, err := itag.NewMTurkSim(itag.WorkerIDs(pop), itag.GenerativeSource(sim, pop, 43), 44)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := itag.NewEngine(itag.EngineConfig{
			Resources: world.Dataset.Resources,
			Strategy:  itag.MostUnstable{},
			Budget:    120,
			Platform:  platform,
			Seed:      45,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.Run(); err != nil {
			t.Fatal(err)
		}
		return engine.MeanOracle()
	}
	a, b := run(), run()
	// Allocation decisions are deterministic; quality aggregation sums
	// float map values, whose iteration order varies, so require equality
	// only up to accumulation rounding.
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("same seeds must reproduce: %v vs %v", a, b)
	}
}
