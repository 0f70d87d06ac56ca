package core

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/quality"
	"itag/internal/rng"
	"itag/internal/strategy"
	"itag/internal/taggersim"
	"itag/internal/users"
)

// harness bundles a generated world, population, simulator and platform.
type harness struct {
	world *dataset.World
	pop   *taggersim.Population
	sim   *taggersim.Simulator
}

func newHarness(t testing.TB, nRes, nTaggers int, unreliable float64) *harness {
	t.Helper()
	r := rng.New(11)
	world, err := dataset.Generate(r, dataset.GeneratorConfig{NumResources: nRes})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := taggersim.NewPopulation(r, taggersim.PopulationConfig{
		Size: nTaggers, UnreliableFraction: unreliable,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{world: world, pop: pop, sim: taggersim.NewSimulator(world)}
}

func (h *harness) platform(t testing.TB, qualify crowd.QualifyFunc, seed int64) crowd.Platform {
	t.Helper()
	p, err := crowd.NewSim(crowd.SimConfig{
		Workers:     WorkerIDs(h.pop),
		Post:        GenerativeSource(h.sim, h.pop, seed),
		Qualify:     qualify,
		MeanLatency: 1,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (h *harness) engine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Resources == nil {
		cfg.Resources = h.world.Dataset.Resources
	}
	if cfg.Platform == nil {
		cfg.Platform = h.platform(t, nil, cfg.Seed)
	}
	if cfg.Strategy == nil {
		cfg.Strategy = strategy.FewestPosts{}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	h := newHarness(t, 3, 5, 0)
	plat := h.platform(t, nil, 1)
	cases := []Config{
		{Strategy: strategy.FewestPosts{}, Budget: 10, Platform: plat},                                                                                       // no resources
		{Resources: h.world.Dataset.Resources, Budget: 10, Platform: plat},                                                                                   // no strategy
		{Resources: h.world.Dataset.Resources, Strategy: strategy.FewestPosts{}, Platform: plat},                                                             // no budget
		{Resources: h.world.Dataset.Resources, Strategy: strategy.FewestPosts{}, Budget: 10},                                                                 // no platform
		{Resources: h.world.Dataset.Resources, Strategy: strategy.FewestPosts{}, Budget: 10, Platform: plat, Judge: func(crowd.Result) bool { return true }}, // judge without users
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Config{
		Resources: []dataset.Resource{{ID: "a"}, {ID: "a"}},
		Strategy:  strategy.FewestPosts{}, Budget: 5, Platform: plat,
	}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate resources: %v", err)
	}
	if _, err := New(Config{
		Resources: h.world.Dataset.Resources,
		Strategy:  strategy.FewestPosts{}, Budget: 5, Platform: plat,
		SeedPosts: map[string][][]string{"nope": {{"a"}}},
	}); err == nil {
		t.Error("seed posts for unknown resource must fail")
	}
}

func TestRunSpendsExactBudget(t *testing.T) {
	h := newHarness(t, 20, 10, 0)
	e := h.engine(t, Config{Budget: 100, Batch: 8, Seed: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 100 {
		t.Errorf("spent = %d, want 100", e.Spent())
	}
	total := 0
	for _, x := range e.Allocation() {
		total += x
	}
	if total != 100 {
		t.Errorf("allocation sums to %d, want 100", total)
	}
	if !e.Done() {
		t.Error("engine must report done")
	}
	// FP with budget 100 over 20 resources: every resource gets 5.
	for i, x := range e.Allocation() {
		if x != 5 {
			t.Errorf("FP allocation[%d] = %d, want 5", i, x)
		}
	}
}

func TestQualityImprovesOverRun(t *testing.T) {
	h := newHarness(t, 10, 10, 0)
	e := h.engine(t, Config{Budget: 300, Batch: 10, Seed: 2})
	before := e.MeanOracle()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	after := e.MeanOracle()
	if after <= before+0.2 {
		t.Errorf("oracle quality should improve substantially: %v -> %v", before, after)
	}
	if e.MeanStability() < 0.5 {
		t.Errorf("stability after 30 posts/resource = %v", e.MeanStability())
	}
}

func TestSeedPostsCountTowardState(t *testing.T) {
	h := newHarness(t, 3, 5, 0)
	seed := map[string][][]string{
		"r0000": {{"a", "b"}, {"a"}, {"a", "c"}},
	}
	e := h.engine(t, Config{Budget: 5, SeedPosts: seed, Seed: 3})
	posts := e.Posts()
	if posts[0] != 3 || posts[1] != 0 {
		t.Errorf("seeded posts = %v", posts)
	}
	st, err := e.Status("r0000")
	if err != nil {
		t.Fatal(err)
	}
	if st.Posts != 3 || len(st.TopTags) == 0 || st.TopTags[0].Tag != "a" {
		t.Errorf("status = %+v", st)
	}
}

func TestPromoteForcesSelection(t *testing.T) {
	h := newHarness(t, 10, 5, 0)
	// MU with all-equal state would pick by tie-break; promoting must win.
	e := h.engine(t, Config{Budget: 2, Batch: 1, Strategy: strategy.FewestPosts{}, Seed: 4})
	// Give r0009 lots of posts so FP would never pick it.
	for i := 0; i < 20; i++ {
		if err := e.trackers[9].AddPost([]string{"x"}); err != nil {
			t.Fatal(err)
		}
		e.posts[9]++
	}
	if err := e.Promote("r0009"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepOnce(); err != nil {
		t.Fatal(err)
	}
	if e.Allocation()[9] != 1 {
		t.Errorf("promoted resource not selected: alloc=%v", e.Allocation())
	}
	// Promotion is one-shot: next step goes back to the strategy.
	if _, err := e.StepOnce(); err != nil {
		t.Fatal(err)
	}
	if e.Allocation()[9] != 1 {
		t.Errorf("promotion should be one-shot: alloc=%v", e.Allocation())
	}
	if err := e.Promote("nope"); err == nil {
		t.Error("promoting unknown resource must fail")
	}
}

func TestStopExcludesResource(t *testing.T) {
	h := newHarness(t, 4, 5, 0)
	e := h.engine(t, Config{Budget: 40, Batch: 4, Seed: 5})
	if err := e.StopResource("r0002"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Allocation()[2] != 0 {
		t.Errorf("stopped resource received tasks: %v", e.Allocation())
	}
	if e.Spent() != 40 {
		t.Errorf("budget must still be spent on others: %d", e.Spent())
	}
	if err := e.StopResource("nope"); err == nil {
		t.Error("stopping unknown resource must fail")
	}
}

func TestResumeResource(t *testing.T) {
	h := newHarness(t, 3, 5, 0)
	e := h.engine(t, Config{Budget: 30, Batch: 3, Seed: 6})
	_ = e.StopResource("r0001")
	_, _ = e.StepOnce()
	stoppedAlloc := e.Allocation()[1]
	if stoppedAlloc != 0 {
		t.Fatalf("stopped resource allocated %d", stoppedAlloc)
	}
	_ = e.ResumeResource("r0001")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Allocation()[1] == 0 {
		t.Error("resumed resource never allocated")
	}
}

func TestSwitchStrategyMidRun(t *testing.T) {
	h := newHarness(t, 10, 5, 0)
	e := h.engine(t, Config{Budget: 40, Batch: 10, Strategy: strategy.FreeChoice{}, Seed: 7})
	if _, err := e.StepOnce(); err != nil {
		t.Fatal(err)
	}
	if e.StrategyName() != "fc" {
		t.Fatalf("strategy = %s", e.StrategyName())
	}
	e.SwitchStrategy(strategy.FewestPosts{})
	if e.StrategyName() != "fp" {
		t.Fatalf("after switch = %s", e.StrategyName())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range e.Monitor().Events() {
		if ev.Kind == "switch-strategy" && strings.Contains(ev.Detail, "fc -> fp") {
			found = true
		}
	}
	if !found {
		t.Error("switch event not recorded")
	}
}

func TestAddBudgetExtendsRun(t *testing.T) {
	h := newHarness(t, 5, 5, 0)
	e := h.engine(t, Config{Budget: 10, Batch: 5, Seed: 8})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Done() || e.Spent() != 10 {
		t.Fatalf("first run: done=%v spent=%d", e.Done(), e.Spent())
	}
	if err := e.AddBudget(15); err != nil {
		t.Fatal(err)
	}
	if e.Done() {
		t.Error("AddBudget must clear done")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 25 {
		t.Errorf("after extension spent = %d, want 25", e.Spent())
	}
	if err := e.AddBudget(0); err == nil {
		t.Error("non-positive extension must fail")
	}
}

func TestApprovalFlow(t *testing.T) {
	h := newHarness(t, 5, 8, 0)
	um := users.NewManager()
	ledger := crowd.NewLedger()
	rejectAll := func(res crowd.Result) bool { return false }
	e := h.engine(t, Config{
		Budget: 20, Batch: 5, Seed: 9,
		Users: um, Judge: rejectAll, Ledger: ledger, PayPerTask: 0.05,
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All rejected: budget consumed, but no posts recorded, nobody paid.
	if e.Spent() != 20 {
		t.Errorf("spent = %d", e.Spent())
	}
	for i, p := range e.Posts() {
		if p != 0 {
			t.Errorf("rejected posts counted: posts[%d]=%d", i, p)
		}
	}
	if ledger.TotalPaid() != 0 {
		t.Errorf("rejected posts paid: %v", ledger.TotalPaid())
	}
	stats := um.TaggerStats()
	judged := 0
	for _, s := range stats {
		judged += s.Judged
		if s.Approved != 0 {
			t.Errorf("tagger %s approved %d", s.ID, s.Approved)
		}
	}
	if judged != 20 {
		t.Errorf("judgments = %d, want 20", judged)
	}
}

func TestApprovalPaysApproved(t *testing.T) {
	h := newHarness(t, 5, 8, 0)
	um := users.NewManager()
	ledger := crowd.NewLedger()
	e := h.engine(t, Config{
		Budget: 20, Batch: 5, Seed: 10,
		Users: um, Judge: func(crowd.Result) bool { return true },
		Ledger: ledger, PayPerTask: 0.10,
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ledger.TotalPaid(); got < 1.99 || got > 2.01 {
		t.Errorf("total paid = %v, want 2.00", got)
	}
}

func TestReplayExhaustionRefundsAndStops(t *testing.T) {
	h := newHarness(t, 3, 5, 0)
	// Build a tiny replay with 2 future posts for r0000 and 1 for r0001.
	rp := taggersim.NewReplayer([]dataset.Post{
		{ResourceID: "r0000", Tags: []string{"a"}},
		{ResourceID: "r0000", Tags: []string{"b"}},
		{ResourceID: "r0001", Tags: []string{"c"}},
	})
	plat, err := crowd.NewSim(crowd.SimConfig{
		Workers: SyntheticWorkerIDs(4), Post: ReplaySource(rp),
		MeanLatency: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := h.engine(t, Config{Budget: 50, Batch: 3, Platform: plat, Strategy: &strategy.RoundRobin{}, Seed: 11})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Only 3 replayable posts exist; engine must stop early with spent=3.
	if e.Spent() != 3 {
		t.Errorf("spent = %d, want 3 (refunds on exhaustion)", e.Spent())
	}
	posts := e.Posts()
	if posts[0] != 2 || posts[1] != 1 || posts[2] != 0 {
		t.Errorf("replayed posts = %v", posts)
	}
	if !e.Done() {
		t.Error("engine must be done when everything is exhausted")
	}
}

func TestStallDetection(t *testing.T) {
	h := newHarness(t, 3, 4, 0)
	plat, err := crowd.NewSim(crowd.SimConfig{
		Workers: WorkerIDs(h.pop),
		Post:    GenerativeSource(h.sim, h.pop, 12),
		Qualify: func(string) bool { return false }, // nobody can work
		Seed:    12,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := h.engine(t, Config{Budget: 5, Batch: 2, Platform: plat, MaxStallSteps: 50, Seed: 12})
	if err := e.Run(); !errors.Is(err, ErrStalled) {
		t.Errorf("want ErrStalled, got %v", err)
	}
}

func TestMonitorSeriesRecorded(t *testing.T) {
	h := newHarness(t, 8, 6, 0)
	e := h.engine(t, Config{Budget: 80, Batch: 8, Seed: 13})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{SeriesMeanStability, SeriesMeanOracle, SeriesCountHigh, SeriesCountLow} {
		s := e.Monitor().Series(name)
		if s == nil || s.Len() == 0 {
			t.Errorf("series %s not recorded", name)
			continue
		}
		last, _ := s.Last()
		if last.X != 80 {
			t.Errorf("series %s final x = %v, want 80", name, last.X)
		}
	}
	if len(e.Monitor().SeriesNames()) < 4 {
		t.Error("series names incomplete")
	}
}

func TestStatusErrors(t *testing.T) {
	h := newHarness(t, 3, 5, 0)
	e := h.engine(t, Config{Budget: 5, Seed: 14})
	if _, err := e.Status("nope"); err == nil {
		t.Error("unknown resource status must fail")
	}
}

func TestPlannerOptimalBeatsRandomOnOracleGain(t *testing.T) {
	h := newHarness(t, 15, 10, 0)
	res := h.world.Dataset.Resources
	// Seed some resources heavily so marginal gains differ strongly.
	seedPosts := make(map[string][][]string)
	r := rng.New(15)
	prof := &h.pop.Profiles[0]
	for i := 0; i < 5; i++ {
		var posts [][]string
		for k := 0; k < 60; k++ {
			tags, err := h.sim.GeneratePost(r, prof, res[i].ID)
			if err != nil {
				t.Fatal(err)
			}
			posts = append(posts, tags)
		}
		seedPosts[res[i].ID] = posts
	}

	budget := 100
	plan, projected, err := PlanOptimal(h.sim, res, seedPosts, budget, PlanConfig{Samples: 4, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, x := range plan {
		total += x
	}
	if total != budget {
		t.Fatalf("plan spends %d, want %d", total, budget)
	}
	if projected <= 0 {
		t.Fatal("projected gain must be positive")
	}
	// The optimal plan should send almost nothing to the already-converged
	// resources and plenty to the empty ones.
	heavy, light := 0, 0
	for i, x := range plan {
		if i < 5 {
			heavy += x
		} else {
			light += x
		}
	}
	if heavy >= light {
		t.Errorf("plan should favor unseeded resources: seeded=%d unseeded=%d", heavy, light)
	}

	// Execute the plan through the engine and compare with Random.
	runWith := func(s strategy.Strategy, seed int64) float64 {
		e := h.engine(t, Config{
			Budget: budget, Batch: 10, Strategy: s,
			SeedPosts: seedPosts, Seed: seed,
			Platform: h.platform(t, nil, seed),
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.MeanOracle()
	}
	optQ := runWith(strategy.NewPlanned("optimal", plan), 16)
	rndQ := runWith(strategy.Random{}, 16)
	if optQ < rndQ-0.02 {
		t.Errorf("optimal (%.4f) should not lose to random (%.4f)", optQ, rndQ)
	}
}

func TestSeedCountsErrors(t *testing.T) {
	res := []dataset.Resource{{ID: "a"}}
	if _, err := SeedCounts(res, map[string][][]string{"b": {{"x"}}}); err == nil {
		t.Error("unknown resource must fail")
	}
	if _, err := SeedCounts(res, map[string][][]string{"a": {{}}}); err == nil {
		t.Error("empty post must fail")
	}
	counts, err := SeedCounts(res, map[string][][]string{"a": {{"x"}, {"y"}}})
	if err != nil || counts[0].Posts() != 2 {
		t.Errorf("counts: %v, %v", counts, err)
	}
}

func TestEstimateGainTablesValidation(t *testing.T) {
	h := newHarness(t, 2, 3, 0)
	counts, _ := SeedCounts(h.world.Dataset.Resources, nil)
	if _, err := EstimateGainTables(h.sim, h.world.Dataset.Resources, counts, PlanConfig{Horizon: 0}); err == nil {
		t.Error("zero horizon must fail")
	}
	if _, err := EstimateGainTables(h.sim, h.world.Dataset.Resources, counts[:1], PlanConfig{Horizon: 5}); err == nil {
		t.Error("length mismatch must fail")
	}
	tables, err := EstimateGainTables(h.sim, h.world.Dataset.Resources, counts, PlanConfig{Horizon: 10, Samples: 2, Seed: 1})
	if err != nil || len(tables) != 2 {
		t.Fatalf("tables: %v, %v", tables, err)
	}
	if tables[0].Gain(10) <= 0 {
		t.Error("projected gain on empty resource must be positive")
	}
}

// TestSeededPlanIsBitReproducible: at a fixed seed a plan is a function of
// its inputs to the bit — gain tables, allocation and projected gain alike —
// for a metric that reads only aligned slots (cosine) and one that also sums
// the reference tags no post has used yet (JSD). Every sum the planner runs
// walks an order fixed by the tags, never a map's iteration order.
func TestSeededPlanIsBitReproducible(t *testing.T) {
	h := newHarness(t, 12, 10, 0)
	res := h.world.Dataset.Resources
	seedPosts := make(map[string][][]string)
	r := rng.New(29)
	for i := 0; i < 6; i++ {
		for k := 0; k < 20; k++ {
			tags, err := h.sim.GeneratePost(r, &h.pop.Profiles[i], res[i].ID)
			if err != nil {
				t.Fatal(err)
			}
			seedPosts[res[i].ID] = append(seedPosts[res[i].ID], tags)
		}
	}
	for _, metric := range []quality.Metric{quality.MetricCosine, quality.MetricJSD} {
		cfg := PlanConfig{Horizon: 12, Samples: 3, Seed: 29, Metric: metric}
		tableBits := func() []uint64 {
			counts, err := SeedCounts(res, seedPosts)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := EstimateGainTables(h.sim, res, counts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var bits []uint64
			for _, tb := range tables {
				for x := 0; x <= tb.MaxX(); x++ {
					bits = append(bits, math.Float64bits(tb.Gain(x)))
				}
			}
			return bits
		}
		plan := func() ([]int, uint64) {
			alloc, projected, err := PlanOptimal(h.sim, res, seedPosts, 60, PlanConfig{Samples: 3, Seed: 29, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			return alloc, math.Float64bits(projected)
		}
		wantBits := tableBits()
		wantPlan, wantGain := plan()
		for run := 1; run <= 4; run++ {
			if got := tableBits(); !slices.Equal(got, wantBits) {
				t.Fatalf("%s run %d: gain tables differ from the first run's bits", metric, run)
			}
			gotPlan, gotGain := plan()
			if !slices.Equal(gotPlan, wantPlan) || gotGain != wantGain {
				t.Fatalf("%s run %d: plan %v gain %x, first run %v gain %x", metric, run, gotPlan, gotGain, wantPlan, wantGain)
			}
		}
	}
}
