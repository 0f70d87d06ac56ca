// Package bench implements the paper's evaluation (deliverable for every
// table and figure): shared experiment harness, the experiments E1–E9
// keyed to Table I and §IV of the demo paper, and the ablations A1–A3 for
// the design choices listed in docs/ARCHITECTURE.md. Both bench_test.go (go test
// -bench) and cmd/itag-bench reuse these functions, so the printed rows are
// identical either way.
package bench

import (
	"fmt"
	"time"

	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/quality"
	"itag/internal/rng"
	"itag/internal/strategy"
	"itag/internal/taggersim"
)

// HarnessConfig sizes an experiment world.
type HarnessConfig struct {
	// NumResources n (default 120).
	NumResources int
	// Taggers is the worker-pool size (default 60).
	Taggers int
	// UnreliableFraction of the population (default 0.1).
	UnreliableFraction float64
	// SeedTracePosts is the length of the free-choice warm-up trace that
	// forms the providers' initial data: skewed post counts, most
	// resources nearly bare (default 5·n).
	SeedTracePosts int
	// TraceTheta is the preferential-attachment exponent of the warm-up
	// trace (0 = taggersim default 0.8). Replay experiments use a lower
	// value so the held-out future covers more resources.
	TraceTheta float64
	// Seed drives everything.
	Seed int64
}

func (c HarnessConfig) withDefaults() HarnessConfig {
	if c.NumResources <= 0 {
		c.NumResources = 120
	}
	if c.Taggers <= 0 {
		c.Taggers = 60
	}
	if c.UnreliableFraction < 0 {
		c.UnreliableFraction = 0
	}
	if c.SeedTracePosts < 0 {
		c.SeedTracePosts = 0
	}
	if c.SeedTracePosts == 0 {
		c.SeedTracePosts = 5 * c.NumResources
	}
	return c
}

// Harness is one generated world with its tagger population and the
// provider's initial (skewed) tagging data.
type Harness struct {
	Cfg       HarnessConfig
	World     *dataset.World
	Pop       *taggersim.Population
	Sim       *taggersim.Simulator
	SeedPosts map[string][][]string
}

// NewHarness builds a world, population, and free-choice seed trace.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	world, err := dataset.Generate(r, dataset.GeneratorConfig{NumResources: cfg.NumResources})
	if err != nil {
		return nil, err
	}
	pop, err := taggersim.NewPopulation(r, taggersim.PopulationConfig{
		Size: cfg.Taggers, UnreliableFraction: cfg.UnreliableFraction,
	})
	if err != nil {
		return nil, err
	}
	sim := taggersim.NewSimulator(world)
	if err := sim.GenerateTrace(r, pop, taggersim.TraceConfig{
		NumPosts: cfg.SeedTracePosts, ChoiceTheta: cfg.TraceTheta,
	}); err != nil {
		return nil, err
	}
	seedPosts := make(map[string][][]string)
	for _, p := range world.Dataset.Posts {
		seedPosts[p.ResourceID] = append(seedPosts[p.ResourceID], p.Tags)
	}
	return &Harness{Cfg: cfg, World: world, Pop: pop, Sim: sim, SeedPosts: seedPosts}, nil
}

// RunConfig parameterizes one strategy run on a harness.
type RunConfig struct {
	Strategy strategy.Strategy
	Budget   int
	Batch    int // default 16
	Seed     int64
	Window   int // stability window (default quality.DefaultWindow)
	// Approval, when set, enables the E7 pipeline: posts judged by latent
	// overlap, rejected posts wasted, and every verdict reviewed on the
	// platform, which stops assigning low-approval taggers.
	Approval bool
}

// Outcome summarizes one run for the report tables.
type Outcome struct {
	Strategy        string
	Budget          int
	Spent           int
	OracleBefore    float64
	OracleAfter     float64
	DeltaOracle     float64
	StabilityBefore float64
	StabilityAfter  float64
	DeltaStability  float64
	CountHighBefore int // oracle >= core.TauHigh before
	CountHighAfter  int
	CountLowBefore  int // oracle < core.TauLow before
	CountLowAfter   int
	PostGini        float64 // Gini of final post counts (allocation skew)
	Wall            time.Duration
	Engine          *core.Engine
}

// Run executes one strategy run and computes the outcome.
func (h *Harness) Run(rc RunConfig) (Outcome, error) {
	if rc.Batch <= 0 {
		rc.Batch = 16
	}
	plat, err := crowd.NewSim(crowd.SimConfig{
		Workers:     core.WorkerIDs(h.Pop),
		Post:        core.GenerativeSource(h.Sim, h.Pop, rc.Seed+1),
		MeanLatency: 1,
		Seed:        rc.Seed + 2,
	})
	if err != nil {
		return Outcome{}, err
	}
	cfg := core.Config{
		Resources: h.World.Dataset.Resources,
		SeedPosts: h.SeedPosts,
		Strategy:  rc.Strategy,
		Budget:    rc.Budget,
		Batch:     rc.Batch,
		Quality:   quality.Config{Window: rc.Window},
		Platform:  plat,
		Seed:      rc.Seed,
	}
	if rc.Approval {
		cfg.Judge = core.LatentOverlapJudge(h.World, 0.5)
	}
	eng, err := core.New(cfg)
	if err != nil {
		return Outcome{}, err
	}
	before, _ := eng.OracleQualities()
	out := Outcome{
		Strategy:        rc.Strategy.Name(),
		Budget:          rc.Budget,
		OracleBefore:    quality.MeanQuality(before),
		StabilityBefore: eng.MeanStability(),
		CountHighBefore: quality.CountAtLeast(before, core.TauHigh),
		CountLowBefore:  quality.CountBelow(before, core.TauLow),
	}
	start := time.Now()
	if err := eng.Run(); err != nil {
		return Outcome{}, err
	}
	out.Wall = time.Since(start)
	out.Spent = eng.Spent()
	after, _ := eng.OracleQualities()
	out.OracleAfter = quality.MeanQuality(after)
	out.DeltaOracle = out.OracleAfter - out.OracleBefore
	out.StabilityAfter = eng.MeanStability()
	out.DeltaStability = out.StabilityAfter - out.StabilityBefore
	out.CountHighAfter = quality.CountAtLeast(after, core.TauHigh)
	out.CountLowAfter = quality.CountBelow(after, core.TauLow)
	posts := eng.Posts()
	pf := make([]float64, len(posts))
	for i, p := range posts {
		pf[i] = float64(p)
	}
	out.PostGini = dataset.Gini(pf)
	out.Engine = eng
	return out, nil
}

// PlanOptimalRun plans the optimal allocation (Monte-Carlo oracle gains +
// greedy exact allocation) and executes it through the identical engine
// path, returning its outcome labeled "optimal".
func (h *Harness) PlanOptimalRun(budget, batch int, seed int64) (Outcome, error) {
	plan, _, err := core.PlanOptimal(h.Sim, h.World.Dataset.Resources, h.SeedPosts, budget, core.PlanConfig{
		Samples: 16, Population: h.Pop, Seed: seed + 7,
	})
	if err != nil {
		return Outcome{}, err
	}
	return h.Run(RunConfig{
		Strategy: strategy.NewPlanned("optimal", plan),
		Budget:   budget, Batch: batch, Seed: seed,
	})
}

// StandardStrategies returns fresh instances of the paper's four strategies
// plus baselines (fresh per run because FP-MU and RoundRobin are stateful).
func StandardStrategies(budget int) []strategy.Strategy {
	return []strategy.Strategy{
		strategy.FreeChoice{},
		strategy.FewestPosts{},
		strategy.MostUnstable{},
		&strategy.FPMU{MinPostsTarget: 0, SwitchFraction: 0.5, TotalBudget: budget},
		strategy.Random{},
		&strategy.RoundRobin{},
	}
}

// PaperStrategies returns only Table I's four strategies.
func PaperStrategies(budget int) []strategy.Strategy {
	return []strategy.Strategy{
		strategy.FreeChoice{},
		strategy.FewestPosts{},
		strategy.MostUnstable{},
		&strategy.FPMU{MinPostsTarget: 0, SwitchFraction: 0.5, TotalBudget: budget},
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", a/b)
}
