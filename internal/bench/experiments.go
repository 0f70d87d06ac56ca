package bench

import (
	"fmt"

	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/quality"
	"itag/internal/strategy"
	"itag/internal/taggersim"
)

// Sizes keeps experiment dimensions in one place so benches and the CLI can
// scale them together (Small for quick checks, Default for reported runs).
type Sizes struct {
	N       int // resources
	Taggers int
	Budget  int
	Batch   int
	Seed    int64
}

// DefaultSizes are the reported-run dimensions.
func DefaultSizes() Sizes { return Sizes{N: 120, Taggers: 60, Budget: 1200, Batch: 16, Seed: 2014} }

// SmallSizes are quick-check dimensions (used under -short).
func SmallSizes() Sizes { return Sizes{N: 40, Taggers: 30, Budget: 320, Batch: 8, Seed: 2014} }

func (s Sizes) harness(unreliable float64) (*Harness, error) {
	return NewHarness(HarnessConfig{
		NumResources: s.N, Taggers: s.Taggers,
		UnreliableFraction: unreliable, Seed: s.Seed,
	})
}

// E1TableI reproduces Table I as measured behaviour: each strategy's
// quality improvement and its characteristic signature at a fixed budget.
// Expected shape: FC weakest Δq̄ and highest post-count Gini; FP the lowest
// low-quality count; MU the highest threshold-satisfaction count; FP-MU the
// best Δq̄ of the four; optimal upper-bounds all.
func E1TableI(sz Sizes) (Result, error) {
	h, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:     "E1",
		Title:  fmt.Sprintf("Table I behaviours (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"strategy", "dq_stab", "dq_oracle", "q_after", "n(q>=0.9)", "n(q<0.5)", "gini(posts)"},
	}
	row := func(out Outcome) []string {
		return []string{
			out.Strategy, f4(out.DeltaStability), f4(out.DeltaOracle), f4(out.OracleAfter),
			d(out.CountHighAfter), d(out.CountLowAfter), f3(out.PostGini),
		}
	}
	for _, st := range StandardStrategies(sz.Budget) {
		out, err := h.Run(RunConfig{Strategy: st, Budget: sz.Budget, Batch: sz.Batch, Seed: sz.Seed + 1})
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, row(out))
	}
	opt, err := h.PlanOptimalRun(sz.Budget, sz.Batch, sz.Seed+1)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, row(opt))
	res.Notes = append(res.Notes,
		"dq_stab is the paper's objective (stability-based q(R)); dq_oracle is ground truth vs the latent distribution.",
		"Paper Table I claims: FC captures preferences but may not improve q(R); FP reduces low-quality count; MU raises threshold satisfaction; FP-MU most effective.")
	return res, nil
}

// E2QualityVsBudget sweeps the budget and reports Δq̄ per strategy — the
// demo's "how different allocation strategies affect the tagging quality".
func E2QualityVsBudget(sz Sizes) (Result, error) {
	h, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	budgets := budgetSweep(sz)
	res := Result{
		ID:     "E2",
		Title:  fmt.Sprintf("quality vs budget (n=%d)", sz.N),
		Header: []string{"budget", "fc", "fp", "mu", "fp-mu"},
	}
	for _, b := range budgets {
		row := []string{d(b)}
		for _, st := range PaperStrategies(b) {
			out, err := h.Run(RunConfig{Strategy: st, Budget: b, Batch: sz.Batch, Seed: sz.Seed + 2})
			if err != nil {
				return Result{}, err
			}
			row = append(row, f4(out.DeltaOracle))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "Each cell is mean oracle-quality improvement Δq̄(R) after spending the budget.")
	return res, nil
}

func budgetSweep(sz Sizes) []int {
	return []int{sz.Budget / 4, sz.Budget / 2, sz.Budget, sz.Budget * 2}
}

// E3VsOptimal compares every strategy's Δq̄ against the optimal allocation
// across budgets (demo §IV: "compare them with the optimal allocation
// strategy").
func E3VsOptimal(sz Sizes) (Result, error) {
	h, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:     "E3",
		Title:  fmt.Sprintf("fraction of optimal Δq̄ (n=%d)", sz.N),
		Header: []string{"budget", "optimal_dq", "fc/opt", "fp/opt", "mu/opt", "fp-mu/opt"},
	}
	for _, b := range budgetSweep(sz) {
		opt, err := h.PlanOptimalRun(b, sz.Batch, sz.Seed+3)
		if err != nil {
			return Result{}, err
		}
		row := []string{d(b), f4(opt.DeltaOracle)}
		for _, st := range PaperStrategies(b) {
			out, err := h.Run(RunConfig{Strategy: st, Budget: b, Batch: sz.Batch, Seed: sz.Seed + 3})
			if err != nil {
				return Result{}, err
			}
			row = append(row, ratio(out.DeltaOracle, opt.DeltaOracle))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "Ratios near 1.00 mean the heuristic tracks the optimal allocation; FP-MU should be closest.")
	return res, nil
}

// E4ThresholdSatisfaction measures, per τ, how many resources reach quality
// τ under each strategy — Table I's MU claim.
func E4ThresholdSatisfaction(sz Sizes) (Result, error) {
	h, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:     "E4",
		Title:  fmt.Sprintf("resources meeting quality τ (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"tau", "fc", "fp", "mu", "fp-mu"},
	}
	taus := []float64{0.80, 0.90, 0.95}
	counts := make(map[string][]int)
	for _, st := range PaperStrategies(sz.Budget) {
		out, err := h.Run(RunConfig{Strategy: st, Budget: sz.Budget, Batch: sz.Batch, Seed: sz.Seed + 4})
		if err != nil {
			return Result{}, err
		}
		qs, _ := out.Engine.OracleQualities()
		for _, tau := range taus {
			counts[st.Name()] = append(counts[st.Name()], quality.CountAtLeast(qs, tau))
		}
	}
	for ti, tau := range taus {
		row := []string{f3(tau)}
		for _, name := range []string{"fc", "fp", "mu", "fp-mu"} {
			row = append(row, d(counts[name][ti]))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "Table I (MU): 'increase the number of resources that can satisfy a certain quality requirement'.")
	return res, nil
}

// E5LowQualityReduction tracks the number of low-quality resources versus
// budget per strategy (Table I's FP claim) plus the allocation skew each
// strategy induces (FC should reproduce the popularity power law of [5]).
func E5LowQualityReduction(sz Sizes) (Result, error) {
	h, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:     "E5",
		Title:  fmt.Sprintf("low-quality resources n(q<0.5) vs budget (n=%d)", sz.N),
		Header: []string{"budget", "fc", "fp", "mu", "fp-mu", "gini_fc", "gini_fp"},
	}
	for _, b := range budgetSweep(sz) {
		row := []string{d(b)}
		ginis := map[string]float64{}
		for _, st := range PaperStrategies(b) {
			out, err := h.Run(RunConfig{Strategy: st, Budget: b, Batch: sz.Batch, Seed: sz.Seed + 5})
			if err != nil {
				return Result{}, err
			}
			row = append(row, d(out.CountLowAfter))
			ginis[st.Name()] = out.PostGini
		}
		row = append(row, f3(ginis["fc"]), f3(ginis["fp"]))
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"Table I (FP): 'reduce the number of resources with low tag quality'. FC keeps the [5] popularity skew (high Gini); FP flattens it.")
	return res, nil
}

// E6MonitoringAndSwitch reproduces the Fig. 5 behaviour: the live quality
// curve, and the effect of switching strategy mid-run (FC for the first
// half of the budget, then FP-MU) versus staying on FC.
func E6MonitoringAndSwitch(sz Sizes) (Result, error) {
	h, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	// Pure FC run.
	fc, err := h.Run(RunConfig{Strategy: strategy.FreeChoice{}, Budget: sz.Budget, Batch: sz.Batch, Seed: sz.Seed + 6})
	if err != nil {
		return Result{}, err
	}
	// Switched run: drive the engine manually, switching at B/2.
	switched, err := h.runWithSwitch(sz, sz.Budget/2)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:     "E6",
		Title:  fmt.Sprintf("mid-run strategy switch at B/2 (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"spent", "q_mean fc-only", "q_mean fc->fp-mu"},
	}
	fcSeries := fc.Engine.Monitor().Series(core.SeriesMeanOracle).Points()
	swSeries := switched.Monitor().Series(core.SeriesMeanOracle).Points()
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		x := float64(sz.Budget) * frac
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0f", x),
			f4(valueAt(fcSeries, x)), f4(valueAt(swSeries, x)),
		})
	}
	res.Notes = append(res.Notes,
		"Fig. 5 behaviour: the provider watches the curve and switches strategy; curves coincide until the switch point, then the switched run pulls ahead.")
	return res, nil
}

func (h *Harness) runWithSwitch(sz Sizes, switchAt int) (*core.Engine, error) {
	out, err := h.Run(RunConfig{Strategy: strategy.FreeChoice{}, Budget: switchAt, Batch: sz.Batch, Seed: sz.Seed + 6})
	if err != nil {
		return nil, err
	}
	eng := out.Engine
	eng.SwitchStrategy(&strategy.FPMU{MinPostsTarget: 0, SwitchFraction: 0.5, TotalBudget: sz.Budget - switchAt})
	if err := eng.AddBudget(sz.Budget - switchAt); err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return eng, nil
}

func valueAt(points []core.Point, x float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.X <= x {
			best = p.Y
		}
	}
	return best
}

// newReplayPlatform builds the zero-noise platform used by trace replay:
// synthetic workers, no abandonment, posts drawn from the held-out trace.
func newReplayPlatform(rp *taggersim.Replayer, seed int64) (crowd.Platform, error) {
	return crowd.NewSim(crowd.SimConfig{
		Workers:     core.SyntheticWorkerIDs(16),
		Post:        core.ReplaySource(rp),
		MeanLatency: 1,
		Seed:        seed,
	})
}

// E7ApprovalFiltering compares runs with a 30% unreliable population, with
// and without the approval pipeline (provider judgments + qualification
// gate) — the §III-A approval flow's measurable effect.
func E7ApprovalFiltering(sz Sizes) (Result, error) {
	res := Result{
		ID:     "E7",
		Title:  fmt.Sprintf("approval filtering with 30%% unreliable taggers (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"pipeline", "q_after", "dq_mean", "n(q>=0.9)"},
	}
	for _, approval := range []bool{false, true} {
		h, err := NewHarness(HarnessConfig{
			NumResources: sz.N, Taggers: sz.Taggers,
			UnreliableFraction: 0.3, Seed: sz.Seed, // same seed: same world+population
		})
		if err != nil {
			return Result{}, err
		}
		out, err := h.Run(RunConfig{
			Strategy: &strategy.FPMU{MinPostsTarget: 0, SwitchFraction: 0.5, TotalBudget: sz.Budget},
			Budget:   sz.Budget, Batch: sz.Batch, Seed: sz.Seed + 7, Approval: approval,
		})
		if err != nil {
			return Result{}, err
		}
		label := "no approval"
		if approval {
			label = "approval+qualification"
		}
		res.Rows = append(res.Rows, []string{label, f4(out.OracleAfter), f4(out.DeltaOracle), d(out.CountHighAfter)})
	}
	res.Notes = append(res.Notes,
		"§III-A: the approval process screens out 'taggers which provide low-quality tags on a consistent basis'; quality should be higher with it on.")
	return res, nil
}

// E8PromoteStop measures the provider's per-resource controls: promoting
// the worst decile (by oracle quality) each iteration, or stopping the best
// decile at the start, versus hands-off.
func E8PromoteStop(sz Sizes) (Result, error) {
	res := Result{
		ID:     "E8",
		Title:  fmt.Sprintf("promote/stop controls under MU (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"control", "dq_mean", "n(q<0.5)"},
	}
	base, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	// Hands-off baseline.
	out, err := base.Run(RunConfig{Strategy: strategy.MostUnstable{}, Budget: sz.Budget, Batch: sz.Batch, Seed: sz.Seed + 8})
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, []string{"none", f4(out.DeltaOracle), d(out.CountLowAfter)})

	// Stop the best decile up front: budget flows to the needy resources.
	h2, err := sz.harness(0.1)
	if err != nil {
		return Result{}, err
	}
	out2, err := h2.runWithStopBest(sz)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, []string{"stop best 10%", f4(out2.DeltaOracle), d(out2.CountLowAfter)})
	res.Notes = append(res.Notes,
		"§III-A: providers 'stop investing certain resources of good tagging quality'; freed budget should help the tail without hurting Δq̄ much.")
	return res, nil
}

func (h *Harness) runWithStopBest(sz Sizes) (Outcome, error) {
	out, err := h.Run(RunConfig{Strategy: strategy.MostUnstable{}, Budget: 1, Batch: 1, Seed: sz.Seed + 8})
	if err != nil {
		return Outcome{}, err
	}
	eng := out.Engine
	qs, _ := eng.OracleQualities()
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	// Stop the top decile by current oracle quality.
	for stopped := 0; stopped < len(qs)/10; stopped++ {
		best := -1
		for i := range qs {
			if qs[i] >= 0 && (best < 0 || qs[i] > qs[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if err := eng.StopResource(h.World.Dataset.Resources[best].ID); err != nil {
			return Outcome{}, err
		}
		qs[best] = -1
	}
	if err := eng.AddBudget(sz.Budget - 1); err != nil {
		return Outcome{}, err
	}
	if err := eng.Run(); err != nil {
		return Outcome{}, err
	}
	after, _ := eng.OracleQualities()
	return Outcome{
		Strategy:      "stop-best",
		DeltaOracle:   quality.MeanQuality(after) - out.OracleBefore,
		CountLowAfter: quality.CountBelow(after, 0.5),
		OracleAfter:   quality.MeanQuality(after),
		Engine:        eng,
	}, nil
}

// E9TraceReplay runs the demo's replay protocol: the first 30% of a
// free-choice trace seeds the providers' data, and strategies spend budget
// drawing each resource's *actual future posts* from the held-out trace.
func E9TraceReplay(sz Sizes) (Result, error) {
	h, err := NewHarness(HarnessConfig{
		NumResources: sz.N, Taggers: sz.Taggers, UnreliableFraction: 0.1,
		// Milder skew than the live experiments so the held-out future
		// covers most resources; a high-theta future concentrates on a
		// handful of resources and forces every strategy into the same
		// allocation (the budget can only go where future posts exist).
		SeedTracePosts: sz.Budget * 8, TraceTheta: 0.3, Seed: sz.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	seed, eval := h.World.Dataset.SplitFraction(0.3)
	seedPosts := make(map[string][][]string)
	for _, p := range seed {
		seedPosts[p.ResourceID] = append(seedPosts[p.ResourceID], p.Tags)
	}
	budget := sz.Budget
	if budget > len(eval)/3 {
		budget = len(eval) / 3
	}
	res := Result{
		ID:     "E9",
		Title:  fmt.Sprintf("trace replay, 30%% seed cutoff (n=%d, B=%d, %d held-out posts)", sz.N, budget, len(eval)),
		Header: []string{"strategy", "dq_mean", "q_after", "spent"},
	}
	szB := sz
	szB.Budget = budget
	for _, st := range PaperStrategies(budget) {
		out, err := h.replayRun(st, seedPosts, eval, szB)
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{out.Strategy, f4(out.DeltaOracle), f4(out.OracleAfter), d(out.Spent)})
	}
	res.Notes = append(res.Notes,
		"§IV protocol: pre-cutoff posts are provider data, strategies allocate over the held-out future. Budget may be under-spent when a chosen resource's future is exhausted.")
	return res, nil
}

func (h *Harness) replayRun(st strategy.Strategy, seedPosts map[string][][]string,
	eval []dataset.Post, sz Sizes) (Outcome, error) {

	rp := taggersim.NewReplayer(eval)
	plat, err := newReplayPlatform(rp, sz.Seed+9)
	if err != nil {
		return Outcome{}, err
	}
	eng, err := core.New(core.Config{
		Resources: h.World.Dataset.Resources,
		SeedPosts: seedPosts,
		Strategy:  st,
		Budget:    sz.Budget,
		Batch:     sz.Batch,
		Platform:  plat,
		Seed:      sz.Seed + 9,
	})
	if err != nil {
		return Outcome{}, err
	}
	before, _ := eng.OracleQualities()
	if err := eng.Run(); err != nil {
		return Outcome{}, err
	}
	after, _ := eng.OracleQualities()
	return Outcome{
		Strategy:     st.Name(),
		Spent:        eng.Spent(),
		OracleBefore: quality.MeanQuality(before),
		OracleAfter:  quality.MeanQuality(after),
		DeltaOracle:  quality.MeanQuality(after) - quality.MeanQuality(before),
		Engine:       eng,
	}, nil
}
