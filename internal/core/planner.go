package core

import (
	"fmt"

	"itag/internal/dataset"
	"itag/internal/errs"
	"itag/internal/quality"
	"itag/internal/rfd"
	"itag/internal/rng"
	"itag/internal/strategy"
	"itag/internal/taggersim"
	"itag/internal/vocab"
)

// This file implements the optimal allocation planner the demo compares
// strategies against (§IV). It estimates, per resource, the expected
// quality curve E[q_i(c_i + x)] by Monte-Carlo simulation under the tagger
// behaviour model, turns the curves into concave gain tables, and solves
// the budgeted maximization with the exact allocators in the strategy
// package. The resulting plan runs through the engine as a Planned
// strategy, so optimal and heuristics face the identical execution path.

// PlanConfig parameterizes gain estimation.
type PlanConfig struct {
	// Horizon is the maximum extra posts projected per resource
	// (default 4·B/n+16, set by the caller; required > 0 here).
	Horizon int
	// Samples is the number of Monte-Carlo paths per resource (default 8).
	Samples int
	// Metric is the quality metric projected (default cosine).
	Metric quality.Metric
	// Stability selects the projected objective: true projects the online
	// stability quality, false the oracle quality against the latent
	// distribution (default false = oracle).
	Stability bool
	// StabilityWindow is the tracker window used when Stability is set.
	StabilityWindow int
	// Population, when set, draws each projected post's tagger from the
	// actual population (activity-weighted) — the accurate behaviour
	// model. Profile is the single-profile fallback.
	Population *taggersim.Population
	// Profile is the tagger behaviour assumed when Population is nil.
	Profile taggersim.Profile
	// Seed drives the Monte-Carlo simulation.
	Seed int64
}

func (c PlanConfig) withDefaults() PlanConfig {
	if c.Samples <= 0 {
		c.Samples = 8
	}
	if c.Profile.ID == "" {
		c.Profile = taggersim.Profile{
			ID: "planner", Reliability: 0.9, TypoRate: 0.4,
			MeanTags: 3, AspectBias: 1.15, Activity: 1,
		}
	}
	if c.StabilityWindow <= 0 {
		c.StabilityWindow = quality.DefaultWindow
	}
	return c
}

// SeedCounts materializes per-resource rfd accumulators from seed posts,
// aligned with the resource slice. One interner spans them all: the
// resources share the world's vocabulary, and the planner's Monte-Carlo
// clones index by the same dense IDs. Posts are added resource by resource
// in post order, so every accumulator's slot order — and so every sum over
// it — is fixed by the input.
func SeedCounts(resources []dataset.Resource, seedPosts map[string][][]string) ([]*rfd.ICounts, error) {
	in := vocab.NewInterner()
	out := make([]*rfd.ICounts, len(resources))
	known := make(map[string]bool, len(resources))
	for i, res := range resources {
		out[i] = rfd.NewICounts(in)
		known[res.ID] = true
	}
	for id := range seedPosts {
		if !known[id] {
			return nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "seed posts for unknown resource %q", id)
		}
	}
	for i, res := range resources {
		for _, tags := range seedPosts[res.ID] {
			if err := out[i].AddPost(tags); err != nil {
				return nil, fmt.Errorf("core: seed post for %q: %w", res.ID, err)
			}
		}
	}
	return out, nil
}

// EstimateGainTables Monte-Carlo-projects each resource's expected quality
// curve from its current counts and returns concave gain tables. Each path
// runs on a clone, so current is left as it was.
func EstimateGainTables(sim *taggersim.Simulator, resources []dataset.Resource,
	current []*rfd.ICounts, cfg PlanConfig) ([]*quality.GainTable, error) {

	cfg = cfg.withDefaults()
	if cfg.Horizon <= 0 {
		return nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "plan horizon must be positive, got %d", cfg.Horizon)
	}
	if len(resources) != len(current) {
		return nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "%d resources vs %d count sets", len(resources), len(current))
	}
	r := rng.New(cfg.Seed)
	tables := make([]*quality.GainTable, len(resources))
	for i, res := range resources {
		mean := make([]float64, cfg.Horizon+1)
		for s := 0; s < cfg.Samples; s++ {
			counts := current[i].Clone()
			var ref *rfd.Ref
			var tracker *quality.Tracker
			if cfg.Stability {
				tracker = quality.NewTrackerShared(quality.Config{Metric: cfg.Metric, Window: cfg.StabilityWindow}, counts.Interner())
				// Warm the tracker with the existing posts' distribution:
				// stability projection needs history; approximate by
				// replaying the aggregate as one pseudo-history starting
				// point (the tracker starts cold, matching a fresh run).
			} else {
				ref = rfd.NewRef(counts, res.Latent)
			}
			val := func() float64 {
				if cfg.Stability {
					return tracker.Quality()
				}
				return quality.OracleRef(cfg.Metric, ref)
			}
			mean[0] += val()
			for x := 1; x <= cfg.Horizon; x++ {
				prof := &cfg.Profile
				if cfg.Population != nil {
					prof = cfg.Population.Sample(r)
				}
				tags, err := sim.GeneratePost(r, prof, res.ID)
				if err != nil {
					return nil, fmt.Errorf("core: projecting %s: %w", res.ID, err)
				}
				if err := counts.AddPost(tags); err != nil {
					return nil, err
				}
				if cfg.Stability {
					if err := tracker.AddPost(tags); err != nil {
						return nil, err
					}
				}
				mean[x] += val()
			}
		}
		for x := range mean {
			mean[x] /= float64(cfg.Samples)
		}
		tables[i] = smoothedGainTable(mean, current[i].Posts())
	}
	return tables, nil
}

// smoothedGainTable converts a Monte-Carlo mean quality curve into a gain
// table. Raw MC means are noisy, and greedy allocation over noisy marginals
// suffers a winner's curse (it chases overestimates); fitting the
// saturating parametric curve smooths that out. The first marginal (the
// 0→1-post jump, which the exponential model underfits) is kept from the
// raw means; the fit shapes the tail.
func smoothedGainTable(mean []float64, k0 int) *quality.GainTable {
	if len(mean) < 5 {
		return quality.NewGainTableFromValues(mean, k0)
	}
	ks := make([]int, 0, len(mean)-1)
	qs := make([]float64, 0, len(mean)-1)
	for x := 1; x < len(mean); x++ {
		ks = append(ks, k0+x)
		qs = append(qs, mean[x])
	}
	curve, err := quality.Fit(ks, qs)
	if err != nil {
		return quality.NewGainTableFromValues(mean, k0)
	}
	smoothed := make([]float64, len(mean))
	smoothed[0] = mean[0]
	smoothed[1] = mean[1] // keep the raw first-post jump
	for x := 2; x < len(mean); x++ {
		smoothed[x] = curve.Eval(k0 + x)
		if smoothed[x] < smoothed[x-1] {
			smoothed[x] = smoothed[x-1]
		}
	}
	return quality.NewGainTableFromValues(smoothed, k0)
}

// PlanOptimal computes the optimal allocation for a budget using greedy
// marginal-gain allocation over estimated gain tables, returning the plan
// and the projected total gain.
func PlanOptimal(sim *taggersim.Simulator, resources []dataset.Resource,
	seedPosts map[string][][]string, budget int, cfg PlanConfig) ([]int, float64, error) {

	counts, err := SeedCounts(resources, seedPosts)
	if err != nil {
		return nil, 0, err
	}
	if cfg.Horizon <= 0 {
		// Enough headroom for a very skewed optimum: 4 × fair share + 16.
		cfg.Horizon = 4*budget/max(1, len(resources)) + 16
		if cfg.Horizon > budget {
			cfg.Horizon = budget
		}
	}
	tables, err := EstimateGainTables(sim, resources, counts, cfg)
	if err != nil {
		return nil, 0, err
	}
	return strategy.GreedyAllocate(tables, budget)
}
