package bench

import (
	"fmt"
	"time"

	"itag/internal/strategy"
)

// A1StabilityWindow ablates the MU stability window W: small windows are
// noisy (quality jitters, MU chases noise), large windows are stale (MU
// reacts late). design choice 1 in docs/ARCHITECTURE.md.
func A1StabilityWindow(sz Sizes) (Result, error) {
	res := Result{
		ID:     "A1",
		Title:  fmt.Sprintf("MU stability window W (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"window", "dq_mean", "q_after", "n(q>=0.9)"},
	}
	for _, w := range []int{2, 5, 10, 20} {
		h, err := sz.harness(0.1)
		if err != nil {
			return Result{}, err
		}
		out, err := h.Run(RunConfig{
			Strategy: strategy.MostUnstable{}, Budget: sz.Budget,
			Batch: sz.Batch, Seed: sz.Seed + 11, Window: w,
		})
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{d(w), f4(out.DeltaOracle), f4(out.OracleAfter), d(out.CountHighAfter)})
	}
	return res, nil
}

// A2SwitchPoint ablates the FP-MU trigger: budget-fraction switches
// (φ ∈ {0.25, 0.5, 0.75}) against post-count-target switches (K0 ∈ {3, 5, 8}).
// design choice 2 in docs/ARCHITECTURE.md.
func A2SwitchPoint(sz Sizes) (Result, error) {
	res := Result{
		ID:     "A2",
		Title:  fmt.Sprintf("FP-MU switch trigger (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"trigger", "dq_mean", "q_after"},
	}
	type trig struct {
		label string
		strat strategy.Strategy
	}
	var trigs []trig
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		trigs = append(trigs, trig{
			label: fmt.Sprintf("frac=%.2f", phi),
			strat: &strategy.FPMU{SwitchFraction: phi, TotalBudget: sz.Budget},
		})
	}
	for _, k0 := range []int{3, 5, 8} {
		trigs = append(trigs, trig{
			label: fmt.Sprintf("k0=%d", k0),
			strat: &strategy.FPMU{MinPostsTarget: k0},
		})
	}
	for _, tg := range trigs {
		h, err := sz.harness(0.1)
		if err != nil {
			return Result{}, err
		}
		out, err := h.Run(RunConfig{Strategy: tg.strat, Budget: sz.Budget, Batch: sz.Batch, Seed: sz.Seed + 12})
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{tg.label, f4(out.DeltaOracle), f4(out.OracleAfter)})
	}
	return res, nil
}

// A3BatchSize ablates |Rc|, the Algorithm-1 batch: large batches schedule on
// staler quality statistics but cost less per task. Design choice 3 in
// docs/ARCHITECTURE.md.
func A3BatchSize(sz Sizes) (Result, error) {
	res := Result{
		ID:     "A3",
		Title:  fmt.Sprintf("Algorithm-1 batch size |Rc| (n=%d, B=%d)", sz.N, sz.Budget),
		Header: []string{"batch", "dq_mean", "wall_ms"},
	}
	for _, batch := range []int{1, 8, 32, 128} {
		h, err := sz.harness(0.1)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		out, err := h.Run(RunConfig{
			Strategy: strategy.MostUnstable{}, Budget: sz.Budget,
			Batch: batch, Seed: sz.Seed + 13,
		})
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{
			d(batch), f4(out.DeltaOracle),
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/1000),
		})
	}
	res.Notes = append(res.Notes,
		"Wall time drops with batch size. Staleness effects are regime-dependent: once batch approaches n, MU degenerates toward round-robin, which is itself a strong equalizing policy here.")
	return res, nil
}

// Experiment is one paper table or ablation: the ID cmd/itag-bench selects
// it by and the function that runs it.
type Experiment struct {
	ID  string
	Run func(Sizes) (Result, error)
}

// Experiments lists the paper anchors and ablations in report order.
// TestPaperGolden pins every entry's text at SmallSizes, so whatever
// itag-bench prints from this table is a golden file too.
var Experiments = []Experiment{
	{"e1", E1TableI},
	{"e2", E2QualityVsBudget},
	{"e3", E3VsOptimal},
	{"e4", E4ThresholdSatisfaction},
	{"e5", E5LowQualityReduction},
	{"e6", E6MonitoringAndSwitch},
	{"e7", E7ApprovalFiltering},
	{"e8", E8PromoteStop},
	{"e9", E9TraceReplay},
	{"a1", A1StabilityWindow},
	{"a2", A2SwitchPoint},
	{"a3", A3BatchSize},
}
