package bench

import (
	"strconv"
	"strings"
	"testing"
)

// These tests exercise the experiment implementations at small sizes and
// assert the *shape* claims from Table I hold (the real reported runs are
// the root bench_test.go / cmd/itag-bench at default sizes).

func small() Sizes { return SmallSizes() }

func findRow(t *testing.T, res Result, name string) []string {
	t.Helper()
	for _, row := range res.Rows {
		if row[0] == name {
			return row
		}
	}
	t.Fatalf("%s: no row %q in %v", res.ID, name, res.Rows)
	return nil
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestHarnessConstruction(t *testing.T) {
	h, err := NewHarness(HarnessConfig{NumResources: 20, Taggers: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.World.Dataset.Resources) != 20 {
		t.Errorf("resources = %d", len(h.World.Dataset.Resources))
	}
	if len(h.World.Dataset.Posts) != 100 { // default 5n seed posts
		t.Errorf("seed trace = %d posts", len(h.World.Dataset.Posts))
	}
	total := 0
	for _, posts := range h.SeedPosts {
		total += len(posts)
	}
	if total != 100 {
		t.Errorf("seed posts = %d", total)
	}
}

func TestRunOutcomeFields(t *testing.T) {
	h, err := NewHarness(HarnessConfig{NumResources: 15, Taggers: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Run(RunConfig{Strategy: StandardStrategies(100)[1], Budget: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Spent != 100 || out.Strategy != "fp" {
		t.Errorf("outcome = %+v", out)
	}
	if out.DeltaOracle <= 0 {
		t.Errorf("FP with fresh budget must improve quality: %v", out.DeltaOracle)
	}
	if out.OracleAfter <= out.OracleBefore {
		t.Error("after must exceed before")
	}
	if out.PostGini < 0 || out.PostGini > 1 {
		t.Errorf("gini = %v", out.PostGini)
	}
}

func TestE1ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := E1TableI(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 { // 6 strategies + optimal
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Columns: 1=dq_stab (paper metric), 2=dq_oracle (ground truth).
	// Stability (the paper's q): MU optimizes this directly, so it must
	// beat both FC and FP; the hybrid must beat FC.
	muS := parseF(t, findRow(t, res, "mu")[1])
	fcS := parseF(t, findRow(t, res, "fc")[1])
	fpS := parseF(t, findRow(t, res, "fp")[1])
	fpmuS := parseF(t, findRow(t, res, "fp-mu")[1])
	if muS <= fcS || muS <= fpS {
		t.Errorf("MU stability Δq (%.4f) must beat FC (%.4f) and FP (%.4f)", muS, fcS, fpS)
	}
	if fpmuS <= fcS {
		t.Errorf("FP-MU stability Δq (%.4f) must beat FC (%.4f)", fpmuS, fcS)
	}
	// Oracle (ground truth): FC weakest of the paper's strategies.
	fc := parseF(t, findRow(t, res, "fc")[2])
	fp := parseF(t, findRow(t, res, "fp")[2])
	fpmu := parseF(t, findRow(t, res, "fp-mu")[2])
	if fc >= fp {
		t.Errorf("FC oracle Δq (%.4f) should be weaker than FP (%.4f)", fc, fp)
	}
	if fc >= fpmu {
		t.Errorf("FC oracle Δq (%.4f) should be weaker than FP-MU (%.4f)", fc, fpmu)
	}
	// Table I MU claim: MU maximizes threshold satisfaction n(q>=0.9)
	// among the paper's strategies.
	muHigh := parseF(t, findRow(t, res, "mu")[4])
	for _, name := range []string{"fc", "fp", "fp-mu"} {
		if v := parseF(t, findRow(t, res, name)[4]); v > muHigh {
			t.Errorf("MU n(q>=0.9)=%v should top %s's %v", muHigh, name, v)
		}
	}
	// Table I FP claim: FP minimizes the low-quality count n(q<0.5).
	fpLow := parseF(t, findRow(t, res, "fp")[5])
	for _, name := range []string{"fc", "mu"} {
		if v := parseF(t, findRow(t, res, name)[5]); v < fpLow {
			t.Errorf("FP n(q<0.5)=%v should be minimal; %s has %v", fpLow, name, v)
		}
	}
	// Optimal at least matches every heuristic on the oracle metric, up to
	// Monte-Carlo estimation noise.
	opt := parseF(t, findRow(t, res, "optimal")[2])
	for _, name := range []string{"fc", "fp", "mu", "fp-mu", "random", "round-robin"} {
		v := parseF(t, findRow(t, res, name)[2])
		if v > opt+0.05 {
			t.Errorf("%s (%.4f) should not beat optimal (%.4f) beyond noise", name, v, opt)
		}
	}
	// FC must skew allocations: its Gini exceeds FP's.
	fcGini := parseF(t, findRow(t, res, "fc")[6])
	fpGini := parseF(t, findRow(t, res, "fp")[6])
	if fcGini <= fpGini {
		t.Errorf("FC gini (%.3f) should exceed FP gini (%.3f)", fcGini, fpGini)
	}
	// Markdown/Text render without error.
	if !strings.Contains(res.Markdown(), "| fc |") && !strings.Contains(res.Markdown(), "fc") {
		t.Error("markdown lacks rows")
	}
	if len(res.Text()) == 0 {
		t.Error("text empty")
	}
}

func TestE2BudgetMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := E2QualityVsBudget(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// More budget must not reduce FP-MU's improvement (column 4).
	prev := -1.0
	for _, row := range res.Rows {
		v := parseF(t, row[4])
		if v < prev-0.03 {
			t.Errorf("fp-mu Δq decreased with budget: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestE3RatiosBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := E3VsOptimal(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for _, cell := range row[2:] {
			if cell == "n/a" {
				continue
			}
			v := parseF(t, cell)
			if v < -0.2 || v > 1.35 {
				t.Errorf("ratio %v out of plausible range in row %v", v, row)
			}
		}
	}
}

func TestE7ApprovalHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := E7ApprovalFiltering(small())
	if err != nil {
		t.Fatal(err)
	}
	off := parseF(t, findRow(t, res, "no approval")[1])
	on := parseF(t, findRow(t, res, "approval+qualification")[1])
	if on <= off-0.01 {
		t.Errorf("approval pipeline should not hurt: off=%.4f on=%.4f", off, on)
	}
}

func TestE9ReplaySpendsAtMostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := E9TraceReplay(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		spent := int(parseF(t, row[3]))
		if spent > small().Budget {
			t.Errorf("%s spent %d > budget", row[0], spent)
		}
		if spent == 0 {
			t.Errorf("%s spent nothing", row[0])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, f := range []func(Sizes) (Result, error){A1StabilityWindow, A2SwitchPoint, A3BatchSize} {
		res, err := f(small())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s produced no rows", res.ID)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := Result{
		ID: "EX", Title: "demo", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}, {"333", "4"}},
		Notes: []string{"a note"},
	}
	md := r.Markdown()
	for _, want := range []string{"### EX", "| a | b |", "| --- | --- |", "| 1 | 2 |", "> a note"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	txt := r.Text()
	for _, want := range []string{"EX — demo", "333", "note: a note"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text missing %q:\n%s", want, txt)
		}
	}
	var sb strings.Builder
	r.Fprint(&sb)
	if sb.Len() == 0 {
		t.Error("Fprint wrote nothing")
	}
}
