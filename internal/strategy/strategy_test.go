package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"itag/internal/quality"
	"itag/internal/rng"
)

// fakeView is a deterministic View for strategy tests.
type fakeView struct {
	posts      []int
	qual       []float64
	pop        []float64
	ineligible map[int]bool
}

func (f *fakeView) Len() int                 { return len(f.posts) }
func (f *fakeView) Posts(i int) int          { return f.posts[i] }
func (f *fakeView) Quality(i int) float64    { return f.qual[i] }
func (f *fakeView) Popularity(i int) float64 { return f.pop[i] }
func (f *fakeView) Eligible(i int) bool      { return !f.ineligible[i] }

func newFakeView(n int) *fakeView {
	f := &fakeView{
		posts:      make([]int, n),
		qual:       make([]float64, n),
		pop:        make([]float64, n),
		ineligible: make(map[int]bool),
	}
	for i := range f.pop {
		f.pop[i] = 1.0 / float64(n)
	}
	return f
}

func assertDistinctEligible(t *testing.T, v *fakeView, got []int, batch int) {
	t.Helper()
	if len(got) > batch {
		t.Fatalf("returned %d > batch %d", len(got), batch)
	}
	seen := make(map[int]bool)
	for _, i := range got {
		if i < 0 || i >= v.Len() {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		if v.ineligible[i] {
			t.Fatalf("ineligible index %d chosen", i)
		}
		seen[i] = true
	}
}

func TestFewestPostsPicksSmallest(t *testing.T) {
	v := newFakeView(5)
	v.posts = []int{10, 3, 7, 1, 5}
	r := rng.New(1)
	got := FewestPosts{}.Choose(v, 2, r)
	assertDistinctEligible(t, v, got, 2)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	want := map[int]bool{3: true, 1: true} // posts 1 and 3
	for _, i := range got {
		if !want[i] {
			t.Errorf("FP chose %d (posts=%d), want resources with fewest posts", i, v.posts[i])
		}
	}
}

func TestFewestPostsTieBreakIsFair(t *testing.T) {
	v := newFakeView(4) // all zero posts: pure tie
	r := rng.New(7)
	counts := make(map[int]int)
	for trial := 0; trial < 4000; trial++ {
		got := FewestPosts{}.Choose(v, 1, r)
		counts[got[0]]++
	}
	for i := 0; i < 4; i++ {
		frac := float64(counts[i]) / 4000
		if math.Abs(frac-0.25) > 0.05 {
			t.Errorf("tie-break not fair: resource %d chosen %.3f", i, frac)
		}
	}
}

// refChoose is FP's and MU's Choose as it was before both were defined by a
// key: shuffle the eligible resources, stable-sort all of them with the
// strategy's comparator, cut at batch. It stays here as the oracle for the
// order the key functions must reproduce.
func refChoose(v View, batch int, r *rand.Rand, less func(a, b int) bool) []int {
	idx := eligible(v)
	r.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	if batch > len(idx) {
		batch = len(idx)
	}
	return idx[:batch]
}

// TestRankedChooseMatchesFullSort: on random views the key-based Choose and
// the reference full sort hand out the same ranks — position by position the
// chosen resources are equal under the old comparator, so they differ only
// inside tie classes.
func TestRankedChooseMatchesFullSort(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		v := newFakeView(n)
		for i := 0; i < n; i++ {
			v.posts[i] = r.Intn(5)
			v.qual[i] = float64(r.Intn(4)) / 4
			if r.Intn(5) == 0 {
				v.ineligible[i] = true
			}
		}
		instability := func(i int) float64 {
			if v.posts[i] < 2 {
				return 1
			}
			return 1 - v.qual[i]
		}
		lessFP := func(a, b int) bool { return v.posts[a] < v.posts[b] }
		lessMU := func(a, b int) bool {
			if ia, ib := instability(a), instability(b); ia != ib {
				return ia > ib
			}
			return v.posts[a] < v.posts[b]
		}
		batch := 1 + r.Intn(n+2)
		for _, tc := range []struct {
			s    Strategy
			less func(a, b int) bool
		}{{FewestPosts{}, lessFP}, {MostUnstable{}, lessMU}} {
			got := tc.s.Choose(v, batch, r)
			want := refChoose(v, batch, r, tc.less)
			assertDistinctEligible(t, v, got, batch)
			if len(got) != len(want) {
				t.Fatalf("%s chose %d resources, reference %d", tc.s.Name(), len(got), len(want))
			}
			for j := range got {
				if tc.less(got[j], want[j]) || tc.less(want[j], got[j]) {
					t.Fatalf("%s rank %d: chose %d, reference %d (posts %v qual %v)",
						tc.s.Name(), j, got[j], want[j], v.posts, v.qual)
				}
			}
		}
	}
}

func TestMostUnstablePicksLowQuality(t *testing.T) {
	v := newFakeView(4)
	v.posts = []int{10, 10, 10, 10}
	v.qual = []float64{0.9, 0.2, 0.6, 0.95}
	got := MostUnstable{}.Choose(v, 2, rng.New(2))
	assertDistinctEligible(t, v, got, 2)
	if got[0] != 1 {
		t.Errorf("most unstable should be resource 1, got %v", got)
	}
	if got[1] != 2 {
		t.Errorf("second most unstable should be resource 2, got %v", got)
	}
}

func TestMostUnstableTreatsFewPostsAsMaxUnstable(t *testing.T) {
	v := newFakeView(3)
	v.posts = []int{50, 1, 50}
	v.qual = []float64{0.1, 0.99, 0.2} // resource 1 "looks" stable but has 1 post
	got := MostUnstable{MinPosts: 2}.Choose(v, 1, rng.New(3))
	if got[0] != 1 {
		t.Errorf("resource below MinPosts must rank first, got %v", got)
	}
}

func TestFreeChoiceFavorsPopular(t *testing.T) {
	v := newFakeView(10)
	v.pop = make([]float64, 10)
	for i := range v.pop {
		v.pop[i] = 0.01
	}
	v.pop[4] = 0.91
	r := rng.New(4)
	counts := make(map[int]int)
	for trial := 0; trial < 2000; trial++ {
		got := FreeChoice{}.Choose(v, 1, r)
		assertDistinctEligible(t, v, got, 1)
		counts[got[0]]++
	}
	if counts[4] < 1200 {
		t.Errorf("popular resource chosen only %d/2000", counts[4])
	}
}

func TestFreeChoiceRichGetRicher(t *testing.T) {
	v := newFakeView(2)
	v.pop = []float64{0.5, 0.5}
	v.posts = []int{100, 0}
	r := rng.New(5)
	c0 := 0
	for trial := 0; trial < 2000; trial++ {
		if (FreeChoice{Theta: 1}).Choose(v, 1, r)[0] == 0 {
			c0++
		}
	}
	if c0 < 1800 {
		t.Errorf("rich-get-richer should strongly favor resource 0: %d/2000", c0)
	}
}

func TestFPMUSwitchesOnK0(t *testing.T) {
	v := newFakeView(3)
	v.posts = []int{0, 0, 0}
	v.qual = []float64{0.1, 0.5, 0.9}
	s := &FPMU{MinPostsTarget: 2}
	r := rng.New(6)
	if s.Phase() != "fp" {
		t.Fatal("must start in FP phase")
	}
	// Simulate: allocate and bump posts until all have >= 2.
	for iter := 0; iter < 20 && s.Phase() == "fp"; iter++ {
		got := s.Choose(v, 1, r)
		if len(got) == 0 {
			t.Fatal("no choice")
		}
		v.posts[got[0]]++
	}
	if s.Phase() != "mu" {
		t.Errorf("hybrid did not switch after K0 reached; posts=%v", v.posts)
	}
	// In MU phase it must pick by instability.
	v.posts = []int{5, 5, 5}
	got := s.Choose(v, 1, r)
	if got[0] != 0 {
		t.Errorf("MU phase should pick most unstable (0), got %v", got)
	}
}

func TestFPMUSwitchesOnBudgetFraction(t *testing.T) {
	v := newFakeView(4)
	// Keep posts below any K0 so only the fraction trigger can fire.
	s := &FPMU{SwitchFraction: 0.5, TotalBudget: 10}
	r := rng.New(7)
	spent := 0
	for spent < 10 {
		got := s.Choose(v, 1, r)
		spent += len(got)
		if spent <= 5 && s.Phase() != "fp" {
			t.Fatalf("switched too early at spent=%d", spent)
		}
	}
	if s.Phase() != "mu" {
		t.Error("hybrid did not switch after budget fraction")
	}
}

func TestRandomUniform(t *testing.T) {
	v := newFakeView(5)
	r := rng.New(8)
	counts := make(map[int]int)
	for trial := 0; trial < 5000; trial++ {
		got := Random{}.Choose(v, 1, r)
		assertDistinctEligible(t, v, got, 1)
		counts[got[0]]++
	}
	for i := 0; i < 5; i++ {
		frac := float64(counts[i]) / 5000
		if math.Abs(frac-0.2) > 0.05 {
			t.Errorf("resource %d frequency %.3f, want 0.2", i, frac)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	v := newFakeView(3)
	s := &RoundRobin{}
	r := rng.New(9)
	var seq []int
	for i := 0; i < 6; i++ {
		seq = append(seq, s.Choose(v, 1, r)...)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("round robin sequence %v, want %v", seq, want)
		}
	}
}

func TestRoundRobinSkipsIneligible(t *testing.T) {
	v := newFakeView(3)
	v.ineligible[1] = true
	s := &RoundRobin{}
	r := rng.New(10)
	for i := 0; i < 10; i++ {
		got := s.Choose(v, 1, r)
		if len(got) == 1 && got[0] == 1 {
			t.Fatal("chose ineligible resource")
		}
	}
}

func TestEpsGreedy(t *testing.T) {
	v := newFakeView(3)
	v.posts = []int{10, 10, 10}
	v.qual = []float64{0.99, 0.99, 0.0}
	r := rng.New(11)
	nonGreedy := 0
	for trial := 0; trial < 2000; trial++ {
		got := EpsGreedy{Eps: 0.3}.Choose(v, 1, r)
		if got[0] != 2 {
			nonGreedy++
		}
	}
	// Exploration picks a non-optimal resource ~0.3*(2/3) = 0.2 of the time.
	frac := float64(nonGreedy) / 2000
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("exploration fraction = %.3f, want ~0.2", frac)
	}
}

func TestAllStrategiesRespectEligibilityAndBatch(t *testing.T) {
	strategies := []Strategy{
		FreeChoice{}, FewestPosts{}, MostUnstable{}, NewFPMU(),
		Random{}, &RoundRobin{}, EpsGreedy{},
	}
	v := newFakeView(10)
	v.posts = []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for i := range v.qual {
		v.qual[i] = float64(i) / 10
	}
	v.ineligible[2] = true
	v.ineligible[7] = true
	r := rng.New(12)
	for _, s := range strategies {
		for _, batch := range []int{0, 1, 3, 8, 20} {
			got := s.Choose(v, batch, r)
			assertDistinctEligible(t, v, got, batch)
			if batch >= 8 && len(got) != 8 {
				t.Errorf("%s: batch %d with 8 eligible returned %d", s.Name(), batch, len(got))
			}
		}
	}
}

func TestAllStrategiesEmptyWhenNoneEligible(t *testing.T) {
	strategies := []Strategy{
		FreeChoice{}, FewestPosts{}, MostUnstable{}, NewFPMU(),
		Random{}, &RoundRobin{}, EpsGreedy{},
	}
	v := newFakeView(4)
	for i := 0; i < 4; i++ {
		v.ineligible[i] = true
	}
	r := rng.New(13)
	for _, s := range strategies {
		if got := s.Choose(v, 3, r); len(got) != 0 {
			t.Errorf("%s chose %v with nothing eligible", s.Name(), got)
		}
	}
}

func TestPlanned(t *testing.T) {
	v := newFakeView(4)
	p := NewPlanned("opt", []int{0, 3, 1, 0})
	r := rng.New(14)
	counts := make(map[int]int)
	for p.Remaining() > 0 {
		got := p.Choose(v, 2, r)
		if len(got) == 0 {
			t.Fatal("planned stalled with remaining > 0")
		}
		for _, i := range got {
			counts[i]++
		}
	}
	if counts[1] != 3 || counts[2] != 1 || counts[0] != 0 || counts[3] != 0 {
		t.Errorf("planned dispensed %v, want map[1:3 2:1]", counts)
	}
	if got := p.Choose(v, 2, r); len(got) != 0 {
		t.Errorf("exhausted plan returned %v", got)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"fc", "fc"}, {"fc:theta=1.2", "fc"}, {"fp", "fp"},
		{"mu", "mu"}, {"mu:minposts=4", "mu"},
		{"fp-mu", "fp-mu"}, {"fpmu:k0=3", "fp-mu"},
		{"fp-mu:frac=0.3,budget=100", "fp-mu"},
		{"random", "random"}, {"round-robin", "round-robin"}, {"rr", "round-robin"},
		{"eps-greedy", "eps-greedy"}, {"eps:eps=0.2", "eps-greedy"},
	}
	for _, tc := range cases {
		s, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if s.Name() != tc.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, s.Name(), tc.name)
		}
	}
	bad := []string{"nope", "fc:theta=abc", "mu:minposts=x", "fp-mu:k0", "fc:="}
	// A float that parses but is not finite would poison FC's weights or a
	// switch threshold: it is a parse error too.
	for _, param := range []string{"fc:theta", "eps-greedy:eps", "fp-mu:frac"} {
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			bad = append(bad, param+"="+v)
		}
	}
	for _, bad := range bad {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// --- optimal allocators -------------------------------------------------------

// tables projects each curve from its k0 over maxX more posts.
func tables(curves []quality.Curve, k0s []int, maxX int) []*quality.GainTable {
	out := make([]*quality.GainTable, len(curves))
	for i, c := range curves {
		values := make([]float64, maxX+1)
		for x := range values {
			values[x] = c.Eval(k0s[i] + x)
		}
		out[i] = quality.NewGainTableFromValues(values)
	}
	return out
}

func TestGreedyAllocateBasics(t *testing.T) {
	ts := tables(
		[]quality.Curve{
			{QMax: 0.9, A: 0.9, Lambda: 0.3},
			{QMax: 0.9, A: 0.1, Lambda: 0.3}, // nearly converged: low gains
		},
		[]int{0, 0}, 50,
	)
	x, total, err := GreedyAllocate(ts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x[0]+x[1] != 10 {
		t.Errorf("budget not conserved: %v", x)
	}
	if x[0] <= x[1] {
		t.Errorf("greedy should favor the high-gain resource: %v", x)
	}
	if total <= 0 {
		t.Error("total gain must be positive")
	}
}

func TestGreedyAllocateEdgeCases(t *testing.T) {
	if _, _, err := GreedyAllocate(nil, -1); err == nil {
		t.Error("negative budget must fail")
	}
	x, total, err := GreedyAllocate(nil, 5)
	if err != nil || len(x) != 0 || total != 0 {
		t.Error("empty tables must yield empty allocation")
	}
	ts := tables([]quality.Curve{{QMax: 0.5, A: 0.4, Lambda: 0.5}}, []int{0}, 3)
	x, _, err = GreedyAllocate(ts, 100) // budget exceeds capacity
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 {
		t.Errorf("allocation beyond table capacity: %v", x)
	}
}

func TestDPMatchesGreedyOnConcaveTables(t *testing.T) {
	r := rng.New(15)
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(6)
		curves := make([]quality.Curve, n)
		k0s := make([]int, n)
		for i := range curves {
			curves[i] = quality.Curve{
				QMax:   0.5 + r.Float64()*0.5,
				A:      r.Float64() * 0.5,
				Lambda: 0.02 + r.Float64()*0.4,
			}
			k0s[i] = r.Intn(10)
		}
		ts := tables(curves, k0s, 40)
		budget := 1 + r.Intn(60)
		gx, gTotal, err := GreedyAllocate(ts, budget)
		if err != nil {
			t.Fatal(err)
		}
		dx, dTotal, err := DPAllocate(ts, budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gTotal-dTotal) > 1e-9 {
			t.Fatalf("trial %d: greedy %v (%.6f) vs DP %v (%.6f)", trial, gx, gTotal, dx, dTotal)
		}
		// Verify reported totals match the allocations.
		if tg, _ := TotalGain(ts, gx); math.Abs(tg-gTotal) > 1e-9 {
			t.Fatalf("greedy total mismatch: %v vs %v", tg, gTotal)
		}
		if tg, _ := TotalGain(ts, dx); math.Abs(tg-dTotal) > 1e-9 {
			t.Fatalf("dp total mismatch: %v vs %v", tg, dTotal)
		}
	}
}

func TestDPBeatsOrMatchesAnyAllocation(t *testing.T) {
	ts := tables(
		[]quality.Curve{
			{QMax: 0.9, A: 0.8, Lambda: 0.2},
			{QMax: 0.8, A: 0.6, Lambda: 0.1},
			{QMax: 0.95, A: 0.3, Lambda: 0.4},
		},
		[]int{0, 5, 2}, 30,
	)
	_, best, err := DPAllocate(ts, 12)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(16)
	for trial := 0; trial < 200; trial++ {
		// Random allocation of exactly 12.
		x := make([]int, 3)
		for b := 0; b < 12; b++ {
			x[r.Intn(3)]++
		}
		tg, err := TotalGain(ts, x)
		if err != nil {
			t.Fatal(err)
		}
		if tg > best+1e-9 {
			t.Fatalf("random allocation %v (%.6f) beats DP optimum (%.6f)", x, tg, best)
		}
	}
}

func TestTotalGainValidation(t *testing.T) {
	ts := tables([]quality.Curve{{QMax: 0.9, A: 0.5, Lambda: 0.1}}, []int{0}, 10)
	if _, err := TotalGain(ts, []int{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := TotalGain(ts, []int{-1}); err == nil {
		t.Error("negative allocation must fail")
	}
}

func TestPropertyBudgetConservation(t *testing.T) {
	// Every strategy must hand out exactly min(batch, eligible) per call,
	// so a full run allocates exactly B tasks while any resource is
	// eligible.
	f := func(seed int64, batchRaw, nRaw uint8) bool {
		n := int(nRaw)%20 + 1
		batch := int(batchRaw)%5 + 1
		v := newFakeView(n)
		r := rng.New(seed)
		for _, s := range []Strategy{FreeChoice{}, FewestPosts{}, MostUnstable{}, NewFPMU(), Random{}, &RoundRobin{}} {
			total := 0
			budget := 30
			for total < budget {
				want := batch
				if budget-total < want {
					want = budget - total
				}
				got := s.Choose(v, want, r)
				wantN := want
				if n < wantN {
					wantN = n
				}
				if len(got) != wantN {
					return false
				}
				for _, i := range got {
					v.posts[i]++
				}
				total += len(got)
			}
			if total != budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGreedyAllocate(b *testing.B) {
	r := rng.New(1)
	n := 500
	curves := make([]quality.Curve, n)
	k0s := make([]int, n)
	for i := range curves {
		curves[i] = quality.Curve{QMax: 0.9, A: r.Float64() * 0.8, Lambda: 0.02 + r.Float64()*0.2}
		k0s[i] = r.Intn(20)
	}
	ts := tables(curves, k0s, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = GreedyAllocate(ts, 2000)
	}
}

func BenchmarkMUChoose(b *testing.B) {
	v := newFakeView(1000)
	r := rng.New(1)
	for i := range v.qual {
		v.qual[i] = r.Float64()
		v.posts[i] = r.Intn(50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MostUnstable{}.Choose(v, 32, r)
	}
}

// DPAllocate solves the allocation exactly by dynamic programming in
// O(n·B·maxX) time and O(n·B) space. It does not require concavity; use it
// to validate GreedyAllocate or for small instances.
func DPAllocate(tables []*quality.GainTable, budget int) ([]int, float64, error) {
	if budget < 0 {
		return nil, 0, fmt.Errorf("strategy: negative budget %d", budget)
	}
	n := len(tables)
	x := make([]int, n)
	if budget == 0 || n == 0 {
		return x, 0, nil
	}
	const neg = -1.0 // gains are >= 0; -1 marks unreachable
	// dp[i][b]: best gain using resources [0, i) with exactly b' <= b
	// spendable... we allow Σx <= B (leftover budget wastes nothing since
	// gains are non-negative and zero-extension is always possible).
	dp := make([][]float64, n+1)
	choice := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]float64, budget+1)
		choice[i] = make([]int, budget+1)
		for b := range dp[i] {
			dp[i][b] = neg
		}
	}
	for b := 0; b <= budget; b++ {
		dp[0][b] = 0
	}
	for i := 1; i <= n; i++ {
		t := tables[i-1]
		if t == nil {
			return nil, 0, fmt.Errorf("strategy: nil gain table at %d", i-1)
		}
		maxX := t.MaxX()
		for b := 0; b <= budget; b++ {
			for xi := 0; xi <= maxX && xi <= b; xi++ {
				prev := dp[i-1][b-xi]
				if prev < 0 {
					continue
				}
				cand := prev + t.Gain(xi)
				if cand > dp[i][b] {
					dp[i][b] = cand
					choice[i][b] = xi
				}
			}
		}
	}
	// Reconstruct from the full budget.
	b := budget
	for i := n; i >= 1; i-- {
		xi := choice[i][b]
		x[i-1] = xi
		b -= xi
	}
	return x, dp[n][budget], nil
}

// TotalGain evaluates an allocation against gain tables.
func TotalGain(tables []*quality.GainTable, x []int) (float64, error) {
	if len(tables) != len(x) {
		return 0, fmt.Errorf("strategy: allocation length %d != tables %d", len(x), len(tables))
	}
	var total float64
	for i, t := range tables {
		if x[i] < 0 {
			return 0, fmt.Errorf("strategy: negative allocation at %d", i)
		}
		total += t.Gain(x[i])
	}
	return total, nil
}
