package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/rng"
	"itag/internal/strategy"
)

// refRank is the pre-index definition of the FP / MU / FP-MU order — the
// comparators the strategies used to hand to a full stable sort — kept as
// the oracle the rank index is checked against. It reads the engine's
// counters directly and knows nothing of strategy.Key.
type refRank struct {
	kind     string // "fp", "mu", "fp-mu"; "" = unranked strategy
	k0       int
	switched bool // fp-mu only
}

func (r *refRank) posts(e *Engine, i int) int { return e.posts[i] + e.pending[i] }

// advance is FP-MU's K0 trigger as a scan over all resources.
func (r *refRank) advance(e *Engine) {
	if r.kind != "fp-mu" || r.switched {
		return
	}
	for i := range e.resources {
		if e.eligible(i) && r.posts(e, i) < r.k0 {
			return
		}
	}
	r.switched = true
}

// before reports whether a ranks strictly before b.
func (r *refRank) before(e *Engine, a, b int) bool {
	if r.kind == "fp" || (r.kind == "fp-mu" && !r.switched) {
		return r.posts(e, a) < r.posts(e, b)
	}
	instability := func(i int) float64 {
		if r.posts(e, i) < 2 {
			return 1
		}
		return 1 - e.trackers[i].Quality()
	}
	if ia, ib := instability(a), instability(b); ia != ib {
		return ia > ib
	}
	return r.posts(e, a) < r.posts(e, b)
}

// sorted returns the eligible resources in reference order (ties adjacent,
// in index order).
func (r *refRank) sorted(e *Engine) []int {
	var idx []int
	for i := range e.resources {
		if e.eligible(i) {
			idx = append(idx, i)
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case r.before(e, a, b):
			return -1
		case r.before(e, b, a):
			return 1
		}
		return 0
	})
	return idx
}

// checkRank asserts the index's structural invariants against the engine's
// current state: heap order, a consistent position table, one entry per
// eligible resource, and no stale key.
func checkRank(t *testing.T, e *Engine) {
	t.Helper()
	for i, tr := range e.trackers {
		if e.quality[i] != tr.Quality() {
			t.Fatalf("quality[%d] = %v, tracker says %v", i, e.quality[i], tr.Quality())
		}
	}
	x := &e.rank
	if e.ranker == nil {
		if len(x.heap) != 0 {
			t.Fatalf("unranked strategy %s left %d heap entries", e.strategy.Name(), len(x.heap))
		}
		return
	}
	eligible := 0
	for i := range e.resources {
		if e.eligible(i) {
			eligible++
			if x.pos[i] < 0 {
				t.Fatalf("eligible resource %d missing from the index", i)
			}
		} else if x.pos[i] >= 0 {
			t.Fatalf("ineligible resource %d still indexed", i)
		}
	}
	if len(x.heap) != eligible {
		t.Fatalf("len(heap) = %d, eligible = %d", len(x.heap), eligible)
	}
	for j := range x.heap {
		ent := &x.heap[j]
		if int(x.pos[ent.res]) != j {
			t.Fatalf("pos[%d] = %d, entry sits at %d", ent.res, x.pos[ent.res], j)
		}
		if want := e.rankKey(int(ent.res)); ent.key != want {
			t.Fatalf("resource %d carries stale key %+v, want %+v", ent.res, ent.key, want)
		}
		if j > 0 && ent.before(&x.heap[(j-1)/2]) {
			t.Fatalf("heap order broken at slot %d", j)
		}
	}
}

// propWorld drives one engine through random operations.
type propWorld struct {
	t         *testing.T
	e         *Engine
	ref       refRank
	r         *rand.Rand
	exhaust   map[string]bool // resources whose next simulated post fails
	promoted  []int           // reference promotion queue, oldest first
	parked    map[int]bool    // promoted, passed over while ineligible: re-queued on resume
	taskOwner []int           // outstanding manual tasks (resource indices)
}

func (w *propWorld) randomResource() int { return w.r.Intn(len(w.e.resources)) }

func (w *propWorld) tags() []string {
	n := 1 + w.r.Intn(3)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", w.r.Intn(6))
	}
	return out
}

// expectPromoted pops the reference promotion queue the way the engine
// should: the oldest promoted resource that can take a task. A promoted
// resource passed over while stopped keeps its promotion and queues again,
// at the back, when it is resumed.
func (w *propWorld) expectPromoted() (int, bool) {
	for len(w.promoted) > 0 {
		i := w.promoted[0]
		w.promoted = w.promoted[1:]
		if w.e.eligible(i) {
			return i, true
		}
		w.parked[i] = true
	}
	return 0, false
}

// assign is ChooseNext checked against the reference.
func (w *propWorld) assign() {
	e, t := w.e, w.t
	canSpend := e.budget-e.spent > 0
	var want []int // acceptable picks
	if canSpend {
		w.ref.advance(e)
		if i, ok := w.expectPromoted(); ok {
			want = []int{i}
		} else if order := w.ref.sorted(e); len(order) > 0 {
			if w.ref.kind == "" {
				want = order // sampling strategy: any eligible resource
			} else {
				for _, i := range order {
					if w.ref.before(e, order[0], i) {
						break
					}
					want = append(want, i)
				}
			}
		}
	}
	id, _, ok := e.ChooseNext()
	if ok != (len(want) > 0) {
		t.Fatalf("ChooseNext ok=%v, reference expects %d candidates", ok, len(want))
	}
	if !ok {
		return
	}
	got := e.index[id]
	if !slices.Contains(want, got) {
		t.Fatalf("%s picked resource %d (posts %d), outside the top tie class %v",
			e.strategy.Name(), got, w.ref.posts(e, got)-1, want)
	}
	w.taskOwner = append(w.taskOwner, got)
}

// step is one simulated Algorithm-1 iteration checked against the
// reference: promoted resources first, then a prefix of the reference order
// up to ties.
func (w *propWorld) step() {
	e, t := w.e, w.t
	remaining := e.budget - e.spent
	if remaining <= 0 {
		return
	}
	batch := min(e.cfg.Batch, remaining)
	w.ref.advance(e)
	var wantPromoted []int
	for len(wantPromoted) < batch {
		i, ok := w.expectPromoted()
		if !ok {
			break
		}
		wantPromoted = append(wantPromoted, i)
	}
	// Tie classes of the reference order, numbered from the front, read
	// before the step moves any counter.
	class := map[int]int{}
	var order []int
	for _, i := range w.ref.sorted(e) {
		if slices.Contains(wantPromoted, i) {
			continue
		}
		c := 0
		if len(order) > 0 {
			last := order[len(order)-1]
			c = class[last]
			if w.ref.before(e, last, i) {
				c++
			}
		}
		class[i] = c
		order = append(order, i)
	}
	alloc := slices.Clone(e.alloc)
	wasExhausted := slices.Clone(e.exhausted)
	if _, err := e.StepOnce(); err != nil {
		t.Fatal(err)
	}
	var chosen []int
	for i := range e.resources {
		if e.alloc[i] > alloc[i] || (e.exhausted[i] && !wasExhausted[i]) {
			chosen = append(chosen, i)
		}
	}
	for _, i := range wantPromoted {
		if !slices.Contains(chosen, i) {
			t.Fatalf("promoted resource %d not in the batch %v", i, chosen)
		}
	}
	if want := len(wantPromoted) + min(batch-len(wantPromoted), len(order)); len(chosen) != want {
		t.Fatalf("batch holds %d resources, want %d", len(chosen), want)
	}
	if w.ref.kind == "" {
		return
	}
	// No resource left out may rank strictly before one that was taken.
	worstTaken, bestLeft := -1, len(order)
	for _, i := range order {
		if slices.Contains(chosen, i) {
			worstTaken = max(worstTaken, class[i])
		} else {
			bestLeft = min(bestLeft, class[i])
		}
	}
	if worstTaken > bestLeft {
		t.Fatalf("%s batch %v reaches tie class %d but leaves out class %d", e.strategy.Name(), chosen, worstTaken, bestLeft)
	}
}

func (w *propWorld) op() {
	e, t := w.e, w.t
	switch p := w.r.Intn(100); {
	case p < 30:
		w.assign()
	case p < 50: // submit an outstanding task
		if len(w.taskOwner) == 0 {
			return
		}
		k := w.r.Intn(len(w.taskOwner))
		i := w.taskOwner[k]
		w.taskOwner = append(w.taskOwner[:k], w.taskOwner[k+1:]...)
		if err := e.SubmitPost(e.resources[i].ID, "tagger", w.tags()); err != nil {
			t.Fatal(err)
		}
	case p < 58: // cancel an outstanding task
		if len(w.taskOwner) == 0 {
			return
		}
		k := w.r.Intn(len(w.taskOwner))
		i := w.taskOwner[k]
		w.taskOwner = append(w.taskOwner[:k], w.taskOwner[k+1:]...)
		if err := e.CancelPending(e.resources[i].ID); err != nil {
			t.Fatal(err)
		}
	case p < 66:
		if err := e.StopResource(e.resources[w.randomResource()].ID); err != nil {
			t.Fatal(err)
		}
	case p < 76:
		i := w.randomResource()
		if err := e.ResumeResource(e.resources[i].ID); err != nil {
			t.Fatal(err)
		}
		if w.parked[i] && !e.exhausted[i] {
			delete(w.parked, i)
			w.promoted = append(w.promoted, i)
		}
	case p < 82:
		i := w.randomResource()
		if err := e.Promote(e.resources[i].ID); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(w.promoted, i) && !w.parked[i] {
			w.promoted = append(w.promoted, i)
		}
	case p < 85: // the next simulated post on this resource exhausts it
		w.exhaust[e.resources[w.randomResource()].ID] = true
	case p < 92:
		w.step()
	case p < 96:
		if err := e.AddBudget(1 + w.r.Intn(20)); err != nil {
			t.Fatal(err)
		}
	default:
		w.switchStrategy()
	}
}

func (w *propWorld) switchStrategy() {
	switch w.r.Intn(5) {
	case 0:
		w.e.SwitchStrategy(strategy.FewestPosts{})
		w.ref = refRank{kind: "fp"}
	case 1:
		w.e.SwitchStrategy(strategy.MostUnstable{})
		w.ref = refRank{kind: "mu"}
	case 2:
		k0 := 1 + w.r.Intn(4)
		w.e.SwitchStrategy(&strategy.FPMU{MinPostsTarget: k0})
		w.ref = refRank{kind: "fp-mu", k0: k0}
	case 3:
		w.e.SwitchStrategy(strategy.Random{})
		w.ref = refRank{}
	case 4:
		w.e.SwitchStrategy(&strategy.RoundRobin{})
		w.ref = refRank{}
	}
}

// TestRankIndexMatchesFullScan is the index's property test: after every
// operation of a random sequence the heap invariants hold, and every pick
// lies in the top tie class a full scan with the old ordering computes.
func TestRankIndexMatchesFullScan(t *testing.T) {
	for _, n := range []int{1, 2, 17, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				w := &propWorld{t: t, r: rng.New(seed*1000 + int64(n)), exhaust: map[string]bool{}, parked: map[int]bool{}}
				resources := make([]dataset.Resource, n)
				for i := range resources {
					resources[i] = dataset.Resource{ID: fmt.Sprintf("r%04d", i), Popularity: 1}
				}
				plat, err := crowd.NewSim(crowd.SimConfig{
					Workers: SyntheticWorkerIDs(4), MeanLatency: 1, Seed: seed,
					Post: func(_, resourceID string) ([]string, error) {
						if w.exhaust[resourceID] {
							return nil, ErrResourceExhausted
						}
						return w.tags(), nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				k0 := 2
				w.e, err = New(Config{
					Resources: resources, Strategy: &strategy.FPMU{MinPostsTarget: k0},
					Budget: 40 + n, Batch: 5, Platform: plat, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				w.ref = refRank{kind: "fp-mu", k0: k0}
				checkRank(t, w.e)
				ops := 1500
				if n == 400 {
					ops = 4000
				}
				for step := 0; step < ops; step++ {
					w.op()
					checkRank(t, w.e)
				}
			})
		}
	}
}

// fairnessLevels drives an engine over tied resources level by level — every
// resource gets one identical post per level, so each level starts from a
// full tie — and χ²-tests that the order within a level is a uniformly
// random permutation.
func fairnessLevels(t *testing.T, s strategy.Strategy) {
	const n, levels = 4, 10000
	resources := make([]dataset.Resource, n)
	seed := map[string][][]string{}
	for i := range resources {
		resources[i] = dataset.Resource{ID: fmt.Sprintf("r%d", i), Popularity: 1}
		seed[resources[i].ID] = [][]string{{"a", "b"}, {"a", "b"}}
	}
	h := newHarness(t, 1, 2, 0)
	e := h.engine(t, Config{Resources: resources, SeedPosts: seed, Strategy: s, Budget: n * levels, Seed: 31})
	perms := map[[n]int]int{}
	for level := 0; level < levels; level++ {
		var perm [n]int
		seen := [n]bool{}
		for k := 0; k < n; k++ {
			id, _, ok := e.ChooseNext()
			if !ok {
				t.Fatal("budget ran out")
			}
			i := e.index[id]
			if seen[i] {
				t.Fatalf("level %d: resource %d picked twice before its peers", level, i)
			}
			seen[i] = true
			perm[k] = i
			if err := e.SubmitPost(id, "tagger", []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
		}
		perms[perm]++
	}
	// 4! = 24 cells, 23 degrees of freedom: χ² > 49.7 has p < 0.001.
	const cells = 24
	expected := float64(levels) / cells
	chi2 := 0.0
	for _, c := range perms {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	chi2 += float64(cells-len(perms)) * expected // permutations never seen
	if chi2 > 49.7 {
		t.Errorf("%s: tie-break order not uniform over %d picks: chi2 = %.1f (23 dof), %d/24 permutations seen",
			s.Name(), n*levels, chi2, len(perms))
	}
}

func TestChooseNextTieBreakIsFairFP(t *testing.T) { fairnessLevels(t, strategy.FewestPosts{}) }

// The MU twin keeps every resource below the evidence threshold, so all are
// maximally unstable and MU's order falls to its fewer-posts tie-break.
// (With evidence, rounding in the similarity makes equal histories differ in
// the last bit, and no two resources tie.)
func TestChooseNextTieBreakIsFairMU(t *testing.T) {
	fairnessLevels(t, strategy.MostUnstable{MinPosts: 1 << 30})
}

// TestFPMUFlipsWhenLastResourceReachesK0 pins the K0 trigger on the index
// path: the hybrid leaves FP at the first choice made after every eligible
// resource holds K0 posts — whether the straggler got there by being posted
// to or by being stopped.
func TestFPMUFlipsWhenLastResourceReachesK0(t *testing.T) {
	const n, k0 = 5, 3
	build := func() (*Engine, *strategy.FPMU) {
		resources := make([]dataset.Resource, n)
		for i := range resources {
			resources[i] = dataset.Resource{ID: fmt.Sprintf("r%d", i), Popularity: 1}
		}
		s := &strategy.FPMU{MinPostsTarget: k0}
		h := newHarness(t, 1, 2, 0)
		return h.engine(t, Config{Resources: resources, Strategy: s, Budget: 100, Seed: 5}), s
	}
	post := func(e *Engine) {
		id, _, ok := e.ChooseNext()
		if !ok {
			t.Fatal("no task")
		}
		if err := e.SubmitPost(id, "tagger", []string{"x", "y"}); err != nil {
			t.Fatal(err)
		}
	}

	e, s := build()
	for k := 0; k < n*k0; k++ {
		post(e)
		if s.Phase() != "fp" {
			t.Fatalf("switched after %d posts; resources still below K0: %v", k+1, e.Posts())
		}
	}
	post(e) // first choice with every resource at K0
	if s.Phase() != "mu" {
		t.Fatalf("still in FP with posts %v", e.Posts())
	}

	e, s = build()
	for k := 0; k < n*k0-1; k++ {
		post(e)
	}
	posts := e.Posts()
	straggler := slices.Index(posts, k0-1)
	if straggler < 0 || s.Phase() != "fp" {
		t.Fatalf("expected one straggler below K0 in FP phase, posts %v phase %s", posts, s.Phase())
	}
	if err := e.StopResource(e.resources[straggler].ID); err != nil {
		t.Fatal(err)
	}
	id, _, ok := e.ChooseNext()
	if !ok || s.Phase() != "mu" {
		t.Fatalf("stopping the straggler must flip the next choice to MU (ok=%v phase=%s)", ok, s.Phase())
	}
	if e.index[id] == straggler {
		t.Fatal("stopped straggler was chosen")
	}
	checkRank(t, e)
}

// TestFPMUBudgetFractionOnIndexPath checks that picks made off the rank
// index still count toward FP-MU's budget-fraction trigger.
func TestFPMUBudgetFractionOnIndexPath(t *testing.T) {
	h := newHarness(t, 6, 2, 0)
	s := &strategy.FPMU{SwitchFraction: 0.5, TotalBudget: 10}
	e := h.engine(t, Config{Strategy: s, Budget: 10, Seed: 9})
	for k := 1; k <= 6; k++ {
		if _, _, ok := e.ChooseNext(); !ok {
			t.Fatal("no task")
		}
		// The trigger is read before each choice: it sees k-1 picks.
		if want := k-1 >= 5; (s.Phase() == "mu") != want {
			t.Fatalf("after %d picks phase = %s", k, s.Phase())
		}
	}
}
