package core

import (
	"math"
	"testing"

	"itag/internal/strategy"
)

func TestChooseNextDebitsBudget(t *testing.T) {
	h := newHarness(t, 4, 5, 0)
	e := h.engine(t, Config{Budget: 3, Strategy: strategy.FewestPosts{}, Seed: 20})
	seen := make(map[string]int)
	for i := 0; i < 3; i++ {
		id, _, ok := e.ChooseNext()
		if !ok {
			t.Fatalf("choose %d failed", i)
		}
		seen[id]++
	}
	if _, _, ok := e.ChooseNext(); ok {
		t.Error("budget exhausted: ChooseNext must refuse")
	}
	if e.Spent() != 3 {
		t.Errorf("spent = %d", e.Spent())
	}
	// FP must have chosen three distinct zero-post resources.
	if len(seen) != 3 {
		t.Errorf("FP manual choices not distinct: %v", seen)
	}
}

// TestChooseNextFreeChoiceOverflowKeepsLeasing: under FC with theta = 1e308
// a posted resource's weight (posts+1)^theta overflows to +Inf. The project
// must still lease every task its budget pays for, not report the budget
// exhausted after the first post.
func TestChooseNextFreeChoiceOverflowKeepsLeasing(t *testing.T) {
	h := newHarness(t, 4, 5, 0)
	e := h.engine(t, Config{Budget: 10, Strategy: strategy.FreeChoice{Theta: 1e308}, Seed: 25})
	for i := 0; i < 10; i++ {
		id, _, ok := e.ChooseNext()
		if !ok {
			t.Fatalf("lease %d refused with %d of 10 tasks spent", i, e.Spent())
		}
		if err := e.SubmitPost(id, "tagger-1", []string{"go", "db"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := e.ChooseNext(); ok {
		t.Error("budget exhausted: ChooseNext must refuse")
	}
	if e.Spent() != 10 {
		t.Errorf("spent = %d, want 10", e.Spent())
	}
}

func TestChooseNextSeesPendingAsPosts(t *testing.T) {
	// With FP and pending counted, repeated ChooseNext without submits must
	// rotate across resources instead of hammering one.
	h := newHarness(t, 3, 5, 0)
	e := h.engine(t, Config{Budget: 3, Strategy: strategy.FewestPosts{}, Seed: 21})
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		id, _, ok := e.ChooseNext()
		if !ok {
			t.Fatal("choose failed")
		}
		ids[id] = true
	}
	if len(ids) != 3 {
		t.Errorf("pending tasks not visible to strategy: %v", ids)
	}
}

func TestSubmitPostCompletesTask(t *testing.T) {
	h := newHarness(t, 3, 5, 0)
	e := h.engine(t, Config{Budget: 2, Strategy: strategy.FewestPosts{}, Seed: 22})
	id, _, ok := e.ChooseNext()
	if !ok {
		t.Fatal("choose failed")
	}
	if e.PendingTasks() != 1 {
		t.Errorf("pending = %d", e.PendingTasks())
	}
	if err := e.SubmitPost(id, "tagger-1", []string{"go", "db"}); err != nil {
		t.Fatal(err)
	}
	if e.PendingTasks() != 0 {
		t.Errorf("pending after submit = %d", e.PendingTasks())
	}
	st, _ := e.Status(id)
	if st.Posts != 1 {
		t.Errorf("posts = %d", st.Posts)
	}
	// Submitting again without an outstanding task must fail.
	if err := e.SubmitPost(id, "tagger-1", []string{"x"}); err == nil {
		t.Error("submit without pending task must fail")
	}
	if err := e.SubmitPost("ghost", "tagger-1", []string{"x"}); err == nil {
		t.Error("unknown resource must fail")
	}
}

func TestSubmitPostRejectsEmptyTagsKeepsPending(t *testing.T) {
	h := newHarness(t, 2, 5, 0)
	e := h.engine(t, Config{Budget: 1, Strategy: strategy.FewestPosts{}, Seed: 23})
	id, _, _ := e.ChooseNext()
	if err := e.SubmitPost(id, "t", nil); err == nil {
		t.Fatal("empty post must fail")
	}
	if e.PendingTasks() != 1 {
		t.Error("failed submit must keep the task pending")
	}
	if err := e.SubmitPost(id, "t", []string{"fixed"}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelPendingRefunds(t *testing.T) {
	h := newHarness(t, 2, 5, 0)
	e := h.engine(t, Config{Budget: 1, Strategy: strategy.FewestPosts{}, Seed: 24})
	id, _, _ := e.ChooseNext()
	if _, _, ok := e.ChooseNext(); ok {
		t.Fatal("budget should be exhausted")
	}
	if err := e.CancelPending(id); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 0 {
		t.Errorf("spent after cancel = %d", e.Spent())
	}
	// The refunded task is choosable again (on either resource: both tie).
	again, _, ok := e.ChooseNext()
	if !ok {
		t.Fatal("refunded budget must be spendable")
	}
	if err := e.CancelPending(again); err != nil {
		t.Fatal(err)
	}
	if err := e.CancelPending("ghost"); err == nil {
		t.Error("unknown resource must fail")
	}
	if err := e.CancelPending(id); err == nil {
		t.Error("cancel without pending must fail")
	}
}

func TestChooseNextHonorsPromotion(t *testing.T) {
	h := newHarness(t, 5, 5, 0)
	e := h.engine(t, Config{Budget: 2, Strategy: strategy.FewestPosts{}, Seed: 26})
	// Load r0004 with posts so FP would pick it last; then promote it.
	for i := 0; i < 10; i++ {
		if err := e.trackers[4].AddPost([]string{"x"}); err != nil {
			t.Fatal(err)
		}
		e.posts[4]++
	}
	if err := e.Promote("r0004"); err != nil {
		t.Fatal(err)
	}
	id, _, ok := e.ChooseNext()
	if !ok || id != "r0004" {
		t.Errorf("promoted resource not chosen: %s", id)
	}
}

func TestMonitorDirect(t *testing.T) {
	m := NewMonitor()
	if s := m.Series("nope"); s != nil {
		t.Error("unknown series must be nil")
	}
	m.Record("q", 1, 0.5)
	m.Record("q", 2, 0.6)
	s := m.Series("q")
	if s == nil || s.Len() != 2 {
		t.Fatalf("series = %v", s)
	}
	if len(m.SeriesNames()) != 1 {
		t.Errorf("names = %v", m.SeriesNames())
	}
	m.Eventf(7, "test", "hello %d", 42)
	evs := m.Events()
	if len(evs) != 1 || evs[0].Kind != "test" || evs[0].Detail != "hello 42" || evs[0].Spent != 7 {
		t.Errorf("events = %+v", evs)
	}
	// Events() must return a copy.
	evs[0].Kind = "mutated"
	if m.Events()[0].Kind == "mutated" {
		t.Error("Events must copy")
	}
}

func TestEngineRunDeterministic(t *testing.T) {
	run := func() ([]int, float64) {
		h := newHarness(t, 8, 6, 0.2)
		e := h.engine(t, Config{Budget: 80, Batch: 8, Strategy: strategy.MostUnstable{}, Seed: 27})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Allocation(), e.MeanOracle()
	}
	a1, q1 := run()
	a2, q2 := run()
	if math.Abs(q1-q2) > 1e-9 { // float map-iteration rounding only
		t.Fatalf("quality differs across identical runs: %v vs %v", q1, q2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("allocation differs at %d", i)
		}
	}
}
