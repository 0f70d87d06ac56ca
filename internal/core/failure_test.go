package core

import (
	"errors"
	"testing"

	"itag/internal/crowd"
	"itag/internal/strategy"
)

// Failure-injection tests: the engine must finish correct runs under
// platform abandonment, flaky post sources, and mid-run worker
// disqualification.

func TestRunSurvivesAbandonment(t *testing.T) {
	h := newHarness(t, 10, 8, 0)
	plat, err := crowd.NewSim(crowd.SimConfig{
		Workers:     WorkerIDs(h.pop),
		Post:        GenerativeSource(h.sim, h.pop, 30),
		MeanLatency: 2,
		AbandonProb: 0.3, // 30% of assignments walk away
		Seed:        30,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := h.engine(t, Config{Budget: 80, Batch: 8, Platform: plat, Seed: 30})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 80 {
		t.Errorf("spent = %d; abandoned tasks must requeue and complete", e.Spent())
	}
	if plat.Stats().Abandoned == 0 {
		t.Error("expected some abandonment with p=0.3")
	}
}

func TestRunSurvivesFlakyPostSource(t *testing.T) {
	// The source fails on one specific resource only; the engine must mark
	// it exhausted, refund, and finish the rest of the budget.
	h := newHarness(t, 5, 5, 0)
	inner := GenerativeSource(h.sim, h.pop, 31)
	flaky := func(workerID, resourceID string) ([]string, error) {
		if resourceID == "r0002" {
			return nil, errors.New("worker crashed")
		}
		return inner(workerID, resourceID)
	}
	plat, err := crowd.NewSim(crowd.SimConfig{
		Workers: WorkerIDs(h.pop), Post: flaky, MeanLatency: 1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := h.engine(t, Config{Budget: 40, Batch: 5, Platform: plat, Strategy: &strategy.RoundRobin{}, Seed: 31})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 40 {
		t.Errorf("spent = %d; failed tasks must be refunded and respent elsewhere", e.Spent())
	}
	if e.Allocation()[2] != 0 {
		t.Errorf("failed resource kept allocation %d", e.Allocation()[2])
	}
	if e.Posts()[2] != 0 {
		t.Errorf("failed resource has %d posts", e.Posts()[2])
	}
	exhausted := false
	for _, ev := range e.Monitor().Events() {
		if ev.Kind == "exhausted" {
			exhausted = true
		}
	}
	if !exhausted {
		t.Error("exhaustion event not recorded")
	}
}

func TestMidRunDisqualificationShiftsWork(t *testing.T) {
	// The judge rejects every post of one worker; once its reviews reach
	// the qualification minimum the platform stops assigning it, and the
	// run still finishes on the others.
	h := newHarness(t, 8, 4, 0)
	banned := h.pop.Profiles[0].ID
	byWorker := make(map[string]int)
	inner := GenerativeSource(h.sim, h.pop, 32)
	counting := func(workerID, resourceID string) ([]string, error) {
		byWorker[workerID]++ // platform Step serializes calls
		return inner(workerID, resourceID)
	}
	plat, err := crowd.NewSim(crowd.SimConfig{
		Workers:     WorkerIDs(h.pop),
		Post:        counting,
		MeanLatency: 1,
		Seed:        32,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := h.engine(t, Config{
		Budget: 60, Batch: 6, Platform: plat, Seed: 32,
		Judge: func(res crowd.Result) bool { return res.WorkerID != banned },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 60 {
		t.Errorf("spent = %d", e.Spent())
	}
	// A result is reviewed before the next step assigns work, so the
	// worker completes exactly the tasks that disqualify it.
	if got := byWorker[banned]; got != crowd.MinReviews {
		t.Errorf("rejected worker completed %d tasks, want %d", got, crowd.MinReviews)
	}
}

func TestApprovalQualificationEndToEnd(t *testing.T) {
	// Unreliable taggers get rejected by the judge, fall below the gate,
	// and stop receiving work — their approval rates must reflect it.
	h := newHarness(t, 10, 10, 0.4)
	reviews := logReviews(h.platform(t, 33))
	e := h.engine(t, Config{
		Budget: 200, Batch: 10, Platform: reviews, Seed: 33,
		Judge: LatentOverlapJudge(h.world, 0.5), PayPerTask: 0.01,
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Spent() != 200 {
		t.Fatalf("spent = %d", e.Spent())
	}
	// Reliable taggers must end with clearly better approval rates than
	// unreliable ones (population: first 40% unreliable).
	var relSum, unrelSum float64
	var relN, unrelN int
	for i, p := range h.pop.Profiles {
		rate := reviews.rate(p.ID)
		if i < 4 {
			unrelSum += rate
			unrelN++
		} else {
			relSum += rate
			relN++
		}
	}
	if relSum/float64(relN) <= unrelSum/float64(unrelN) {
		t.Errorf("reliable rate %.3f should exceed unreliable %.3f",
			relSum/float64(relN), unrelSum/float64(unrelN))
	}
}
