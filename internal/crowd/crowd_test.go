package crowd

import (
	"errors"
	"fmt"
	"testing"
)

func echoPost(workerID, resourceID string) ([]string, error) {
	return []string{"tag-" + resourceID, "by-" + workerID}, nil
}

func workers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%d", i)
	}
	return out
}

func runUntil(t *testing.T, s *Sim, want int, maxSteps int) []Result {
	t.Helper()
	var out []Result
	for step := 0; step < maxSteps && len(out) < want; step++ {
		s.Step()
		out = append(out, s.Collect(0)...)
	}
	if len(out) < want {
		t.Fatalf("only %d/%d results after %d steps (pending=%d)", len(out), want, maxSteps, s.Pending())
	}
	return out
}

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(SimConfig{Post: echoPost}); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("no workers: %v", err)
	}
	if _, err := NewSim(SimConfig{Workers: workers(1)}); err == nil {
		t.Error("missing PostFunc must fail")
	}
}

func TestPublishValidation(t *testing.T) {
	s, err := NewSim(SimConfig{Workers: workers(1), Post: echoPost})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(Task{}); err == nil {
		t.Error("task without ID must fail")
	}
	if err := s.Publish(Task{ID: "t1"}); err == nil {
		t.Error("task without resource must fail")
	}
}

func TestTaskLifecycle(t *testing.T) {
	s, err := NewSim(SimConfig{Workers: workers(3), Post: echoPost, MeanLatency: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Publish(Task{ID: fmt.Sprintf("t%d", i), ProjectID: "p", ResourceID: "r1", Reward: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 5 {
		t.Errorf("pending = %d", s.Pending())
	}
	results := runUntil(t, s, 5, 100)
	if s.Pending() != 0 {
		t.Errorf("pending after completion = %d", s.Pending())
	}
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("unexpected error: %v", res.Err)
		}
		if len(res.Tags) != 2 || res.Tags[0] != "tag-r1" {
			t.Errorf("tags = %v", res.Tags)
		}
		if res.WorkerID == "" || res.Step == 0 {
			t.Errorf("result metadata missing: %+v", res)
		}
	}
	st := s.Stats()
	if st.Published != 5 || st.Completed != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWorkerCapacityLimitsParallelism(t *testing.T) {
	// 1 worker, latency 1: tasks must complete one per step.
	s, err := NewSim(SimConfig{Workers: workers(1), Post: echoPost, MeanLatency: 0.0001, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = s.Publish(Task{ID: fmt.Sprintf("t%d", i), ResourceID: "r"})
	}
	perStep := []int{}
	for step := 0; step < 10 && s.Pending() > 0; step++ {
		n := s.Step()
		perStep = append(perStep, n)
	}
	for _, n := range perStep {
		if n > 1 {
			t.Errorf("single worker completed %d tasks in one step", n)
		}
	}
}

func TestAbandonmentRequeues(t *testing.T) {
	s, err := NewSim(SimConfig{
		Workers: workers(2), Post: echoPost,
		MeanLatency: 1, AbandonProb: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_ = s.Publish(Task{ID: fmt.Sprintf("t%d", i), ResourceID: "r"})
	}
	results := runUntil(t, s, 10, 1000)
	if len(results) != 10 {
		t.Fatalf("all tasks must eventually complete, got %d", len(results))
	}
	if s.Stats().Abandoned == 0 {
		t.Error("with p=0.5 some abandonment expected")
	}
}

func TestQualificationGate(t *testing.T) {
	banned := map[string]bool{"w0": true, "w1": true}
	s, err := NewSim(SimConfig{
		Workers: workers(3), Post: echoPost, MeanLatency: 1, Seed: 4,
		Qualify: func(w string) bool { return !banned[w] },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		_ = s.Publish(Task{ID: fmt.Sprintf("t%d", i), ResourceID: "r"})
	}
	results := runUntil(t, s, 6, 200)
	for _, res := range results {
		if res.WorkerID != "w2" {
			t.Errorf("banned worker %s completed a task", res.WorkerID)
		}
	}
}

func TestAllWorkersDisqualifiedStarves(t *testing.T) {
	s, err := NewSim(SimConfig{
		Workers: workers(2), Post: echoPost, Seed: 5,
		Qualify: func(string) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Publish(Task{ID: "t1", ResourceID: "r"})
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if s.Pending() != 1 {
		t.Errorf("task should remain queued, pending=%d", s.Pending())
	}
	if s.Stats().Starved == 0 {
		t.Error("starvation must be counted")
	}
}

func TestPostFuncErrorSurfaces(t *testing.T) {
	wantErr := errors.New("replay exhausted")
	s, err := NewSim(SimConfig{
		Workers:     workers(1),
		Post:        func(w, r string) ([]string, error) { return nil, wantErr },
		MeanLatency: 1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Publish(Task{ID: "t1", ResourceID: "r"})
	results := runUntil(t, s, 1, 50)
	if !errors.Is(results[0].Err, wantErr) {
		t.Errorf("err = %v", results[0].Err)
	}
	if s.Stats().Failed != 1 {
		t.Errorf("failed = %d", s.Stats().Failed)
	}
}

func TestCollectMax(t *testing.T) {
	s, err := NewSim(SimConfig{Workers: workers(5), Post: echoPost, MeanLatency: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = s.Publish(Task{ID: fmt.Sprintf("t%d", i), ResourceID: "r"})
	}
	for step := 0; step < 100 && s.Pending() > 0; step++ {
		s.Step()
	}
	first := s.Collect(2)
	if len(first) != 2 {
		t.Fatalf("Collect(2) = %d", len(first))
	}
	rest := s.Collect(0)
	if len(rest) != 3 {
		t.Fatalf("Collect(0) after partial = %d", len(rest))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		s, err := NewSim(SimConfig{Workers: workers(4), Post: echoPost, MeanLatency: 2, AbandonProb: 0.1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			_ = s.Publish(Task{ID: fmt.Sprintf("t%d", i), ResourceID: fmt.Sprintf("r%d", i%3)})
		}
		var log []string
		for step := 0; step < 500 && s.Pending() > 0; step++ {
			s.Step()
			for _, res := range s.Collect(0) {
				log = append(log, res.Task.ID+"/"+res.WorkerID)
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestPlatformPresets(t *testing.T) {
	m, err := NewMTurkSim(workers(2), echoPost, nil, 1)
	if err != nil || m.Name() != "mturk-sim" {
		t.Errorf("mturk preset: %v %v", m, err)
	}
	soc, err := NewSocialSim(workers(2), echoPost, nil, 1)
	if err != nil || soc.Name() != "social-sim" {
		t.Errorf("social preset: %v %v", soc, err)
	}
}

func BenchmarkPlatformThroughput(b *testing.B) {
	s, err := NewSim(SimConfig{Workers: workers(50), Post: echoPost, MeanLatency: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Publish(Task{ID: fmt.Sprintf("t%d", i), ResourceID: "r"})
		s.Step()
		s.Collect(0)
	}
}
