package crowd

import (
	"errors"
	"fmt"
	"sync"
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

// reject records n rejections of the worker's work.
func reject(s *Sim, workerID string, n int) {
	for i := 0; i < n; i++ {
		s.Review(workerID, false)
	}
}

func TestQualificationGate(t *testing.T) {
	s, err := NewSim(SimConfig{Workers: workers(3), Post: echoPost, MeanLatency: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reject(s, "w0", MinReviews)
	reject(s, "w1", MinReviews)
	for i := 0; i < 6; i++ {
		_ = s.Publish(Task{ID: fmt.Sprintf("t%d", i), ResourceID: "r"})
	}
	results := runUntil(t, s, 6, 200)
	for _, res := range results {
		if res.WorkerID != "w2" {
			t.Errorf("disqualified worker %s completed a task", res.WorkerID)
		}
	}
}

// TestReviewRule pins the qualification rule on one worker's record: every
// case publishes one task and asks whether the worker is assigned it.
func TestReviewRule(t *testing.T) {
	cases := []struct {
		name               string
		approved, rejected int
		want               bool
	}{
		{"unreviewed", 0, 0, true},
		{"seven rejections", 0, MinReviews - 1, true},
		{"eighth rejection", 0, MinReviews, false},
		{"exactly the minimum rate", 6, 4, true},
		{"below the minimum rate", 5, 4, false},
		{"half approved", MinReviews, MinReviews, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSim(SimConfig{Workers: workers(1), Post: echoPost, MeanLatency: 1, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.approved; i++ {
				s.Review("w0", true)
			}
			reject(s, "w0", tc.rejected)
			if got := assigns(s); got != tc.want {
				t.Errorf("%d approved, %d rejected: assigned = %v, want %v", tc.approved, tc.rejected, got, tc.want)
			}
		})
	}
}

// TestEighthRejectionStopsAssignment: a worker keeps taking tasks through
// its seventh rejection and takes none after its eighth.
func TestEighthRejectionStopsAssignment(t *testing.T) {
	s, err := NewSim(SimConfig{Workers: workers(1), Post: echoPost, MeanLatency: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < MinReviews; i++ {
		if !assigns(s) {
			t.Fatalf("worker refused after %d rejections", i-1)
		}
		reject(s, "w0", 1)
	}
	if !assigns(s) {
		t.Fatalf("worker refused after %d rejections", MinReviews-1)
	}
	reject(s, "w0", 1)
	if assigns(s) {
		t.Fatalf("worker still assigned after %d rejections", MinReviews)
	}
}

func TestSimsDoNotShareReviews(t *testing.T) {
	a, err := NewSim(SimConfig{Workers: workers(1), Post: echoPost, MeanLatency: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSim(SimConfig{Workers: workers(1), Post: echoPost, MeanLatency: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	reject(a, "w0", MinReviews)
	if assigns(a) {
		t.Error("w0 assigned on the platform that rejected it")
	}
	if !assigns(b) {
		t.Error("w0 refused on a platform that never reviewed it")
	}
}

// assigns publishes one task and reports whether a worker completed it
// within a few steps.
func assigns(s *Sim) bool {
	s.Collect(0)
	_ = s.Publish(Task{ID: "probe", ResourceID: "r"})
	for step := 0; step < 10; step++ {
		s.Step()
		if len(s.Collect(0)) > 0 {
			return true
		}
	}
	return false
}

// TestConcurrentReviews: reviews sent while the platform steps are all
// counted.
func TestConcurrentReviews(t *testing.T) {
	s, err := NewSim(SimConfig{Workers: workers(2), Post: echoPost, MeanLatency: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Review("w0", i%2 == 0)
				_ = s.Publish(Task{ID: fmt.Sprintf("t%d-%d", g, i), ResourceID: "r"})
				s.Step()
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.reviews["w0"]; rec.reviews != 4000 || rec.approved != 2000 {
		t.Errorf("w0's record = %+v, want 4000 reviews, 2000 approved", rec)
	}
}

func TestAllWorkersDisqualifiedStarves(t *testing.T) {
	s, err := NewSim(SimConfig{Workers: workers(2), Post: echoPost, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reject(s, "w0", MinReviews)
	reject(s, "w1", MinReviews)
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
	m, err := NewMTurkSim(workers(2), echoPost, 1)
	if err != nil || m.Name() != "mturk-sim" {
		t.Errorf("mturk preset: %v %v", m, err)
	}
	soc, err := NewSocialSim(workers(2), echoPost, 1)
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
