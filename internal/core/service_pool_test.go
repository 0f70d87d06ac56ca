package core

import (
	"context"
	"testing"
	"time"

	"itag/internal/store"
)

// poolService builds a Service on the shared autoscaling step pool.
func poolService(t *testing.T) *Service {
	t.Helper()
	s := NewServiceWith(store.NewCatalog(store.OpenMemory()), 77, ServiceOptions{
		PoolMin: 0, PoolMax: 4, PoolIdle: 20 * time.Millisecond,
	})
	t.Cleanup(s.Close)
	return s
}

// TestServicePoolRunsSimulations: background runs on the shared pool
// complete with the same semantics as dedicated goroutines — the run
// finishes, the project lands in done state, and double-start is still
// rejected while stepping.
func TestServicePoolRunsSimulations(t *testing.T) {
	s := poolService(t)
	_, proj := createSimProject(t, s, 120)

	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.StartSimulation(context.Background(), proj); err == nil {
		t.Error("double start must fail")
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Catalog().GetProject(proj)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != store.ProjectDone {
		t.Errorf("status = %s, want done", rec.Status)
	}
	if st, ok := s.PoolStats(); !ok || st.Completed == 0 {
		t.Errorf("pool stats = %+v/%v, want completed steps", st, ok)
	}
}

// TestServicePoolScaleToZeroAndReadmit is the kill-the-load drill at the
// service level: after every run finishes, the pool reaps all workers
// (PoolMin 0); a later run is re-admitted on freshly spawned workers
// without any restart.
func TestServicePoolScaleToZeroAndReadmit(t *testing.T) {
	s := poolService(t)
	_, proj := createSimProject(t, s, 120)
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		st, _ := s.PoolStats()
		if st.Workers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not scale to zero: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Re-admission: a second project runs on a scaled-to-zero pool.
	_, proj2 := createSimProject(t, s, 120)
	upsBefore, _ := s.PoolStats()
	if err := s.StartSimulation(context.Background(), proj2); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitSimulation(context.Background(), proj2); err != nil {
		t.Fatal(err)
	}
	after, _ := s.PoolStats()
	if after.ScaleUps <= upsBefore.ScaleUps {
		t.Error("second run did not spawn fresh workers after scale-to-zero")
	}
}

// TestServicePoolCloseInterruptsRuns: Close cancels the lifetime context
// and tears the pool down without deadlocking mid-run.
func TestServicePoolCloseInterruptsRuns(t *testing.T) {
	s := NewServiceWith(store.NewCatalog(store.OpenMemory()), 77, ServiceOptions{
		PoolMax: 2, PoolIdle: 20 * time.Millisecond,
	})
	_, proj := createSimProject(t, s, 100000) // big budget: won't finish on its own
	if err := s.StartSimulation(context.Background(), proj); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with a run in flight")
	}
}
