package capacity

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for: %s", msg)
}

// TestPoolRunsEverything: every submitted task runs exactly once.
func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(PoolConfig{Min: 0, Max: 4, Idle: 50 * time.Millisecond})
	defer p.Close()
	const n = 500
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := p.Submit(func(context.Context) {
			ran.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	if ran.Load() != n {
		t.Errorf("ran %d tasks, want %d", ran.Load(), n)
	}
	// A worker counts a task after it returns, so wg.Wait can beat the last
	// count.
	waitFor(t, time.Second, func() bool { return p.Stats().Completed == n }, "completed counter = 500")
}

// TestPoolScaleToZeroAndBack is the race test the ISSUE calls for: with
// Min 0, workers must all exit after the idle timeout (scale to zero),
// and a subsequent burst must be admitted and served without any
// restart. Run under -race this also shakes out unsynchronised state in
// the spawn/retire paths.
func TestPoolScaleToZeroAndBack(t *testing.T) {
	p := NewPool(PoolConfig{Min: 0, Max: 8, Idle: 20 * time.Millisecond})
	defer p.Close()

	burst := func(n int) {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			if err := p.Submit(func(context.Context) {
				time.Sleep(time.Millisecond)
				wg.Done()
			}); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		wg.Wait()
	}

	burst(64)
	if st := p.Stats(); st.ScaleUps == 0 {
		t.Error("burst did not scale the pool up")
	}
	// Scale to zero: all workers exit once idle.
	waitFor(t, 2*time.Second, func() bool { return p.Stats().Workers == 0 },
		"workers to drain to zero after idle timeout")

	// Re-admission after zero: the next burst must spawn fresh workers.
	before := p.Stats().ScaleUps
	burst(64)
	if st := p.Stats(); st.ScaleUps <= before {
		t.Error("post-zero burst did not spawn new workers")
	}
	if got := p.Stats().Completed; got != 128 {
		t.Errorf("completed = %d, want 128", got)
	}
}

// TestPoolConcurrentSubmitAndScale races submitters against the idle
// reaper — the -race companion to the scale-to-zero test.
func TestPoolConcurrentSubmitAndScale(t *testing.T) {
	p := NewPool(PoolConfig{Min: 0, Max: 8, Idle: time.Millisecond})
	defer p.Close()

	const submitters, each = 8, 200
	var done sync.WaitGroup
	var ran atomic.Int64
	done.Add(submitters * each)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := p.Submit(func(context.Context) {
					ran.Add(1)
					done.Done()
				}); err != nil {
					t.Errorf("submit: %v", err)
					done.Done()
				}
				if i%50 == 0 {
					time.Sleep(time.Millisecond) // let the reaper bite mid-stream
				}
			}
		}()
	}
	wg.Wait()
	done.Wait()
	if ran.Load() != submitters*each {
		t.Errorf("ran %d, want %d", ran.Load(), submitters*each)
	}
	if st := p.Stats(); st.Workers > st.Limit {
		t.Errorf("%d workers over a ceiling of %d", st.Workers, st.Limit)
	}
	// Idle workers retire on their idle timer (1ms here), not at once.
	waitFor(t, 2*time.Second, func() bool { return p.Stats().Workers == 0 },
		"idle workers to retire")
}

// TestPoolMinFloorHolds: with Min > 0 the pool never reaps below the
// floor, so latecomer tasks find a warm worker.
func TestPoolMinFloorHolds(t *testing.T) {
	p := NewPool(PoolConfig{Min: 2, Max: 4, Idle: 10 * time.Millisecond})
	defer p.Close()
	if st := p.Stats(); st.Workers != 2 {
		t.Fatalf("eager floor: workers = %d, want 2", st.Workers)
	}
	time.Sleep(100 * time.Millisecond) // many idle periods
	if st := p.Stats(); st.Workers != 2 {
		t.Errorf("floor violated: workers = %d after idling, want 2", st.Workers)
	}
}

// TestPoolClose: Submit after Close errors, running tasks see the
// cancelled context, and Close returns only when workers exited.
func TestPoolClose(t *testing.T) {
	p := NewPool(PoolConfig{Min: 0, Max: 2, Idle: time.Second})
	started := make(chan struct{})
	canceled := make(chan struct{})
	if err := p.Submit(func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		close(canceled)
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	p.Close()
	select {
	case <-canceled:
	default:
		t.Error("Close returned before the running task observed cancellation")
	}
	if err := p.Submit(func(context.Context) {}); err != ErrPoolClosed {
		t.Errorf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	if st := p.Stats(); st.Workers != 0 {
		t.Errorf("workers = %d after Close, want 0", st.Workers)
	}
}
