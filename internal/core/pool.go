package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file implements the worker-pool task-assignment pipeline: instead of
// driving one project's Algorithm-1 loop to completion before the next
// (Engine.Run back to back), a Pool interleaves single StepOnce iterations
// of many projects across a bounded set of workers. Each step publishes one
// batch of tasks to the project's crowd platform, drives the platform until
// the batch completes, and folds results back into the model — so a fleet
// of simulated taggers makes progress on every live project concurrently.
// Their store traffic meets in one DB: reads take no lock and concurrent
// commits coalesce into its group-commit batches.

// Pool drives many engines with a bounded set of step workers.
//
// Concurrency invariants:
//   - at most one worker steps a given engine at a time (an engine is
//     either queued or owned by exactly one worker, never both);
//   - engines touched by the same pool may share Users managers and
//     Catalogs, which are themselves concurrency-safe;
//   - a step failure retires only that engine; the rest keep running.
type Pool struct {
	// Workers is the number of concurrent step workers (default 8, capped
	// at the number of engines).
	Workers int
}

// DefaultPoolWorkers is the Pool.Run worker count when unset.
const DefaultPoolWorkers = 8

// Run drives every engine to completion and returns a slice parallel to
// engines holding each run's error (nil on success).
func (p Pool) Run(engines []*Engine) []error {
	return p.RunContext(context.Background(), engines)
}

// RunContext is Run under a context: when ctx is cancelled, every engine
// still in flight retires with ctx's error instead of running to
// completion (engines observe the context inside StepContext too, so a
// cancellation interrupts even a long platform wait).
//
// The workers pull engine indices from one queue. A worker steps the
// engine once and sends its index back unless the engine retired, which
// is the at-most-one-owner invariant. The queue holds every index at
// once, so sending one back never blocks.
func (p Pool) RunContext(ctx context.Context, engines []*Engine) []error {
	n := len(engines)
	errList := make([]error, n)
	if n == 0 {
		return errList
	}
	workers := p.Workers
	if workers <= 0 {
		workers = DefaultPoolWorkers
	}
	queue := make(chan int, n)
	for i := range engines {
		queue <- i
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				done, err := engines[i].StepContext(ctx)
				if err == nil && !done {
					queue <- i
					continue
				}
				errList[i] = err
				// The last engine retired: no index is left to send back.
				if remaining.Add(-1) == 0 {
					close(queue)
				}
			}
		}()
	}
	wg.Wait()
	return errList
}

// RunEngines is the convenience form of Pool.Run.
func RunEngines(engines []*Engine, workers int) []error {
	return Pool{Workers: workers}.Run(engines)
}
