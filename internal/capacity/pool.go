package capacity

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/errs"
)

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed error = errs.New(errs.ComponentCore, errs.CategoryCanceled, "worker pool is closed").WithCode("pool_closed")

// PoolConfig parameterises an autoscaling Pool.
type PoolConfig struct {
	// Min is the worker floor. 0 means the pool scales all the way to
	// zero goroutines when idle.
	Min int
	// Max is the worker ceiling (default 8, matching the old fixed pool).
	Max int
	// Idle is how long a worker above Min waits for work before exiting
	// (default 250ms).
	Idle time.Duration
	// Queue is the task buffer size (default 4·Max, min 64). Submit
	// blocks when the buffer is full — backpressure, not an error.
	Queue int
}

func (c *PoolConfig) fill() {
	if c.Max < 1 {
		c.Max = 8
	}
	if c.Min < 0 {
		c.Min = 0
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	if c.Idle <= 0 {
		c.Idle = 250 * time.Millisecond
	}
	if c.Queue < 1 {
		c.Queue = 4 * c.Max
		if c.Queue < 64 {
			c.Queue = 64
		}
	}
}

// Pool is an autoscaling worker pool: it spawns workers (up to Max) when
// submitted work outruns the idle workers, and workers above Min exit after
// sitting idle — with Min 0 the pool scales to zero goroutines between
// bursts.
type Pool struct {
	cfg PoolConfig

	tasks chan func(context.Context)
	ctx   context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup

	mu      sync.Mutex
	workers int
	closed  bool

	waiting    atomic.Int64 // workers parked in select
	busy       atomic.Int64 // workers currently running a task
	completed  atomic.Uint64
	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64
}

// PoolStats is a snapshot of the pool for metrics and tests.
type PoolStats struct {
	Workers    int    // live worker goroutines
	Busy       int    // workers currently running a task
	QueueDepth int    // tasks waiting in the buffer
	Limit      int    // worker ceiling (Max)
	Completed  uint64 // tasks finished since creation
	ScaleUps   uint64 // workers spawned
	ScaleDowns uint64 // workers retired by the idle timeout
}

// NewPool builds and starts an autoscaling pool. Min workers are spawned
// eagerly; the rest appear on demand.
func NewPool(cfg PoolConfig) *Pool {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:   cfg,
		tasks: make(chan func(context.Context), cfg.Queue),
		ctx:   ctx,
		stop:  cancel,
	}
	p.mu.Lock()
	for i := 0; i < cfg.Min; i++ {
		p.spawnLocked()
	}
	p.mu.Unlock()
	return p
}

// Submit enqueues a task and scales the pool up if no idle worker is
// around to take it. The task receives the pool's lifetime context,
// which is cancelled by Close; long tasks should observe it. Submit
// blocks when the queue buffer is full and returns ErrPoolClosed after
// Close.
func (p *Pool) Submit(task func(context.Context)) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.mu.Unlock()

	select {
	case p.tasks <- task:
	case <-p.ctx.Done():
		return ErrPoolClosed
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		// Close raced the enqueue; the drain loop in Close handles it.
		return ErrPoolClosed
	}
	// Spawn when the queued work exceeds the workers free to take it.
	if p.workers < p.cfg.Max && int(p.waiting.Load()) < len(p.tasks) {
		p.spawnLocked()
	}
	return nil
}

// spawnLocked starts one worker; callers hold p.mu.
func (p *Pool) spawnLocked() {
	p.workers++
	p.scaleUps.Add(1)
	p.wg.Add(1)
	go p.worker()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	idle := time.NewTimer(p.cfg.Idle)
	defer idle.Stop()
	for {
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(p.cfg.Idle)

		p.waiting.Add(1)
		select {
		case task := <-p.tasks:
			p.waiting.Add(-1)
			p.busy.Add(1)
			task(p.ctx)
			p.busy.Add(-1)
			p.completed.Add(1)
		case <-idle.C:
			p.waiting.Add(-1)
			p.mu.Lock()
			// Stay when shrinking would drop below Min, or when work
			// snuck into the queue between the timeout and the lock —
			// exiting then could strand a task until the next Submit.
			if p.workers <= p.cfg.Min && !p.closed || len(p.tasks) > 0 {
				p.mu.Unlock()
				continue
			}
			p.workers--
			p.mu.Unlock()
			p.scaleDowns.Add(1)
			return
		case <-p.ctx.Done():
			p.waiting.Add(-1)
			p.mu.Lock()
			p.workers--
			p.mu.Unlock()
			return
		}
	}
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	workers := p.workers
	p.mu.Unlock()
	return PoolStats{
		Workers:    workers,
		Busy:       int(p.busy.Load()),
		QueueDepth: len(p.tasks),
		Limit:      p.cfg.Max,
		Completed:  p.completed.Load(),
		ScaleUps:   p.scaleUps.Load(),
		ScaleDowns: p.scaleDowns.Load(),
	}
}

// Close stops the pool: no new submissions, the lifetime context is
// cancelled (running tasks should notice and return), queued-but-unrun
// tasks are dropped, and Close blocks until every worker has exited.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.stop()
	p.wg.Wait()
	// Drain anything left in the buffer so submitters blocked on a full
	// queue (already unblocked by ctx.Done) don't leave dangling tasks.
	for {
		select {
		case <-p.tasks:
		default:
			return
		}
	}
}
