// Package crowd abstracts the crowdsourcing marketplaces iTag pushes tasks
// to (paper §I, Fig. 1: MTurk, Facebook, CrowdFlower, ...) and provides
// in-process simulators of them.
//
// iTag is an agent over these platforms: it publishes tagging tasks through
// their APIs, workers complete tasks, and iTag aggregates results (§III-B).
// The contract that matters to the allocation engine is exactly that
// publish → complete → collect loop, plus the approve/reject review a
// marketplace keeps per worker and qualifies workers by, and worker-induced
// failure modes (latency, abandonment). The simulators
// reproduce that contract deterministically on a virtual clock so every
// experiment is reproducible and fast; nothing in the engine knows whether
// a real marketplace or a simulator is on the other side.
package crowd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"itag/internal/rng"
)

// Task is one published tagging task.
type Task struct {
	// ID is unique per platform.
	ID string
	// ProjectID is the iTag project the task belongs to.
	ProjectID string
	// ResourceID is the resource to tag.
	ResourceID string
	// Reward is the incentive for an approved completion.
	Reward float64
}

// Result is a completed (or failed) task.
type Result struct {
	// Task echoes the published task.
	Task Task
	// WorkerID is who completed it.
	WorkerID string
	// Tags is the produced post (nil if Err != nil).
	Tags []string
	// Step is the virtual-clock step at completion.
	Step int
	// Err is non-nil when the worker could not produce a post (e.g. a
	// replay source exhausted the resource's future posts).
	Err error
}

// PostFunc produces the tag set a given worker yields for a resource. It is
// the seam between the platform simulator and the tagger behaviour model
// (taggersim) or a trace replayer.
type PostFunc func(workerID, resourceID string) ([]string, error)

// The qualification rule of the approval process (§III-A): a worker with at
// least MinReviews reviews is assigned tasks only while at least
// MinApprovalRate of them approved its work. A worker with fewer reviews has
// not had a fair chance yet and is qualified.
const (
	MinApprovalRate = 0.6
	MinReviews      = 8
)

// Platform is the marketplace abstraction.
type Platform interface {
	// Name identifies the platform ("mturk-sim", ...).
	Name() string
	// Publish enqueues a task.
	Publish(t Task) error
	// Step advances the virtual clock one tick: assigns queued tasks to
	// free qualified workers and progresses in-flight work. It returns the
	// number of results that became available this tick.
	Step() int
	// Collect removes and returns up to max available results (all if
	// max <= 0).
	Collect(max int) []Result
	// Pending returns queued + in-flight task count.
	Pending() int
	// Clock returns the current virtual step.
	Clock() int
	// Review records the requester's verdict on a worker's completed task,
	// as MTurk's approve/reject call does; the platform qualifies workers by
	// the record it keeps.
	Review(workerID string, approved bool)
}

// ErrNoWorkers is returned by Publish when the platform has no workers.
var ErrNoWorkers = errors.New("crowd: platform has no workers")

// SimConfig parameterizes a simulated marketplace.
type SimConfig struct {
	// Name labels the platform (default "mturk-sim").
	Name string
	// Workers are the worker IDs available to take tasks.
	Workers []string
	// Post produces a worker's tag set for a resource (required).
	Post PostFunc
	// MeanLatency is the mean steps a worker holds a task (default 2).
	MeanLatency float64
	// AbandonProb is the chance an assignment is abandoned instead of
	// completed; abandoned tasks requeue (default 0).
	AbandonProb float64
	// Seed drives all randomness in the simulator.
	Seed int64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Name == "" {
		c.Name = "mturk-sim"
	}
	if c.MeanLatency <= 0 {
		c.MeanLatency = 2
	}
	if c.AbandonProb < 0 {
		c.AbandonProb = 0
	}
	if c.AbandonProb > 1 {
		c.AbandonProb = 1
	}
	return c
}

// reviewRecord is one worker's review tally.
type reviewRecord struct {
	reviews, approved int
}

type assignment struct {
	task      Task
	workerID  string
	remaining int
}

// Sim is a deterministic marketplace simulator. Safe for concurrent use.
type Sim struct {
	cfg SimConfig
	r   *rand.Rand

	mu       sync.Mutex
	queue    []Task
	inflight []assignment
	results  []Result
	busy     map[string]bool
	reviews  map[string]reviewRecord
	clock    int
	stats    SimStats
}

// SimStats counts simulator events for reports and tests.
type SimStats struct {
	Published int
	Assigned  int
	Completed int
	Abandoned int
	Failed    int // PostFunc errors
	Starved   int // steps where queued tasks found no eligible worker
}

// NewSim builds a simulator.
func NewSim(cfg SimConfig) (*Sim, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, ErrNoWorkers
	}
	if cfg.Post == nil {
		return nil, errors.New("crowd: SimConfig.Post is required")
	}
	return &Sim{
		cfg:     cfg,
		r:       rng.New(cfg.Seed),
		busy:    make(map[string]bool),
		reviews: make(map[string]reviewRecord),
	}, nil
}

// Name implements Platform.
func (s *Sim) Name() string { return s.cfg.Name }

// Publish implements Platform.
func (s *Sim) Publish(t Task) error {
	if t.ID == "" || t.ResourceID == "" {
		return fmt.Errorf("crowd: task needs ID and resource ID: %+v", t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, t)
	s.stats.Published++
	return nil
}

// Step implements Platform.
func (s *Sim) Step() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++

	// 1. Assign queued tasks to free, qualified workers.
	if len(s.queue) > 0 {
		free := s.freeWorkersLocked()
		assignedAny := false
		for len(s.queue) > 0 && len(free) > 0 {
			// Uniformly pick which free worker takes the next task.
			wi := s.r.Intn(len(free))
			w := free[wi]
			free = append(free[:wi], free[wi+1:]...)
			t := s.queue[0]
			s.queue = s.queue[1:]
			lat := 1 + rng.Geometric(s.r, 1/s.cfg.MeanLatency)
			s.inflight = append(s.inflight, assignment{task: t, workerID: w, remaining: lat})
			s.busy[w] = true
			s.stats.Assigned++
			assignedAny = true
		}
		if !assignedAny && len(s.queue) > 0 {
			s.stats.Starved++
		}
	}

	// 2. Progress in-flight assignments.
	produced := 0
	var still []assignment
	for _, a := range s.inflight {
		a.remaining--
		if a.remaining > 0 {
			still = append(still, a)
			continue
		}
		s.busy[a.workerID] = false
		if rng.Bernoulli(s.r, s.cfg.AbandonProb) {
			s.stats.Abandoned++
			s.queue = append(s.queue, a.task) // requeue
			continue
		}
		tags, err := s.cfg.Post(a.workerID, a.task.ResourceID)
		res := Result{Task: a.task, WorkerID: a.workerID, Step: s.clock}
		if err != nil {
			res.Err = err
			s.stats.Failed++
		} else {
			res.Tags = tags
			s.stats.Completed++
		}
		s.results = append(s.results, res)
		produced++
	}
	s.inflight = still
	return produced
}

func (s *Sim) freeWorkersLocked() []string {
	var free []string
	for _, w := range s.cfg.Workers {
		if s.busy[w] {
			continue
		}
		if rec := s.reviews[w]; rec.reviews >= MinReviews &&
			float64(rec.approved)/float64(rec.reviews) < MinApprovalRate {
			continue
		}
		free = append(free, w)
	}
	return free
}

// Review implements Platform.
func (s *Sim) Review(workerID string, approved bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.reviews[workerID]
	rec.reviews++
	if approved {
		rec.approved++
	}
	s.reviews[workerID] = rec
}

// Collect implements Platform.
func (s *Sim) Collect(max int) []Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.results)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Result, n)
	copy(out, s.results[:n])
	s.results = s.results[n:]
	return out
}

// Pending implements Platform.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) + len(s.inflight)
}

// Clock implements Platform.
func (s *Sim) Clock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// Stats returns a copy of the event counters.
func (s *Sim) Stats() SimStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NewMTurkSim returns a simulator with MTurk-like defaults: a large worker
// pool working mostly independently with modest latency.
func NewMTurkSim(workers []string, post PostFunc, seed int64) (*Sim, error) {
	return NewSim(SimConfig{
		Name:        "mturk-sim",
		Workers:     workers,
		Post:        post,
		MeanLatency: 2,
		AbandonProb: 0.02,
		Seed:        seed,
	})
}

// NewSocialSim returns a simulator with social-network-like defaults
// (paper §I suggests Facebook as an alternative platform): higher latency
// and abandonment, modelling casual rather than paid workers.
func NewSocialSim(workers []string, post PostFunc, seed int64) (*Sim, error) {
	return NewSim(SimConfig{
		Name:        "social-sim",
		Workers:     workers,
		Post:        post,
		MeanLatency: 5,
		AbandonProb: 0.10,
		Seed:        seed,
	})
}
