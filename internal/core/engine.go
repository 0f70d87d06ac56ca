// Package core implements the iTag allocation engine: the multi-step
// "choose resources – update model" framework of paper §II (Algorithm 1),
// together with the manager layer of §III (Fig. 2) — Resource, Tag, Quality
// and User managers — and the run monitoring providers use to steer
// projects (promote/stop resources, switch strategies, add budget).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/errs"
	"itag/internal/quality"
	"itag/internal/rfd"
	"itag/internal/rng"
	"itag/internal/strategy"
	"itag/internal/users"
	"itag/internal/vocab"
)

// ErrResourceExhausted is reported by replay post sources when a resource
// has no held-out posts left; the engine stops allocating to it.
var ErrResourceExhausted error = errs.New(errs.ComponentCore, errs.CategoryExhausted, "resource post source exhausted")

// ErrStalled is returned by Run when the platform stops making progress
// (e.g. every worker disqualified) with tasks still outstanding.
var ErrStalled error = errs.New(errs.ComponentCore, errs.CategoryInternal, "platform stalled with outstanding tasks")

// PostHook observes one post entering a resource's statistics.
type PostHook func(resourceID, taggerID string, tags []string)

// Judge decides whether a completed task's post is approved by the
// provider. Approved posts enter the resource's statistics and pay the
// incentive; rejected posts consume the task but improve nothing
// (paper §III-A approval flow).
type Judge func(res crowd.Result) bool

// Config parameterizes an engine run.
type Config struct {
	// Resources is the project's resource list; index order defines the
	// strategy-visible indices.
	Resources []dataset.Resource
	// SeedPosts optionally pre-loads posts per resource ID (the provider's
	// existing tagging data — the pre-cutoff trace in the demo protocol).
	SeedPosts map[string][][]string
	// Strategy is the allocation strategy (required).
	Strategy strategy.Strategy
	// Budget B is the number of tagging tasks to spend (required > 0).
	Budget int
	// Batch is |Rc| per Algorithm-1 iteration (default 16).
	Batch int
	// Quality configures the stability metric.
	Quality quality.Config
	// Platform executes tasks (required).
	Platform crowd.Platform
	// Users optionally tracks approvals and credits the incentive of each
	// approved post; required when Judge is set.
	Users *users.Manager
	// Judge optionally reviews completed posts (nil = approve all).
	Judge Judge
	// PayPerTask is the incentive per approved post.
	PayPerTask float64
	// ProviderID attributes approvals and payments.
	ProviderID string
	// TauHigh / TauLow are the monitoring thresholds for the
	// count-above/count-below series (defaults 0.9 / 0.5).
	TauHigh, TauLow float64
	// Seed drives strategy randomness.
	Seed int64
	// MaxStallSteps aborts when the platform yields no result for this
	// many consecutive steps with tasks outstanding (default 10000).
	MaxStallSteps int
	// OnPost, when set, observes every post that enters the statistics, in
	// the order they enter. It runs under the engine lock, so it must not
	// block: the service layer reserves the post's sequence number there
	// and stages the record; nothing durable happens under the lock.
	OnPost PostHook
	// Flush, when set, runs outside the engine lock once per step (and per
	// SubmitPost), after the posts of that call went through OnPost; its
	// error is the call's. The service layer commits what OnPost staged.
	Flush func() error
	// Interner, when set, is the shared tag vocabulary the engine's quality
	// trackers index by (one per service/world; nil = engine-private). Tag
	// strings are translated back only at export boundaries (ResourceStatus,
	// TopTags), so wire formats are unchanged.
	Interner *vocab.Interner
}

func (c Config) validate() error {
	if len(c.Resources) == 0 {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "at least one resource required")
	}
	if c.Strategy == nil {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "strategy required")
	}
	if c.Budget <= 0 {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "budget must be positive, got %d", c.Budget)
	}
	if c.Platform == nil {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "platform required")
	}
	if c.Judge != nil && c.Users == nil {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "judging requires a users manager")
	}
	if err := c.Quality.Validate(); err != nil {
		return err
	}
	return nil
}

// Engine runs Algorithm 1 for one project. It is safe to call the control
// methods (Promote, StopResource, SwitchStrategy, AddBudget) concurrently
// with Run.
type Engine struct {
	mu sync.Mutex

	cfg      Config
	r        *rand.Rand
	strategy strategy.Strategy
	// ranker is the active strategy when it exposes a rank key (FP, MU,
	// FP-MU); ChooseResources() then reads rank instead of calling Choose.
	ranker strategy.Ranked
	rank   rankIndex

	resources []dataset.Resource
	index     map[string]int
	interner  *vocab.Interner
	trackers  []*quality.Tracker
	refs      []*rfd.Ref // per-resource latent reference (nil without one)
	posts     []int      // c_i + x_i (completed posts)
	quality   []float64  // trackers[i].Quality(), flat: rank keys and monitoring read it
	alloc     []int      // x_i (tasks assigned)
	pending   []int      // manual tasks assigned but not yet submitted
	promoted  []bool
	promoQ    []int // promoted resources, oldest first (may hold stale entries)
	chosen    []int // choose's result buffer
	stopped   []bool
	exhausted []bool

	// The write clocks response-cache stamps read (Stamp). resClock[i] moves
	// with anything Status or an export row reports about resource i,
	// engClock with anything Service.Project reports about the run — both in
	// the e.mu critical section that makes the change (touch), so a reader
	// under e.mu sees state and clock move together.
	resClock []atomic.Uint64
	engClock atomic.Uint64

	budget      int
	spent       int
	taskSeq     int
	recordEvery int // monitor sampling: a point every recordEvery spent tasks

	monitor *Monitor
	done    bool
}

// New builds an engine, applying seed posts.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.TauHigh <= 0 {
		cfg.TauHigh = 0.9
	}
	if cfg.TauLow <= 0 {
		cfg.TauLow = 0.5
	}
	if cfg.MaxStallSteps <= 0 {
		cfg.MaxStallSteps = 10000
	}
	n := len(cfg.Resources)
	in := cfg.Interner
	if in == nil {
		in = vocab.NewInterner()
	}
	e := &Engine{
		cfg:       cfg,
		r:         rng.New(cfg.Seed),
		resources: cfg.Resources,
		index:     make(map[string]int, n),
		interner:  in,
		trackers:  make([]*quality.Tracker, n),
		refs:      make([]*rfd.Ref, n),
		posts:     make([]int, n),
		quality:   make([]float64, n),
		alloc:     make([]int, n),
		pending:   make([]int, n),
		promoted:  make([]bool, n),
		stopped:   make([]bool, n),
		exhausted: make([]bool, n),
		resClock:  make([]atomic.Uint64, n),
		budget:    cfg.Budget,
		// About 200 monitor points over the budget the run starts with.
		recordEvery: max(1, cfg.Budget/200),
		monitor:     NewMonitor(),
	}
	for i, res := range cfg.Resources {
		if res.ID == "" {
			return nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "resource %d has empty ID", i)
		}
		if _, dup := e.index[res.ID]; dup {
			return nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "duplicate resource ID %q", res.ID)
		}
		e.index[res.ID] = i
		e.trackers[i] = quality.NewTrackerShared(cfg.Quality, in)
		if len(res.Latent) > 0 {
			e.refs[i] = e.trackers[i].NewRef(res.Latent)
		}
	}
	for id, posts := range cfg.SeedPosts {
		i, ok := e.index[id]
		if !ok {
			return nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "seed posts for unknown resource %q", id)
		}
		for _, tags := range posts {
			if err := e.addPost(i, tags); err != nil {
				return nil, fmt.Errorf("core: seed post for %q: %w", id, err)
			}
		}
	}
	e.setStrategy(cfg.Strategy)
	e.record()
	return e, nil
}

// view adapts engine state for the strategies that sample through Choose;
// exclude hides indices already chosen this iteration (promoted-first picks).
type view struct {
	e       *Engine
	exclude []int
}

func (v view) Len() int                 { return len(v.e.resources) }
func (v view) Posts(i int) int          { return v.e.posts[i] + v.e.pending[i] }
func (v view) Quality(i int) float64    { return v.e.quality[i] }
func (v view) Popularity(i int) float64 { return v.e.resources[i].Popularity }
func (v view) Eligible(i int) bool {
	return v.e.eligible(i) && !slices.Contains(v.exclude, i)
}

func (e *Engine) eligible(i int) bool { return !e.stopped[i] && !e.exhausted[i] }

// touch advances resource i's clock and the engine's: something Status(i)
// reports (posts, allocation, quality, flags) changed, and with it the run
// totals Service.Project reports. Every such site calls it inside the e.mu
// critical section that makes the change.
func (e *Engine) touch(i int) {
	e.resClock[i].Add(1)
	e.engClock.Add(1)
}

// addPost folds one post into resource i's statistics. The caller reindexes
// i once its other counters are settled.
func (e *Engine) addPost(i int, tags []string) error {
	if err := e.trackers[i].AddPost(tags); err != nil {
		return err
	}
	e.posts[i]++
	e.quality[i] = e.trackers[i].Quality()
	e.touch(i)
	return nil
}

// setStrategy installs s and, when it is ranked, builds the rank index over
// the eligible resources in O(n). Caller holds e.mu (or owns e exclusively).
func (e *Engine) setStrategy(s strategy.Strategy) {
	e.strategy = s
	e.ranker, _ = s.(strategy.Ranked)
	e.rebuildRank()
}

// rebuildRank re-reads every key: after a strategy change, and when the
// ranker reports that its key function moved (FP-MU's FP→MU switch).
func (e *Engine) rebuildRank() {
	e.rank.reset(len(e.resources))
	if e.ranker == nil {
		return
	}
	for i := range e.resources {
		if e.eligible(i) {
			e.rank.append(i, e.rankKey(i), e.r.Uint64())
		}
	}
	e.rank.heapify()
}

func (e *Engine) rankKey(i int) strategy.Key {
	return e.ranker.Key(e.posts[i]+e.pending[i], e.quality[i])
}

// reindex fixes resource i's place in the rank index. Every transition that
// can move a key or eligibility calls it: assignment, a completed or
// cancelled task, stop, resume, exhaustion.
func (e *Engine) reindex(i int) {
	switch {
	case e.ranker == nil:
	case e.eligible(i):
		e.rank.set(i, e.rankKey(i), e.r.Uint64())
	default:
		e.rank.remove(i)
	}
}

// choose is ChooseResources(): up to batch distinct eligible resources,
// promoted ones first (paper §III-A: Promote ensures selection at the next
// ChooseResources), then the strategy's. Resources picked off the rank index
// have left it; the caller reindexes every chosen resource once its counters
// are updated, and touches every one of them before it lets go of e.mu — on
// its error paths too, since a promotion consumed here has already changed
// what Status reports. The result is valid until the next call. Caller holds
// e.mu.
func (e *Engine) choose(batch int) []int {
	if e.ranker != nil {
		if min, ok := e.rank.min(); e.ranker.Advance(min, ok) {
			e.rebuildRank()
		}
	}
	chosen := e.chosen[:0]
	for len(chosen) < batch && len(e.promoQ) > 0 {
		i := e.promoQ[0]
		e.promoQ = e.promoQ[1:]
		// A stopped resource stays promoted (ResumeResource queues it
		// again); an entry whose promotion was already served is stale.
		if e.promoted[i] && e.eligible(i) {
			e.promoted[i] = false // promotion is one-shot
			e.rank.remove(i)
			chosen = append(chosen, i)
		}
	}
	if e.ranker != nil {
		promoted := len(chosen)
		for len(chosen) < batch {
			i, ok := e.rank.pop()
			if !ok {
				break
			}
			chosen = append(chosen, i)
		}
		e.ranker.Picked(len(chosen) - promoted)
	} else if len(chosen) < batch {
		chosen = append(chosen, e.strategy.Choose(view{e: e, exclude: chosen}, batch-len(chosen), e.r)...)
	}
	e.chosen = chosen
	return chosen
}

// Run executes Algorithm 1 until the budget is exhausted or no eligible
// resources remain.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

// RunContext is Run under a context: cancellation is observed between
// iterations and while waiting on the platform, so a handler timeout, a
// client disconnect or a server drain actually stops the work.
func (e *Engine) RunContext(ctx context.Context) error {
	for {
		done, err := e.StepContext(ctx)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// StepOnce executes one Algorithm-1 iteration: ChooseResources, assign to
// taggers via the platform, collect completions, Update. It returns
// done=true when the run is finished.
func (e *Engine) StepOnce() (bool, error) { return e.StepContext(context.Background()) }

// StepContext is StepOnce under a context. However the step ends, the
// posts it folded in are flushed (Config.Flush) before it returns.
func (e *Engine) StepContext(ctx context.Context) (bool, error) {
	done, err := e.step(ctx)
	if ferr := e.flush(); err == nil && ferr != nil {
		return false, ferr
	}
	return done, err
}

func (e *Engine) flush() error {
	if e.cfg.Flush == nil {
		return nil
	}
	return e.cfg.Flush()
}

func (e *Engine) step(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	e.mu.Lock()
	remaining := e.budget - e.spent
	if remaining <= 0 {
		e.done = true
		e.mu.Unlock()
		return true, nil
	}
	batch := e.cfg.Batch
	if batch > remaining {
		batch = remaining
	}

	chosen := e.choose(batch)
	if len(chosen) == 0 {
		e.done = true
		e.mu.Unlock()
		return true, nil
	}
	// Assignment moves no key on this path (x_i enters the statistics when
	// the post completes), so the batch goes straight back, with fresh ties.
	// Every chosen resource is touched here, before a failed Publish can
	// return early: choose may have consumed its promotion, and what is
	// allocated below is allocated under this same hold of e.mu.
	for _, i := range chosen {
		e.reindex(i)
		e.touch(i)
	}

	// Assign Rc to taggers: publish one task per chosen resource.
	outstanding := len(chosen)
	for _, i := range chosen {
		e.taskSeq++
		t := crowd.Task{
			ID:         fmt.Sprintf("task-%06d", e.taskSeq),
			ProjectID:  e.cfg.ProviderID,
			ResourceID: e.resources[i].ID,
			Reward:     e.cfg.PayPerTask,
		}
		if err := e.cfg.Platform.Publish(t); err != nil {
			e.mu.Unlock()
			return false, fmt.Errorf("core: publish: %w", err)
		}
		e.alloc[i]++
		e.spent++
	}
	e.mu.Unlock()

	// Drive the platform until this batch completes.
	stall := 0
	for outstanding > 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		produced := e.cfg.Platform.Step()
		if produced == 0 {
			stall++
			if stall > e.cfg.MaxStallSteps {
				return false, fmt.Errorf("%w: %d tasks outstanding after %d idle steps",
					ErrStalled, outstanding, stall)
			}
			continue
		}
		stall = 0
		for _, res := range e.cfg.Platform.Collect(0) {
			outstanding--
			e.update(res)
		}
	}

	e.mu.Lock()
	e.record()
	finished := e.budget-e.spent <= 0
	if finished {
		e.done = true
	}
	e.mu.Unlock()
	return finished, nil
}

// update is Algorithm 1's UPDATE(): fold one completed task back into the
// model (statistics, quality scores, approvals, payments).
func (e *Engine) update(res crowd.Result) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[res.Task.ResourceID]
	if !ok {
		return // foreign result; ignore
	}
	if res.Err != nil {
		// The task produced no post (replay exhausted / worker failure):
		// mark the resource exhausted and refund the task.
		e.exhausted[i] = true
		e.reindex(i)
		e.alloc[i]--
		e.spent--
		e.touch(i)
		e.monitor.Eventf(e.spent, "exhausted", "resource %s: %v", res.Task.ResourceID, res.Err)
		return
	}
	approved := true
	if e.cfg.Judge != nil {
		approved = e.cfg.Judge(res)
	}
	if e.cfg.Users != nil && res.WorkerID != "" {
		_ = e.cfg.Users.RecordTagJudgment(res.WorkerID, approved, e.cfg.PayPerTask)
	}
	if !approved {
		// Rejected posts consume the task but contribute nothing.
		e.monitor.Eventf(e.spent, "rejected", "post by %s on %s", res.WorkerID, res.Task.ResourceID)
		return
	}
	if err := e.addPost(i, res.Tags); err != nil {
		e.monitor.Eventf(e.spent, "bad-post", "resource %s: %v", res.Task.ResourceID, err)
		return
	}
	e.reindex(i)
	if e.cfg.OnPost != nil {
		e.cfg.OnPost(res.Task.ResourceID, res.WorkerID, res.Tags)
	}
}

// record samples the monitoring series (caller holds e.mu).
func (e *Engine) record() {
	if e.spent%e.recordEvery != 0 && e.budget-e.spent > 0 {
		return
	}
	qs := e.quality
	x := float64(e.spent)
	e.monitor.Record(SeriesMeanStability, x, quality.MeanQuality(qs))
	e.monitor.Record(SeriesCountHigh, x, float64(quality.CountAtLeast(qs, e.cfg.TauHigh)))
	e.monitor.Record(SeriesCountLow, x, float64(quality.CountBelow(qs, e.cfg.TauLow)))
	if mo, ok := e.meanOracleLocked(); ok {
		e.monitor.Record(SeriesMeanOracle, x, mo)
	}
}

// meanOracleLocked is quality.MeanQuality over oracleLocked's slice, summed
// in place: resources without a reference count as zero.
func (e *Engine) meanOracleLocked() (float64, bool) {
	any := false
	var sum float64
	for _, ref := range e.refs {
		if ref == nil {
			continue
		}
		any = true
		sum += quality.OracleRef(e.cfg.Quality.Metric, ref)
	}
	return sum / float64(len(e.refs)), any
}

func (e *Engine) oracleLocked() ([]float64, bool) {
	any := false
	out := make([]float64, len(e.resources))
	for i := range e.resources {
		if e.refs[i] == nil {
			continue
		}
		any = true
		out[i] = quality.OracleRef(e.cfg.Quality.Metric, e.refs[i])
	}
	return out, any
}

// --- control surface (the provider UI actions of §III-A) ---------------------

// Promote queues a resource for guaranteed selection in the next
// ChooseResources step.
func (e *Engine) Promote(resourceID string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[resourceID]
	if !ok {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown resource %q", resourceID)
	}
	if !e.promoted[i] {
		e.promoted[i] = true
		e.promoQ = append(e.promoQ, i)
		e.touch(i)
	}
	e.monitor.Eventf(e.spent, "promote", "resource %s", resourceID)
	return nil
}

// StopResource excludes a resource from further allocation.
func (e *Engine) StopResource(resourceID string) error {
	return e.setStopped(resourceID, true)
}

// ResumeResource re-enables a stopped resource.
func (e *Engine) ResumeResource(resourceID string) error {
	return e.setStopped(resourceID, false)
}

func (e *Engine) setStopped(resourceID string, stopped bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[resourceID]
	if !ok {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown resource %q", resourceID)
	}
	e.stopped[i] = stopped
	e.touch(i)
	e.reindex(i)
	verb := "stop"
	if !stopped {
		verb = "resume"
		if e.promoted[i] {
			e.promoQ = append(e.promoQ, i)
		}
	}
	e.monitor.Eventf(e.spent, verb, "resource %s", resourceID)
	return nil
}

// SwitchStrategy replaces the allocation strategy mid-run (paper §III-A:
// providers "change allocation strategies if they are not satisfied").
func (e *Engine) SwitchStrategy(s strategy.Strategy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.monitor.Eventf(e.spent, "switch-strategy", "%s -> %s", e.strategy.Name(), s.Name())
	e.setStrategy(s)
	e.engClock.Add(1)
}

// AddBudget extends the run's budget (paper §III-A: "providers may add
// budget to the project").
func (e *Engine) AddBudget(extra int) error {
	if extra <= 0 {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "budget extension must be positive, got %d", extra)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.budget += extra
	e.done = false // no clock moves: Service.Project reports the budget from the record
	e.monitor.Eventf(e.spent, "add-budget", "+%d (now %d)", extra, e.budget)
	return nil
}

// --- state inspection ---------------------------------------------------------

// Spent returns tasks consumed so far.
func (e *Engine) Spent() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spent
}

// Budget returns the current total budget.
func (e *Engine) Budget() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.budget
}

// Done reports whether the run has finished.
func (e *Engine) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// StrategyName returns the active strategy's name.
func (e *Engine) StrategyName() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.strategy.Name()
}

// Posts returns a copy of per-resource post counts (c+x).
func (e *Engine) Posts() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, len(e.posts))
	copy(out, e.posts)
	return out
}

// Allocation returns a copy of per-resource allocated tasks x.
func (e *Engine) Allocation() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, len(e.alloc))
	copy(out, e.alloc)
	return out
}

// OracleQualities returns per-resource oracle qualities; ok=false when no
// resource has a latent reference.
func (e *Engine) OracleQualities() ([]float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.oracleLocked()
}

// MeanStability returns the paper's q(R, k̄) under the stability metric.
func (e *Engine) MeanStability() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return quality.MeanQuality(e.quality)
}

// MeanOracle returns mean oracle quality (0 if no latent references).
func (e *Engine) MeanOracle() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	mo, _ := e.meanOracleLocked()
	return mo
}

// runTotals is what Service.Project reports from a live engine.
type runTotals struct {
	spent, pending            int
	meanStability, meanOracle float64
	strategy                  string
}

// totals reads the run's totals in one critical section, recording the
// engine clock into st at the value it has there.
func (e *Engine) totals(st *Stamp) runTotals {
	e.mu.Lock()
	defer e.mu.Unlock()
	st.at(&e.engClock, e.engClock.Load())
	t := runTotals{
		spent:         e.spent,
		meanStability: quality.MeanQuality(e.quality),
		strategy:      e.strategy.Name(),
	}
	t.meanOracle, _ = e.meanOracleLocked()
	for _, p := range e.pending {
		t.pending += p
	}
	return t
}

// Monitor exposes the run telemetry.
func (e *Engine) Monitor() *Monitor { return e.monitor }

// Interner exposes the tag vocabulary the engine's trackers index by —
// the config-shared interner, or the engine-private one built by New.
func (e *Engine) Interner() *vocab.Interner { return e.interner }

// ResourceStatus is a snapshot of one resource's run state (the
// single-resource details screen, paper Fig. 6).
type ResourceStatus struct {
	ID        string    `json:"id"`
	Index     int       `json:"index"`
	Posts     int       `json:"posts"`
	Allocated int       `json:"allocated"`
	Stability float64   `json:"stability"`
	Oracle    float64   `json:"oracle,omitempty"`
	Promoted  bool      `json:"promoted"`
	Stopped   bool      `json:"stopped"`
	Exhausted bool      `json:"exhausted"`
	Series    []float64 `json:"series,omitempty"`
	TopTags   []TagFreq `json:"top_tags,omitempty"`
}

// TagFreq is one top tag as served: rfd.TagFreq, whose TopK slice a row
// holds without a copy.
type TagFreq = rfd.TagFreq

// Status returns the snapshot for one resource, including its quality
// series and top tags.
func (e *Engine) Status(resourceID string) (ResourceStatus, error) {
	return e.status(resourceID, nil)
}

// status is Status recording the resource's clock into stamp, at the value
// it has in the critical section the snapshot is taken in.
func (e *Engine) status(resourceID string, stamp *Stamp) (ResourceStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[resourceID]
	if !ok {
		return ResourceStatus{}, errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown resource %q", resourceID)
	}
	stamp.at(&e.resClock[i], e.resClock[i].Load())
	st := ResourceStatus{
		ID:        resourceID,
		Index:     i,
		Posts:     e.posts[i],
		Allocated: e.alloc[i],
		Stability: e.quality[i],
		Promoted:  e.promoted[i],
		Stopped:   e.stopped[i],
		Exhausted: e.exhausted[i],
		Series:    e.trackers[i].Series(),
	}
	if e.refs[i] != nil {
		st.Oracle = quality.OracleRef(e.cfg.Quality.Metric, e.refs[i])
	}
	st.TopTags = e.topTags(i)
	return st, nil
}

// exportRow fills the resource's export row (Name left for the caller) —
// posts, stability and top tags, nothing Status computes beyond them — and
// records the resource's clock into stamp under the same lock. ok=false
// when the resource is not part of this run.
func (e *Engine) exportRow(resourceID string, stamp *Stamp) (ExportedResource, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[resourceID]
	if !ok {
		return ExportedResource{}, false
	}
	stamp.at(&e.resClock[i], e.resClock[i].Load())
	return ExportedResource{
		ID: resourceID, Posts: e.posts[i], Stability: e.quality[i], TopTags: e.topTags(i),
	}, true
}

// topTags is resource i's ten most frequent tags (nil when it has none).
// Caller holds e.mu.
func (e *Engine) topTags(i int) []TagFreq {
	return e.trackers[i].Counts().TopK(10)
}

// Elapsed is a convenience for run timing in reports.
func Elapsed(start time.Time) time.Duration { return time.Since(start) }
