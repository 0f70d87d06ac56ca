package core

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/errs"
	"itag/internal/store"
	"itag/internal/strategy"
	"itag/internal/vocab"
	"itag/internal/wire"
)

// Service is the top of the iTag system (paper Fig. 2): it composes the
// Resource, Tag, Quality and User managers over the persistent catalog and
// owns live project runs. The HTTP server and the CLI tools are thin
// frontends over it.
//
// Every entry point takes a context.Context and observes cancellation, so
// HTTP handler timeouts and client disconnects propagate into the work
// instead of leaking goroutines. A served project has one kind: uploaded
// resources tagged through leases, submits and judgments, whether the
// taggers are people or a simulated marketplace driving the API as a
// client (examples/loadgen). The Service starts no goroutine of its own.
type Service struct {
	mu sync.Mutex
	// judgeMu makes each read-modify-write of a verdict and a user's stored
	// counts (JudgePost, RateProvider) one step.
	judgeMu sync.Mutex
	cat     *store.Catalog
	intern  *vocab.Interner // shared tag vocabulary across all project runs
	folded  *foldedRows     // export rows of projects with no live run
	runs    map[string]*Run
	nextID  int
	seed    int64
	nowFunc func() time.Time
	// idFilter, when set, gates minted IDs: newID skips candidates the
	// filter rejects. The cluster layer installs one so a node only mints
	// project/user IDs whose hash routes back to itself.
	idFilter func(prefix, id string) bool

	// runsEpoch counts the one run-state transition no other clock sees: a
	// run installed in s.runs (CreateProject, ResumeRuns — the answer
	// switches from the catalog to an engine; an installed run is never
	// replaced or removed). The Stamp of every answer that has a runless
	// form reads it, before looking s.runs up, and it is bumped strictly
	// AFTER the run is visible (the order the encoded-response cache's
	// recheck-after-publish protocol needs).
	runsEpoch atomic.Uint64
}

// Run is a live project: its engine and the tasks leased from it.
type Run struct {
	Engine *Engine

	mu      sync.Mutex
	tasks   map[string]store.TaskRec // taskID → the assigned record it was written as
	taskSeq int
	// spentBefore is what a previous process had spent when ResumeRuns
	// rebuilt this run: the rebuilt engine gets the budget that was left and
	// counts from zero.
	spentBefore int
}

// spent is the project's total spend across restarts.
func (run *Run) spent() int { return run.spentBefore + run.Engine.Spent() }

// ErrInvalidRole is returned when an operation targets a user that exists
// but has the wrong role (e.g. rating a tagger as if it were a provider).
var ErrInvalidRole error = errs.New(errs.ComponentCore, errs.CategoryValidation, "user has the wrong role for this operation").WithCode("invalid_role")

// NewService builds a Service over a catalog.
func NewService(cat *store.Catalog, seed int64) *Service {
	s := &Service{
		cat:     cat,
		intern:  vocab.NewInterner(),
		runs:    make(map[string]*Run),
		seed:    seed,
		nowFunc: func() time.Time { return time.Now().UTC() },
	}
	s.folded = newFoldedRows(cat, s.intern)
	cat.ObservePosts(s.folded)
	return s
}

// ServiceOptions has no fields. It, NewServiceWith and Close stay only
// until the benchmark harness (benchmark/inproc.go, probes.go) stops
// calling them.
type ServiceOptions struct{}

// NewServiceWith is NewService; see ServiceOptions.
func NewServiceWith(cat *store.Catalog, seed int64, _ ServiceOptions) *Service {
	return NewService(cat, seed)
}

// Close does nothing: a Service holds no goroutine and does not own its
// store. See ServiceOptions.
func (s *Service) Close() {}

// Catalog exposes the persistent catalog.
func (s *Service) Catalog() *store.Catalog { return s.cat }

// bumpRunsEpoch records a run-state transition that has no catalog write
// of its own. Call it AFTER the transition is visible.
func (s *Service) bumpRunsEpoch() { s.runsEpoch.Add(1) }

// StoreStats reports the backing store's durability-layer counters (group
// commit batching, fsyncs, segments, recovery time) — surfaced by the HTTP
// server at GET /api/v1/metrics. Nil when the backend exposes none.
func (s *Service) StoreStats() *store.Stats {
	if sp, ok := s.cat.DB().(interface{ Stats() store.Stats }); ok {
		st := sp.Stats()
		return &st
	}
	return nil
}

// SetIDFilter installs a predicate over freshly minted IDs; newID skips
// candidates it rejects. Install before serving requests (it is read under
// s.mu but routing decisions made with a stale filter are not corrected).
func (s *Service) SetIDFilter(f func(prefix, id string) bool) {
	s.mu.Lock()
	s.idFilter = f
	s.mu.Unlock()
}

func (s *Service) newID(prefix string) string {
	// With an idFilter (cluster mode, ~N nodes) the expected number of
	// skips is N-1; the cap only guards against a filter that rejects
	// everything, where minting a foreign ID beats spinning forever.
	for tries := 0; ; tries++ {
		s.nextID++
		id := fmt.Sprintf("%s-%06d", prefix, s.nextID)
		if s.idFilter == nil || s.idFilter(prefix, id) || tries >= 4096 {
			return id
		}
	}
}

// --- users --------------------------------------------------------------------

// RegisterProvider persists a provider and returns its ID.
func (s *Service) RegisterProvider(ctx context.Context, name string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	s.mu.Lock()
	id := s.newID("prov")
	s.mu.Unlock()
	return id, s.cat.PutUser(store.UserRec{ID: id, Role: store.RoleProvider, Name: name})
}

// RegisterTagger persists a tagger and returns its ID.
func (s *Service) RegisterTagger(ctx context.Context, name string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	s.mu.Lock()
	id := s.newID("tag")
	s.mu.Unlock()
	return id, s.cat.PutUser(store.UserRec{ID: id, Role: store.RoleTagger, Name: name})
}

// --- projects -----------------------------------------------------------------

// ProjectSpec describes a new project (the Add Project screen, Fig. 4).
type ProjectSpec struct {
	ProviderID  string
	Name        string
	Description string
	Kind        string
	Budget      int
	PayPerTask  float64
	Strategy    string // strategy.Parse spec
	Platform    string // "mturk-sim" | "social-sim"
	// Resources to upload, and posts they already carry.
	Resources []dataset.Resource
	SeedPosts map[string][][]string
}

// CreateProject validates and persists a project with its resources.
func (s *Service) CreateProject(ctx context.Context, spec ProjectSpec) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if spec.ProviderID == "" {
		return "", errs.New(errs.ComponentCore, errs.CategoryValidation, "provider ID required")
	}
	if _, err := s.cat.GetUser(spec.ProviderID); err != nil {
		return "", errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown provider %q", spec.ProviderID)
	}
	if spec.Budget <= 0 {
		return "", errs.New(errs.ComponentCore, errs.CategoryValidation, "project budget must be positive")
	}
	if !(spec.PayPerTask >= 0) || math.IsInf(spec.PayPerTask, 1) {
		return "", errs.New(errs.ComponentCore, errs.CategoryValidation, "pay per task must be a finite amount of at least 0, have %v", spec.PayPerTask)
	}
	if spec.Strategy == "" {
		spec.Strategy = "fp-mu"
	}
	strat, err := strategy.Parse(spec.Strategy)
	if err != nil {
		return "", err
	}
	if spec.Platform == "" {
		spec.Platform = "mturk-sim"
	}
	if len(spec.Resources) == 0 {
		return "", errs.New(errs.ComponentCore, errs.CategoryValidation, "project needs at least one resource")
	}

	// Resource keys are bare IDs, so an uploaded ID another project already
	// holds would overwrite that project's row, and its listing and export
	// would lose it: refuse it, writing nothing. Two concurrent creates that
	// upload one new ID can both pass this check; a write-set precondition
	// ("absent", ROADMAP item 10) closes that race, and a per-project
	// resource key (item 3(b)) retires the refusal.
	for _, r := range spec.Resources {
		owner, err := s.cat.GetResource(r.ID)
		if err == nil {
			return "", errs.New(errs.ComponentCore, errs.CategoryConflict,
				"resource %q already belongs to project %q", r.ID, owner.ProjectID)
		}
		if !errors.Is(err, store.ErrNotFound) {
			return "", err
		}
	}

	s.mu.Lock()
	id := s.newID("proj")
	seed := s.seed + int64(s.nextID)
	s.mu.Unlock()

	// Build the run first: the engine rejects what the catalog would not
	// (duplicate resource IDs, seed posts naming no resource), and nothing
	// may be written for a project that cannot run.
	run, err := s.buildRun(spec, strat, seed)
	if err != nil {
		return "", err
	}

	// Project, resources and seed posts are one commit: a crash or a failed
	// write leaves all of them or none, never a project row that ResumeRuns
	// would bring back over a subset of its resources. Seed posts are staged
	// in resource order so their sequence numbers are deterministic.
	ws := s.cat.Begin(1 + len(spec.Resources))
	err = ws.PutProject(store.ProjectRec{
		ID: id, ProviderID: spec.ProviderID, Name: spec.Name,
		Description: spec.Description, Kind: spec.Kind,
		Budget: spec.Budget, PayPerTask: spec.PayPerTask,
		Strategy: spec.Strategy, Platform: spec.Platform,
		Status: store.ProjectActive, CreatedAt: s.nowFunc(),
	})
	if err != nil {
		return "", err
	}
	for _, r := range spec.Resources {
		if err := ws.PutResource(store.ResourceRec{
			ID: r.ID, ProjectID: id, Kind: string(r.Kind), Name: r.Name,
			Topic: r.Topic, Popularity: r.Popularity,
		}); err != nil {
			return "", err
		}
	}
	for _, r := range spec.Resources {
		for _, tags := range spec.SeedPosts[r.ID] {
			if _, err := ws.AppendPost(store.PostRec{
				ResourceID: r.ID, Tags: tags, Time: s.nowFunc(),
			}); err != nil {
				return "", err
			}
		}
	}
	if err := ws.Commit(); err != nil {
		return "", err
	}

	s.mu.Lock()
	s.runs[id] = run
	s.mu.Unlock()
	s.bumpRunsEpoch() // a reader in between answered from the catalog alone
	return id, nil
}

func (s *Service) buildRun(spec ProjectSpec, strat strategy.Strategy, seed int64) (*Run, error) {
	// Each call that posts (SubmitTask, BatchTasks) stages into, and
	// commits, a write set of its own, so concurrent taggers do not share
	// one, and the engine needs no platform: its tasks are leased.
	eng, err := New(Config{
		Resources:  spec.Resources,
		SeedPosts:  spec.SeedPosts,
		Strategy:   strat,
		Budget:     spec.Budget,
		PayPerTask: spec.PayPerTask,
		ProviderID: spec.ProviderID,
		Seed:       seed,
		Interner:   s.intern,
	})
	if err != nil {
		return nil, err
	}
	return &Run{Engine: eng, tasks: make(map[string]store.TaskRec)}, nil
}

// stagePost is the engine's post hook over one write set. It runs under
// Engine.mu, so all it does is reserve the post's sequence number — key
// order is then engine order, which is what lets ResumeRuns rebuild the
// tracker state the live engine had — and stage the record; whoever owns ws
// commits after the engine lock is released.
func (s *Service) stagePost(ws *store.WriteSet) PostHook {
	return func(resourceID, taggerID string, tags []string) {
		// The engine has just accepted the post, so it names a resource and
		// carries tags; an encode error is kept by ws, whose Commit returns
		// it and writes nothing.
		_, _ = ws.AppendPost(store.PostRec{
			ResourceID: resourceID, TaggerID: taggerID,
			Tags: tags, Time: s.nowFunc(),
		})
	}
}

// LatentOverlapJudge approves a post when at least minOverlap of its tags
// appear in the resource's latent distribution — the simulated provider's
// review standard for E7.
func LatentOverlapJudge(world *dataset.World, minOverlap float64) Judge {
	index := world.Dataset.Index()
	return func(res crowd.Result) bool {
		i, ok := index[res.Task.ResourceID]
		if !ok || len(res.Tags) == 0 {
			return false
		}
		latent := world.Dataset.Resources[i].Latent
		hits := 0
		for _, tag := range res.Tags {
			if _, in := latent[tag]; in {
				hits++
			}
		}
		return float64(hits)/float64(len(res.Tags)) >= minOverlap
	}
}

func (s *Service) run(projectID string) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[projectID]
	if !ok {
		return nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "no live run for project %q", projectID)
	}
	return run, nil
}

// --- provider controls ----------------------------------------------------------

// Promote forwards to the project's engine.
func (s *Service) Promote(ctx context.Context, projectID, resourceID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	run, err := s.run(projectID)
	if err != nil {
		return err
	}
	return run.Engine.Promote(resourceID)
}

// StopResource forwards to the project's engine.
func (s *Service) StopResource(ctx context.Context, projectID, resourceID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	run, err := s.run(projectID)
	if err != nil {
		return err
	}
	if err := run.Engine.StopResource(resourceID); err != nil {
		return err
	}
	return s.flagResource(resourceID, func(r *store.ResourceRec) { r.Stopped = true })
}

// ResumeResource forwards to the project's engine.
func (s *Service) ResumeResource(ctx context.Context, projectID, resourceID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	run, err := s.run(projectID)
	if err != nil {
		return err
	}
	if err := run.Engine.ResumeResource(resourceID); err != nil {
		return err
	}
	return s.flagResource(resourceID, func(r *store.ResourceRec) { r.Stopped = false })
}

func (s *Service) flagResource(resourceID string, mut func(*store.ResourceRec)) error {
	rec, err := s.cat.GetResource(resourceID)
	if err != nil {
		return err
	}
	mut(&rec)
	return s.cat.PutResource(rec)
}

// SwitchStrategy changes a project's allocation strategy mid-run.
func (s *Service) SwitchStrategy(ctx context.Context, projectID, spec string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	run, err := s.run(projectID)
	if err != nil {
		return err
	}
	strat, err := strategy.Parse(spec)
	if err != nil {
		return err
	}
	run.Engine.SwitchStrategy(strat)
	rec, err := s.cat.GetProject(projectID)
	if err != nil {
		return err
	}
	rec.Strategy = spec
	return s.cat.PutProject(rec)
}

// AddBudget extends a project's budget.
func (s *Service) AddBudget(ctx context.Context, projectID string, extra int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	run, err := s.run(projectID)
	if err != nil {
		return err
	}
	if err := run.Engine.AddBudget(extra); err != nil {
		return err
	}
	rec, err := s.cat.GetProject(projectID)
	if err != nil {
		return err
	}
	rec.Budget += extra
	rec.Status = store.ProjectActive
	return s.cat.PutProject(rec)
}

// StopProject halts further allocation (the Stop button on the main UI).
func (s *Service) StopProject(ctx context.Context, projectID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rec, err := s.cat.GetProject(projectID)
	if err != nil {
		return err
	}
	rec.Status = store.ProjectStopped
	if run, rerr := s.run(projectID); rerr == nil {
		// Stop all resources so the engine drains.
		for _, res := range run.Engine.cfg.Resources {
			_ = run.Engine.StopResource(res.ID)
		}
		rec.Spent = run.spent()
	}
	return s.cat.PutProject(rec)
}

// --- views ----------------------------------------------------------------------

// ProjectInfo merges the persisted project with live run state (the main
// provider UI row, Fig. 3).
type ProjectInfo struct {
	Project       store.ProjectRec `json:"project"`
	Spent         int              `json:"spent"`
	MeanStability float64          `json:"mean_stability"`
	MeanOracle    float64          `json:"mean_oracle,omitempty"`
	StrategyName  string           `json:"strategy_name"`
	PendingTasks  int              `json:"pending_tasks"`
}

// Project returns one project's info.
func (s *Service) Project(ctx context.Context, projectID string) (ProjectInfo, error) {
	return s.ProjectStamped(ctx, projectID, nil)
}

// ProjectStamped is Project recording into st what the answer depends on:
// the projects-table clock (the record), the run epoch (which run answers)
// and, with a live run, its engine's clock (spent, pending, the two means,
// the strategy in force).
func (s *Service) ProjectStamped(ctx context.Context, projectID string, st *Stamp) (ProjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return ProjectInfo{}, err
	}
	st.read(s.cat.Clock(store.TableProjects))
	rec, err := s.cat.GetProject(projectID)
	if err != nil {
		return ProjectInfo{}, err
	}
	info := ProjectInfo{Project: rec, Spent: rec.Spent, StrategyName: rec.Strategy}
	st.read(&s.runsEpoch)
	if run, rerr := s.run(projectID); rerr == nil {
		t := run.Engine.totals(st)
		info.Spent = run.spentBefore + t.spent
		info.MeanStability = t.meanStability
		info.MeanOracle = t.meanOracle
		info.StrategyName = t.strategy
		info.PendingTasks = t.pending
	}
	return info, nil
}

// ProjectsPage lists projects (optionally by provider) in ID order with
// cursor pagination: it returns up to limit rows after the cursor
// (limit <= 0 means all) plus the cursor for the next page ("" when
// exhausted). Cursors are opaque; a stale cursor — the project it pointed
// at was deleted — still works, resuming after its position in ID order.
//
// The page is a range scan: the catalog resumes the ordered project index
// right after the cursor and the scan stops as soon as the page is full
// and one further matching row (the "more pages exist" probe) has been
// seen. Nothing before the cursor is visited; with a provider filter the
// scan does step over interleaved rows of other providers (project keys
// are bare IDs), but those decode from the record cache, and the common
// unfiltered page touches exactly limit+1 rows.
func (s *Service) ProjectsPage(ctx context.Context, providerID, cursor string, limit int) ([]ProjectInfo, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	after, err := decodeCursor(cursor)
	if err != nil {
		return nil, "", err
	}
	out := make([]ProjectInfo, 0, 16)
	next := ""
	var pageErr error
	scanErr := s.cat.ScanProjectsAfter(after, func(rec store.ProjectRec) bool {
		if providerID != "" && rec.ProviderID != providerID {
			return true
		}
		if limit > 0 && len(out) == limit {
			// A later matching project exists: the page has a successor.
			next = encodeCursor(out[len(out)-1].Project.ID)
			return false
		}
		if err := ctx.Err(); err != nil {
			pageErr = err
			return false
		}
		info, err := s.Project(ctx, rec.ID)
		if err != nil {
			pageErr = err
			return false
		}
		out = append(out, info)
		return true
	})
	if scanErr != nil {
		return nil, "", scanErr
	}
	if pageErr != nil {
		return nil, "", pageErr
	}
	return out, next, nil
}

// ResourceDetail returns the single-resource details (Fig. 6).
func (s *Service) ResourceDetail(ctx context.Context, projectID, resourceID string) (ResourceStatus, error) {
	return s.ResourceDetailStamped(ctx, projectID, resourceID, nil)
}

// ResourceDetailStamped is ResourceDetail recording into st what the answer
// depends on: that resource's engine clock and nothing else. The run epoch
// is not part of it — there is no answer without a run, a project's run is
// never replaced or removed once installed, and the screen shows nothing of
// whether the run is executing — so a project created or started elsewhere
// leaves every resource screen's validator standing.
func (s *Service) ResourceDetailStamped(ctx context.Context, projectID, resourceID string, st *Stamp) (ResourceStatus, error) {
	if err := ctx.Err(); err != nil {
		return ResourceStatus{}, err
	}
	run, err := s.run(projectID)
	if err != nil {
		return ResourceStatus{}, err
	}
	return run.Engine.status(resourceID, st)
}

// QualitySeries returns a monitoring series for the project details screen
// (Fig. 5).
func (s *Service) QualitySeries(ctx context.Context, projectID, name string) ([]float64, []float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	run, err := s.run(projectID)
	if err != nil {
		return nil, nil, err
	}
	series := run.Engine.Monitor().Series(name)
	if series == nil {
		return nil, nil, errs.New(errs.ComponentCore, errs.CategoryValidation, "no series %q", name)
	}
	pts := series.Points()
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return xs, ys, nil
}

// Subscribe attaches a telemetry subscriber to the project's live run —
// the feed behind GET /api/v1/projects/{id}/events.
func (s *Service) Subscribe(ctx context.Context, projectID string, buf int) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	run, err := s.run(projectID)
	if err != nil {
		return nil, err
	}
	return run.Engine.Monitor().Subscribe(buf), nil
}

// --- manual (audience participation) flow -----------------------------------------

// tagger returns the stored ID of the tagger taggerID names. A task records
// the stored record's ID, not the caller's string: a held task outlives the
// request, and taggerID may be a substring of its body.
func (s *Service) tagger(taggerID string) (string, error) {
	u, err := s.cat.GetUser(taggerID)
	if err != nil {
		return "", errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown tagger %q", taggerID)
	}
	return u.ID, nil
}

// lease debits one task from the project's budget for the tagger whose
// stored ID is worker and mints its record. Nothing is written and the task
// cannot be submitted yet: the caller holds it and writes it, or refunds it.
func (s *Service) lease(projectID, worker string) (*Run, store.TaskRec, error) {
	run, err := s.run(projectID)
	if err != nil {
		return nil, store.TaskRec{}, err
	}
	resourceID, ok := run.Engine.ChooseNext()
	if !ok {
		return nil, store.TaskRec{}, errs.New(errs.ComponentCore, errs.CategoryExhausted, "project budget exhausted")
	}
	run.mu.Lock()
	run.taskSeq++
	seq := run.taskSeq
	run.mu.Unlock()
	var id [64]byte // projectID-task-NNNNN
	taskID := string(wire.AppendPadded(append(append(id[:0], projectID...), "-task-"...), uint64(seq), 5))
	return run, store.TaskRec{
		ID: taskID, ProjectID: projectID, ResourceID: resourceID,
		WorkerID: worker, Status: store.TaskAssigned,
		Reward:    run.Engine.cfg.PayPerTask,
		CreatedAt: s.nowFunc(),
	}, nil
}

// hold makes an assigned task submittable: t is the record as written.
func (run *Run) hold(t store.TaskRec) {
	run.mu.Lock()
	run.tasks[t.ID] = t
	run.mu.Unlock()
}

// refund takes back a leased task whose record could not be written. The
// tagger never sees it, so it must not stay debited and pending (and weigh
// on the resource's rank key) forever.
func (run *Run) refund(taskID, resourceID string) {
	run.mu.Lock()
	delete(run.tasks, taskID)
	run.mu.Unlock()
	_ = run.Engine.CancelPending(resourceID) // cannot fail: the task was pending
}

// RequestTask assigns the next tagging task to a human tagger (Fig. 7/8).
func (s *Service) RequestTask(ctx context.Context, projectID, taggerID string) (store.TaskRec, error) {
	if err := ctx.Err(); err != nil {
		return store.TaskRec{}, err
	}
	worker, err := s.tagger(taggerID)
	if err != nil {
		return store.TaskRec{}, err
	}
	run, rec, err := s.lease(projectID, worker)
	if err != nil {
		return store.TaskRec{}, err
	}
	run.hold(rec)
	if err := s.cat.PutTask(rec); err != nil {
		run.refund(rec.ID, rec.ResourceID)
		return store.TaskRec{}, err
	}
	return rec, nil
}

// SubmitTask completes a manual task with the tagger's post: the post and
// the completed task record are one commit, so a crash leaves both or
// neither, and a post that did not persist is reported, not acked. The
// completed record is built from the one the run holds since the lease
// wrote it; the store is not read.
func (s *Service) SubmitTask(ctx context.Context, projectID, taskID string, tags []string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	run, err := s.run(projectID)
	if err != nil {
		return err
	}
	run.mu.Lock()
	held, ok := run.tasks[taskID]
	if ok {
		delete(run.tasks, taskID)
	}
	run.mu.Unlock()
	if !ok {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown or already-completed task %q", taskID)
	}
	ws := s.cat.Begin(2)
	err = run.Engine.submitPost(held.ResourceID, held.WorkerID, tags, s.stagePost(ws))
	if err == nil {
		done := held
		done.Status = store.TaskCompleted
		done.DoneAt = s.nowFunc()
		_ = ws.PutTask(done) // lease minted both IDs; an encode error is Commit's
		if err = ws.Commit(); err != nil {
			run.Engine.reopenPending(held.ResourceID)
		}
	}
	if err != nil {
		// Nothing was consumed: hold the assigned record again so the tagger
		// can retry (a failed commit) or fix the post (e.g. empty tags).
		run.hold(held)
		return err
	}
	return nil
}

// BatchItem is one request(+submit) pair of a BatchTasks call. Tags empty =
// request only: the task stays assigned for a later SubmitTask.
type BatchItem struct {
	TaggerID string   `json:"tagger_id"`
	Tags     []string `json:"tags,omitempty"`
}

// BatchResult is one item's outcome: the task it leased, and whether its
// post went in. Err with TaskID set means the task was assigned but its post
// was rejected; it stays assigned.
type BatchResult struct {
	TaskID     string
	ResourceID string
	Submitted  bool
	Err        error
}

// BatchTasks runs many request(+submit) pairs against one project and
// commits them once: every task record and post of the call is one
// store.Apply. Items fail independently on validation, an unknown tagger or
// an exhausted budget; durability is all-or-nothing per call, so a failed
// commit fails every item that had anything to write, and their leases are
// refunded. A request+submit item writes its task once, already completed.
// The call itself fails only on cancellation, and still commits the items
// it got through (their posts are in the statistics by then): it returns
// their results, one for each item it reached, with the context's error.
// Each distinct tagger of the call is looked up once.
func (s *Service) BatchTasks(ctx context.Context, projectID string, items []BatchItem) ([]BatchResult, error) {
	out := make([]BatchResult, 0, len(items))
	ws := s.cat.Begin(2 * len(items))
	stage := s.stagePost(ws)
	workers := make(map[string]string) // an item's tagger ID → the stored one, looked up once
	var run *Run
	var ctxErr error
	for _, item := range items {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		worker, ok := workers[item.TaggerID]
		if !ok {
			var err error
			if worker, err = s.tagger(item.TaggerID); err != nil {
				out = append(out, BatchResult{Err: err})
				continue
			}
			workers[item.TaggerID] = worker
		}
		r, rec, err := s.lease(projectID, worker)
		if err != nil {
			out = append(out, BatchResult{Err: err})
			continue
		}
		run = r
		res := BatchResult{TaskID: rec.ID, ResourceID: rec.ResourceID}
		if len(item.Tags) > 0 {
			if res.Err = run.Engine.submitPost(rec.ResourceID, rec.WorkerID, item.Tags, stage); res.Err == nil {
				rec.Status = store.TaskCompleted
				rec.DoneAt = s.nowFunc()
				res.Submitted = true
			}
		}
		if !res.Submitted {
			run.hold(rec) // request only, or a rejected post: the task stays assigned
		}
		_ = ws.PutTask(rec) // lease mints both IDs; an encode error is Commit's
		out = append(out, res)
	}
	if err := ws.Commit(); err != nil {
		for i, res := range out {
			if res.TaskID == "" {
				continue // failed on its own, before it had anything to write
			}
			if res.Submitted {
				run.Engine.reopenPending(res.ResourceID)
			}
			run.refund(res.TaskID, res.ResourceID)
			out[i] = BatchResult{Err: err}
		}
	}
	return out, ctxErr
}

// JudgePost records the provider's approval verdict on a stored post and
// counts it in the tagger's stored record: Judged, and on approval JudgedOK
// and the project's pay in Earned, the incentive (Fig. 6 Notification
// actions). The verdict and the tagger's record are one commit, so the pay
// is durable, and replicated, exactly when the verdict is. A post is judged
// once: of concurrent judges of one post, one records its verdict and pays,
// and the rest get a conflict, "already judged". A post with no stored
// tagger behind it (a seed post, a simulated worker's) records the verdict
// alone.
func (s *Service) JudgePost(ctx context.Context, projectID, resourceID string, seq uint64, approved bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.judgeMu.Lock()
	defer s.judgeMu.Unlock()
	post, err := s.cat.GetPost(resourceID, seq)
	if err != nil {
		return err
	}
	if post.Approved != nil {
		return errs.New(errs.ComponentCore, errs.CategoryConflict, "post %s/%d already judged", resourceID, seq)
	}
	proj, err := s.cat.GetProject(projectID)
	if err != nil {
		return err
	}
	post.Approved = &approved
	ws := s.cat.Begin(2)
	if err := ws.UpdatePost(resourceID, seq, post); err != nil {
		return err
	}
	if post.TaggerID != "" {
		u, err := s.cat.GetUser(post.TaggerID)
		switch {
		case err == nil && u.Role == store.RoleTagger:
			u.Judged++
			if approved {
				u.JudgedOK++
				u.Earned += proj.PayPerTask
			}
			_ = ws.PutUser(u) // stored under its ID; an encode error is Commit's
		case err != nil && !errors.Is(err, store.ErrNotFound):
			return err
		}
	}
	return ws.Commit()
}

// RateProvider records a tagger's rating of a provider in the provider's
// stored record. The target must exist and actually be a provider
// (ErrInvalidRole otherwise).
func (s *Service) RateProvider(ctx context.Context, providerID string, positive bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.judgeMu.Lock()
	defer s.judgeMu.Unlock()
	rec, err := s.cat.GetUser(providerID)
	if err != nil {
		return err
	}
	if rec.Role != store.RoleProvider {
		return fmt.Errorf("%w: %q is a %s, not a provider", ErrInvalidRole, providerID, rec.Role)
	}
	rec.Judged++
	if positive {
		rec.JudgedOK++
	}
	return s.cat.PutUser(rec)
}

// ExportedResource is one row of a project export (the Export action).
type ExportedResource struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Posts     int       `json:"posts"`
	Stability float64   `json:"stability"`
	TopTags   []TagFreq `json:"top_tags"`
}

// EncodeExportRow is the row as an export page holds it: json.Marshal's
// encoding of the row, which escapes HTML as the response pipeline's
// json.Encoder does, then a comma. A page writes its last row without the
// comma. The comma trails so that it lands in the spare capacity of
// Marshal's slice: a leading one would cost a second copy of every row, and
// the heap the copied-from slices leave behind. A row json.Marshal refuses
// is an internal error.
func EncodeExportRow(row ExportedResource) ([]byte, error) {
	b, err := json.Marshal(row)
	if err != nil {
		return nil, errs.Wrap(err, errs.ComponentCore, errs.CategoryInternal, "encode export row %q", row.ID)
	}
	return append(b, ','), nil
}

// rowMemo is one export row's EncodeExportRow bytes, kept beside the clock
// that guards the row with the clock value and name they were encoded at.
// The bytes are never written after they are kept: a page holds them as
// they are, and a re-encode keeps a new slice. The zero value holds nothing.
type rowMemo struct {
	json  []byte
	clock uint64 // the row clock's value at the encode, plus one
	name  string
}

// lookup returns the kept bytes when they were encoded at clock value v
// under name. The caller holds the lock the clock advances under.
func (m *rowMemo) lookup(v uint64, name string) ([]byte, bool) {
	return m.json, m.clock == v+1 && m.name == name
}

// encode encodes row, whose Name is set, as the bytes of clock value v and
// keeps them; a row json.Marshal refuses is not kept. The caller holds the
// lock the clock advances under.
func (m *rowMemo) encode(v uint64, row ExportedResource) ([]byte, error) {
	b, err := EncodeExportRow(row)
	if err != nil {
		return nil, err
	}
	*m = rowMemo{json: b, clock: v + 1, name: row.Name}
	return b, nil
}

// exportSource is where a page's rows come from: the live run's engine, or,
// with no live run, the rows folded from the catalog (foldedRows). Each
// method records the row's clock into st before reading what it guards and
// reports ok=false for a resource it has no row for, which the page skips.
type exportSource interface {
	// exportRow is the row, Name left to the caller.
	exportRow(resourceID string, st *Stamp) (row ExportedResource, ok bool)
	// exportJSON is the row named name as EncodeExportRow encodes it, from
	// the row's memo while its clock and name have not moved.
	exportJSON(resourceID, name string, st *Stamp) (b []byte, ok bool, err error)
}

// exportPresize caps the rows, and the stamp clocks, a page reserves before
// its scan: the limit is the client's, so a larger page grows as it fills.
const exportPresize = 64

// ExportPage returns the project's resources with their consolidated tags,
// cursor-paginated over resource IDs: up to limit rows after the cursor
// (limit <= 0 means all) plus the next-page cursor ("" when exhausted).
// Like ProjectsPage it is a range scan that resumes the ordered resource
// index right after the cursor and ends once the page is full and a later
// resource of the project has been seen. Resource keys are bare IDs
// (GetResource has no project context), so the scan steps over interleaved
// rows of other projects — cache-decoded, not re-unmarshaled — and the
// final page runs to the end of the table to learn it is final; a
// per-project key layout would bound that too, at the cost of re-keying
// every resource access path.
func (s *Service) ExportPage(ctx context.Context, projectID, cursor string, limit int) ([]ExportedResource, string, error) {
	out := make([]ExportedResource, 0, presize(limit))
	next, err := s.exportScan(ctx, projectID, cursor, limit, nil, func(src exportSource, rec store.ResourceRec) (bool, error) {
		row, ok := src.exportRow(rec.ID, nil)
		if ok {
			row.Name = rec.Name
			out = append(out, row)
		}
		return ok, nil
	})
	if err != nil {
		return nil, "", err
	}
	return out, next, nil
}

// ExportPageStamped is ExportPage's page as its rows' encoded bytes
// (EncodeExportRow), recording into st what the page depends on: the run
// epoch, the resources-table clock (which rows, their names) and, row by
// row, the clock of each resource shown — so a post on a resource retires
// the one page holding it. Each row is kept encoded beside its clock, so a
// page costs an encode only for the rows whose clock or name moved since
// they were last encoded. Without a live run the rows are folded from the
// posts table, and the row clocks are the folded rows' (foldedRows) — same
// shape, plus the projects-table clock for the existence check. st may be
// nil. The returned slices are shared: callers must not write to them.
func (s *Service) ExportPageStamped(ctx context.Context, projectID, cursor string, limit int, st *Stamp) ([][]byte, string, error) {
	out := make([][]byte, 0, presize(limit))
	next, err := s.exportScan(ctx, projectID, cursor, limit, st, func(src exportSource, rec store.ResourceRec) (bool, error) {
		b, ok, err := src.exportJSON(rec.ID, rec.Name, st)
		if ok && err == nil {
			out = append(out, b)
		}
		return ok, err
	})
	if err != nil {
		return nil, "", err
	}
	return out, next, nil
}

// presize is how many rows a page of limit reserves.
func presize(limit int) int {
	if limit <= 0 || limit > exportPresize {
		return exportPresize
	}
	return limit
}

// exportScan is the one walk behind both export paths. It records the
// page's table clocks into st, then hands each resource of the project
// after the cursor, in ID order, to add with the source of its row, until
// add has shown limit rows; add reports whether it showed the row. It
// returns the next-page cursor.
func (s *Service) exportScan(ctx context.Context, projectID, cursor string, limit int, st *Stamp, add func(exportSource, store.ResourceRec) (bool, error)) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	after, err := decodeCursor(cursor)
	if err != nil {
		return "", err
	}
	st.grow(3 + presize(limit))
	st.read(&s.runsEpoch)
	var src exportSource
	if run, runErr := s.run(projectID); runErr == nil {
		src = run.Engine
	} else {
		// No live run: a follower replica, or a finished project. The
		// export is still servable from the catalog alone (foldedRows).
		// The project must at least exist; when it does not, the answer
		// is the same unknown-run error a write would get.
		st.read(s.cat.Clock(store.TableProjects))
		if _, err := s.cat.GetProject(projectID); err != nil {
			return "", runErr
		}
		src = s.folded
	}
	st.read(s.cat.Clock(store.TableResources))
	shown, last, next := 0, "", ""
	var addErr error
	scanErr := s.cat.ScanResourcesAfter(after, func(rec store.ResourceRec) bool {
		if rec.ProjectID != projectID {
			return true
		}
		if limit > 0 && shown == limit {
			next = encodeCursor(last)
			return false
		}
		ok, err := add(src, rec)
		if err != nil {
			addErr = err
			return false
		}
		if ok {
			shown, last = shown+1, rec.ID
		}
		return true
	})
	if scanErr != nil {
		return "", scanErr
	}
	if addErr != nil {
		return "", addErr
	}
	return next, nil
}

// --- cursors ------------------------------------------------------------------

// Cursors are opaque to clients: base64url over the last-returned ID.
func encodeCursor(id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(id))
}

func decodeCursor(cursor string) (string, error) {
	if cursor == "" {
		return "", nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return "", errs.New(errs.ComponentCore, errs.CategoryValidation, "invalid cursor %q", cursor)
	}
	return string(raw), nil
}
