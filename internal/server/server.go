// Package server exposes the iTag system over a versioned HTTP JSON API —
// the scriptable equivalent of the provider and tagger web UIs in the demo
// (paper Figs. 3–8). The surface lives under /api/v1 and is built
// on the internal/api handler kit: typed handlers, a structured error
// envelope with machine-readable codes, request IDs and metrics, plus a
// deadline on the routes that loop over items. Every UI action maps to one
// endpoint, and /api/v1 is the only prefix mounted (full request/response
// reference: docs/API.md):
//
//	GET  /api/v1/healthz                         liveness probe
//	GET  /api/v1/metrics                         in-flight / per-route latency metrics
//
//	POST /api/v1/providers                       register provider
//	POST /api/v1/taggers                         register tagger
//	POST /api/v1/taggers:batch                   register many taggers at once
//	GET  /api/v1/users/{id}                      approval rate / earnings
//	POST /api/v1/providers/{id}/rate             tagger rates a provider
//
//	GET  /api/v1/projects?provider=ID            main provider screen (Fig. 3; cursor-paginated)
//	POST /api/v1/projects                        Add Project (Fig. 4)
//	GET  /api/v1/projects/{id}                   project row + live stats
//	POST /api/v1/projects/{id}/stop              Stop project
//	POST /api/v1/projects/{id}/budget            add budget
//	POST /api/v1/projects/{id}/strategy          switch strategy (Fig. 5)
//	GET  /api/v1/projects/{id}/series?name=N     quality curve (Fig. 5)
//	GET  /api/v1/projects/{id}/events            live run telemetry over SSE
//	GET  /api/v1/projects/{id}/export            export tagged resources (cursor-paginated)
//	GET  /api/v1/projects/{id}/resources/{rid}   single resource (Fig. 6)
//	POST /api/v1/projects/{id}/resources/{rid}/promote|stop|resume
//
//	POST /api/v1/projects/{id}/tasks             tagger requests a task (Fig. 7)
//	POST /api/v1/projects/{id}/tasks:batch       request+submit many tasks in one call
//	POST /api/v1/projects/{id}/tasks/{tid}/submit   tagging screen (Fig. 8)
//	POST /api/v1/projects/{id}/posts/{rid}/{seq}/judge  approve/disapprove
package server

import (
	"context"
	"errors"
	"log"
	"net/http"
	"strconv"
	"time"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/errs"
	"itag/internal/store"
)

// statusClientClosedRequest is the nginx convention for "client went away
// before the response"; net/http has no constant for it.
const statusClientClosedRequest = 499

// Options tunes a Server beyond the defaults New picks.
type Options struct {
	// Logger receives the access log and panic reports; nil for silence.
	Logger *log.Logger
	// RouteTimeout bounds the routes that loop over items and check their
	// context per item: tasks:batch, taggers:batch and the projects list
	// (default 30s; < 0 disables).
	RouteTimeout time.Duration
	// SSEBuffer is the per-subscriber notification buffer for the events
	// stream (default 512). Small values make slow consumers drop sooner;
	// tests use 1–2 to exercise the drop path deterministically.
	SSEBuffer int
	// Admission, when non-nil, puts the lease routes (tasks, tasks:batch)
	// behind an AIMD admission gate: requests past its limit are shed with
	// 429 resource_exhausted and a Retry-After hint. Submits, health,
	// metrics and SSE routes are never gated.
	Admission *AdmissionOptions
	// RespCacheBytes bounds the encoded-response cache behind the hot GET
	// routes (project dashboard, resource detail, export): 0 picks the
	// 8 MiB default, < 0 disables the cache (those routes then encode per
	// request through the pooled pipeline, without ETags).
	RespCacheBytes int64
	// Metrics, when non-nil, is the registry this server's routes count
	// into instead of one of its own. A cluster node hands the same one to
	// the stack of every slot it leads or follows, so a request is counted
	// once per node under its route label whichever stack served it.
	Metrics *api.Metrics
}

// Server is the HTTP frontend over a core.Service.
type Server struct {
	svc          *core.Service
	mux          *http.ServeMux
	kit          *api.Kit
	metrics      *api.Metrics
	routeTimeout time.Duration
	sseBuffer    int
	// sseGate is a test hook: when non-nil an events stream, having sent
	// hello, reads nothing from its subscription until the gate closes —
	// a subscriber that provably fell behind.
	sseGate   <-chan struct{}
	admission *gate      // nil when admission control is off
	resp      *respCache // nil when the encoded-response cache is off
	handler   http.Handler
}

// New builds a Server with default options; logger may be nil for silence.
func New(svc *core.Service, logger *log.Logger) *Server {
	return NewWith(svc, Options{Logger: logger})
}

// NewWith builds a Server with explicit options.
func NewWith(svc *core.Service, opts Options) *Server {
	if opts.RouteTimeout == 0 {
		opts.RouteTimeout = 30 * time.Second
	}
	if opts.SSEBuffer <= 0 {
		opts.SSEBuffer = 512
	}
	s := &Server{
		svc:          svc,
		mux:          http.NewServeMux(),
		metrics:      opts.Metrics,
		routeTimeout: opts.RouteTimeout,
		sseBuffer:    opts.SSEBuffer,
	}
	if s.metrics == nil {
		s.metrics = api.NewMetrics()
	}
	s.kit = &api.Kit{MapError: mapErr, Metrics: s.metrics}
	if opts.RespCacheBytes >= 0 {
		s.resp = newRespCache(opts.RespCacheBytes)
	}
	s.initAdmission(opts.Admission)
	s.routes()
	s.handler = api.Chain(s.mux,
		api.RequestID,
		api.AccessLog(opts.Logger),
		api.Recover(s.kit, opts.Logger),
	)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Metrics exposes the per-route metrics registry (used by tests and the
// metrics endpoint).
func (s *Server) Metrics() *api.Metrics { return s.metrics }

// RespCacheStats reports the encoded-response cache counters (all zero
// when the cache is disabled).
func (s *Server) RespCacheStats() RespCacheStats { return s.resp.stats() }

// route mounts a route with metrics tracking.
func (s *Server) route(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.metrics.Track(pattern, h))
}

// withDeadline derives the route deadline from ctx. Only a handler that
// loops and checks its context per item takes one (tasks:batch,
// taggers:batch, the projects list): every other route reads its context
// once, at its Service method's entry, and waits on nothing that takes a
// context, so a deadline there could never fire. A client that goes away
// cancels any route through net/http's request context.
func (s *Server) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.routeTimeout < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.routeTimeout)
}

func (s *Server) routes() {
	k := s.kit

	s.route("GET /api/v1/healthz", api.Handle(k, http.StatusOK, func(*http.Request, api.None) (map[string]string, error) {
		return map[string]string{"status": "ok"}, nil
	}))
	s.route("GET /api/v1/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// HTTP counters plus the store's durability-layer counters (group
		// commit batching, fsyncs, segments, recovery time).
		type metricsResp struct {
			api.Snapshot
			Store *store.Stats `json:"store,omitempty"`
		}
		err := api.WriteJSON(w, http.StatusOK, metricsResp{
			Snapshot: s.metrics.Snapshot(),
			Store:    s.svc.StoreStats(),
		})
		if err != nil && errs.CategoryOf(err) != errs.CategoryIO {
			// Marshal failure: nothing was written yet, answer the envelope.
			s.kit.WriteError(w, r, err)
		}
	}))

	s.route("POST /api/v1/providers", api.Handle(k, http.StatusCreated, s.registerProvider))
	s.route("POST /api/v1/taggers", api.Handle(k, http.StatusCreated, s.registerTagger))
	s.route("POST /api/v1/taggers:batch", api.Handle(k, http.StatusOK, s.batchRegisterTaggers))
	s.route("GET /api/v1/users/{id}", api.Handle(k, http.StatusOK, s.getUser))
	s.route("POST /api/v1/providers/{id}/rate", api.Handle(k, http.StatusOK, s.rateProvider))

	s.route("GET /api/v1/projects", api.Handle(k, http.StatusOK, s.listProjects))
	s.route("POST /api/v1/projects", api.Handle(k, http.StatusCreated, s.createProject))
	// The three hot GETs (dashboard, export, resource detail) answer from
	// the encoded-response cache: ETag / If-None-Match revalidation,
	// Cache-Control: no-cache.
	s.route("GET /api/v1/projects/{id}", s.cachedJSON(respProject, emptyKeyB, func(r *http.Request, st *core.Stamp) (any, error) {
		return s.svc.ProjectStamped(r.Context(), r.PathValue("id"), st)
	}))
	s.route("POST /api/v1/projects/{id}/stop", api.Handle(k, http.StatusOK, s.stopProject))
	s.route("POST /api/v1/projects/{id}/budget", api.Handle(k, http.StatusOK, s.addBudget))
	s.route("POST /api/v1/projects/{id}/strategy", api.Handle(k, http.StatusOK, s.switchStrategy))
	s.route("GET /api/v1/projects/{id}/series", api.Handle(k, http.StatusOK, s.series))
	s.route("GET /api/v1/projects/{id}/export", s.cachedJSON(respExport, queryKeyB, s.export))
	s.route("GET /api/v1/projects/{id}/events", http.HandlerFunc(s.handleEvents))
	s.route("GET /api/v1/projects/{id}/resources/{rid}", s.cachedJSON(respDetail, ridKeyB, func(r *http.Request, st *core.Stamp) (any, error) {
		return s.svc.ResourceDetailStamped(r.Context(), r.PathValue("id"), r.PathValue("rid"), st)
	}))
	s.route("POST /api/v1/projects/{id}/resources/{rid}/promote", s.resourceAction((*core.Service).Promote))
	s.route("POST /api/v1/projects/{id}/resources/{rid}/stop", s.resourceAction((*core.Service).StopResource))
	s.route("POST /api/v1/projects/{id}/resources/{rid}/resume", s.resourceAction((*core.Service).ResumeResource))

	s.routeLimited("POST /api/v1/projects/{id}/tasks", api.Handle(k, http.StatusCreated, s.requestTask))
	s.routeLimited("POST /api/v1/projects/{id}/tasks:batch", api.Handle(k, http.StatusOK, s.batchTasks))
	s.route("POST /api/v1/projects/{id}/tasks/{tid}/submit", api.Handle(k, http.StatusOK, s.submitTask))
	s.route("POST /api/v1/projects/{id}/posts/{rid}/{seq}/judge", api.Handle(k, http.StatusOK, s.judgePost))

	// Whatever else is sent under /api/v1 — a retired route, or a method a
	// route does not take — answers the error envelope, not_found.
	s.mux.HandleFunc("/api/v1/", func(w http.ResponseWriter, r *http.Request) {
		k.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
	})
}

// mapErr translates service errors into transport errors with
// machine-readable codes (documented in docs/API.md). Context sentinels win
// first — a route timeout must surface as timeout even when it interrupts a
// taxonomy-classified operation. Everything else derives its status and code
// from the error taxonomy (internal/errs); errors with no taxonomy keep the
// historical 400/invalid_argument fallback.
func mapErr(err error) *api.Error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return api.Wrap(http.StatusGatewayTimeout, api.CodeTimeout, err)
	case errors.Is(err, context.Canceled):
		return api.Wrap(statusClientClosedRequest, api.CodeCanceled, err)
	}
	if te := errs.Find(err); te != nil {
		return api.FromTaxonomy(te, err)
	}
	return api.Wrap(http.StatusBadRequest, api.CodeInvalidArgument, err)
}

// --- users --------------------------------------------------------------------

type registerReq struct {
	Name string `json:"name"`
}

type registerResp struct {
	ID string `json:"id"`
}

func (s *Server) registerProvider(r *http.Request, req registerReq) (registerResp, error) {
	id, err := s.svc.RegisterProvider(r.Context(), req.Name)
	if err != nil {
		return registerResp{}, err
	}
	return registerResp{ID: id}, nil
}

func (s *Server) registerTagger(r *http.Request, req registerReq) (registerResp, error) {
	id, err := s.svc.RegisterTagger(r.Context(), req.Name)
	if err != nil {
		return registerResp{}, err
	}
	return registerResp{ID: id}, nil
}

type userResp struct {
	store.UserRec
	ApprovalRate float64 `json:"approval_rate"`
	Earned       float64 `json:"earned_total"`
}

// getUser answers from the stored record alone: its counts are written with
// every verdict and rating, so a restart or a promotion changes nothing here.
func (s *Server) getUser(r *http.Request, _ api.None) (userResp, error) {
	rec, err := s.svc.Catalog().GetUser(r.PathValue("id"))
	if err != nil {
		return userResp{}, err
	}
	return userResp{UserRec: rec, ApprovalRate: rec.ApprovalRate(), Earned: rec.Earned}, nil
}

type rateReq struct {
	Positive bool `json:"positive"`
}

func (s *Server) rateProvider(r *http.Request, req rateReq) (map[string]bool, error) {
	if err := s.svc.RateProvider(r.Context(), r.PathValue("id"), req.Positive); err != nil {
		return nil, err
	}
	return map[string]bool{"recorded": true}, nil
}

// --- projects -----------------------------------------------------------------

// CreateProjectReq is the Add Project form (Fig. 4).
type CreateProjectReq struct {
	ProviderID  string             `json:"provider_id"`
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Kind        string             `json:"kind,omitempty"`
	Budget      int                `json:"budget"`
	PayPerTask  float64            `json:"pay_per_task"`
	Strategy    string             `json:"strategy,omitempty"`
	Platform    string             `json:"platform,omitempty"`
	Resources   []UploadedResource `json:"resources,omitempty"`
}

// UploadedResource is one uploaded resource row.
type UploadedResource struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	Name string `json:"name"`
}

func (s *Server) createProject(r *http.Request, req CreateProjectReq) (registerResp, error) {
	spec := core.ProjectSpec{
		ProviderID: req.ProviderID, Name: req.Name, Description: req.Description,
		Kind: req.Kind, Budget: req.Budget, PayPerTask: req.PayPerTask,
		Strategy: req.Strategy, Platform: req.Platform,
	}
	for _, ur := range req.Resources {
		spec.Resources = append(spec.Resources, dataset.Resource{
			ID: ur.ID, Kind: dataset.Kind(ur.Kind), Name: ur.Name, Popularity: 1,
		})
	}
	id, err := s.svc.CreateProject(r.Context(), spec)
	if err != nil {
		return registerResp{}, err
	}
	return registerResp{ID: id}, nil
}

func (s *Server) stopProject(r *http.Request, _ api.None) (map[string]bool, error) {
	if err := s.svc.StopProject(r.Context(), r.PathValue("id")); err != nil {
		return nil, err
	}
	return map[string]bool{"stopped": true}, nil
}

type budgetReq struct {
	Extra int `json:"extra"`
}

func (s *Server) addBudget(r *http.Request, req budgetReq) (map[string]bool, error) {
	if err := s.svc.AddBudget(r.Context(), r.PathValue("id"), req.Extra); err != nil {
		return nil, err
	}
	return map[string]bool{"added": true}, nil
}

type strategyReq struct {
	Strategy string `json:"strategy"`
}

func (s *Server) switchStrategy(r *http.Request, req strategyReq) (map[string]bool, error) {
	if err := s.svc.SwitchStrategy(r.Context(), r.PathValue("id"), req.Strategy); err != nil {
		return nil, err
	}
	return map[string]bool{"switched": true}, nil
}

type seriesResp struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

func (s *Server) series(r *http.Request, _ api.None) (seriesResp, error) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = core.SeriesMeanStability
	}
	xs, ys, err := s.svc.QualitySeries(r.Context(), r.PathValue("id"), name)
	if err != nil {
		return seriesResp{}, err
	}
	return seriesResp{Name: name, X: xs, Y: ys}, nil
}

func (s *Server) resourceAction(action func(*core.Service, context.Context, string, string) error) http.HandlerFunc {
	return api.Handle(s.kit, http.StatusOK, func(r *http.Request, _ api.None) (map[string]bool, error) {
		if err := action(s.svc, r.Context(), r.PathValue("id"), r.PathValue("rid")); err != nil {
			return nil, err
		}
		return map[string]bool{"ok": true}, nil
	})
}

// --- tagger flow ----------------------------------------------------------------

type requestTaskReq struct {
	TaggerID string `json:"tagger_id"`
}

func (s *Server) requestTask(r *http.Request, req requestTaskReq) (store.TaskRec, error) {
	return s.svc.RequestTask(r.Context(), r.PathValue("id"), req.TaggerID)
}

type submitTaskReq struct {
	Tags []string `json:"tags"`
}

type submitResp struct {
	Submitted bool `json:"submitted"`
}

func (s *Server) submitTask(r *http.Request, req submitTaskReq) (submitResp, error) {
	if err := s.svc.SubmitTask(r.Context(), r.PathValue("id"), r.PathValue("tid"), req.Tags); err != nil {
		return submitResp{}, err
	}
	return submitResp{Submitted: true}, nil
}

type judgeReq struct {
	Approved bool `json:"approved"`
}

func (s *Server) judgePost(r *http.Request, req judgeReq) (map[string]bool, error) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		return nil, api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument,
			"invalid post sequence: %v", err)
	}
	if err := s.svc.JudgePost(r.Context(), r.PathValue("id"), r.PathValue("rid"), seq, req.Approved); err != nil {
		return nil, err
	}
	return map[string]bool{"judged": true}, nil
}

// parsePageParams reads ?limit= and ?cursor= (limit 0 = everything).
func parsePageParams(r *http.Request) (limit int, cursor string, err error) {
	q := r.URL.Query()
	cursor = q.Get("cursor")
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			return 0, "", api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument,
				"invalid limit %q", raw)
		}
	}
	return limit, cursor, nil
}
