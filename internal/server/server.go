// Package server exposes the iTag system over a versioned HTTP JSON API —
// the scriptable equivalent of the provider and tagger web UIs in the demo
// (paper Figs. 3–8). The primary surface lives under /api/v1 and is built
// on the internal/api handler kit: typed handlers, a structured error
// envelope with machine-readable codes, request IDs, per-route timeouts
// and metrics. Every UI action maps to one endpoint (full request/response
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
//	POST /api/v1/projects/{id}/start             run with simulated taggers
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
//
// Every pre-v1 route (/api/providers, /api/projects/..., ...) remains
// mounted as a thin alias over the same v1 handlers, with the legacy
// {"error": "<message>"} error body, so existing clients keep working.
package server

import (
	"context"
	"errors"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"itag/internal/api"
	"itag/internal/capacity"
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
	// RouteTimeout bounds every non-streaming route (default 30s; < 0
	// disables).
	RouteTimeout time.Duration
	// SSEBuffer is the per-subscriber notification buffer for the events
	// stream (default 512). Small values make slow consumers drop sooner;
	// tests use 1–2 to exercise the drop path deterministically.
	SSEBuffer int
	// ExtraFamilies, when non-nil, contributes additional metric families
	// to PromHandler's exposition. The cluster layer injects its
	// replication watermarks through this hook so the pinned route and
	// store families stay untouched.
	ExtraFamilies func() []api.Family
	// Admission, when non-nil, puts the task routes behind queueing-model
	// admission control: requests past the fitted saturation knee are
	// shed with 429 resource_exhausted and a Retry-After hint. Health,
	// metrics and SSE routes are never gated.
	Admission *AdmissionOptions
	// RespCacheBytes bounds the encoded-response cache behind the hot GET
	// routes (project dashboard, resource detail, export): 0 picks the
	// 8 MiB default, < 0 disables the cache (those routes then encode per
	// request through the pooled pipeline, without ETags). The cache is
	// also disabled when the service's catalog keeps no write clocks.
	RespCacheBytes int64
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
	extraFams func() []api.Family
	admission *capacity.Governor // nil when admission control is off
	resp      *respCache         // nil when the encoded-response cache is off
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
		metrics:      api.NewMetrics(),
		routeTimeout: opts.RouteTimeout,
		sseBuffer:    opts.SSEBuffer,
		extraFams:    opts.ExtraFamilies,
	}
	s.kit = &api.Kit{MapError: mapErr, Metrics: s.metrics}
	if opts.RespCacheBytes >= 0 {
		s.resp = newRespCache(svc.ServeVersion, opts.RespCacheBytes)
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

// route mounts a v1 route with metrics tracking and the per-route timeout.
func (s *Server) route(pattern string, h http.Handler) {
	if s.routeTimeout > 0 {
		h = api.Timeout(s.routeTimeout)(h)
	}
	s.mux.Handle(pattern, s.metrics.Track(pattern, h))
}

// routeStream mounts a v1 streaming route: metrics, but no timeout (an SSE
// stream lives as long as the client wants).
func (s *Server) routeStream(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.metrics.Track(pattern, h))
}

// routeCached mounts a cached GET route: metrics, but no per-route
// timeout. A hit answers from memory in microseconds; a miss's compute
// still observes the request context's cancellation (every core.Service
// entry point checks it), and skipping the deadline keeps a timer
// allocation and three context allocations off the hottest path.
func (s *Server) routeCached(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.metrics.Track(pattern, h))
}

// legacyDeprecation is the RFC 9745 Deprecation header value on every
// legacy /api/* alias: 2026-08-08T00:00:00Z, the release that documented
// /api/v1 as the successor surface. Shared slices; never mutated.
var legacyDeprecation = []string{"@1786147200"}

// alias mounts a legacy /api/* route over a v1 handler: same semantics,
// pre-v1 string error bodies, plus the RFC 9745 deprecation headers
// (Deprecation and a successor-version Link naming the request's /api/v1
// equivalent).
func (s *Server) alias(pattern string, h http.Handler) {
	h = withDeprecation(h)
	h = api.WithLegacy(h)
	if s.routeTimeout > 0 {
		h = api.Timeout(s.routeTimeout)(h)
	}
	s.mux.Handle(pattern, s.metrics.Track(pattern, h))
}

// withDeprecation stamps the deprecation headers on a legacy route:
// "GET /api/projects/p1" → Link: </api/v1/projects/p1>;
// rel="successor-version". Every legacy path maps to its v1 successor by
// prefix substitution alone — the alias table mounts the same patterns.
func withDeprecation(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hd := w.Header()
		hd["Deprecation"] = legacyDeprecation
		hd["Link"] = []string{"</api/v1" + strings.TrimPrefix(r.URL.Path, "/api") + `>; rel="successor-version"`}
		h.ServeHTTP(w, r)
	})
}

func (s *Server) routes() {
	k := s.kit

	healthz := api.Handle(k, http.StatusOK, func(*http.Request, api.None) (map[string]string, error) {
		return map[string]string{"status": "ok"}, nil
	})

	registerProvider := api.Handle(k, http.StatusCreated, s.registerProvider)
	registerTagger := api.Handle(k, http.StatusCreated, s.registerTagger)
	getUser := api.Handle(k, http.StatusOK, s.getUser)
	rateProvider := api.Handle(k, http.StatusOK, s.rateProvider)

	createProject := api.Handle(k, http.StatusCreated, s.createProject)
	getProject := api.Handle(k, http.StatusOK, s.getProject)
	startProject := api.Handle(k, http.StatusAccepted, s.startProject)
	stopProject := api.Handle(k, http.StatusOK, s.stopProject)
	addBudget := api.Handle(k, http.StatusOK, s.addBudget)
	switchStrategy := api.Handle(k, http.StatusOK, s.switchStrategy)
	series := api.Handle(k, http.StatusOK, s.series)
	resourceDetail := api.Handle(k, http.StatusOK, s.resourceDetail)
	promote := s.resourceAction((*core.Service).Promote)
	stopRes := s.resourceAction((*core.Service).StopResource)
	resumeRes := s.resourceAction((*core.Service).ResumeResource)

	requestTask := api.Handle(k, http.StatusCreated, s.requestTask)
	submitTask := api.Handle(k, http.StatusOK, s.submitTask)
	judgePost := api.Handle(k, http.StatusOK, s.judgePost)

	// Cached v1 variants of the hot GETs: encoded-response cache, ETag /
	// If-None-Match revalidation, Cache-Control: no-cache. The legacy
	// aliases keep the plain handlers so their wire surface (headers
	// included) stays exactly pre-v1.
	getProjectCached := s.cachedJSON(respProject, emptyKeyB, func(r *http.Request) (any, error) {
		return s.svc.Project(r.Context(), r.PathValue("id"))
	})
	resourceDetailCached := s.cachedJSON(respDetail, ridKeyB, func(r *http.Request) (any, error) {
		return s.svc.ResourceDetail(r.Context(), r.PathValue("id"), r.PathValue("rid"))
	})
	exportCached := s.cachedJSON(respExport, queryKeyB, func(r *http.Request) (any, error) {
		return s.exportV1(r, api.None{})
	})

	// --- v1 ---------------------------------------------------------------
	s.route("GET /api/v1/healthz", healthz)
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

	s.route("POST /api/v1/providers", registerProvider)
	s.route("POST /api/v1/taggers", registerTagger)
	s.route("POST /api/v1/taggers:batch", api.Handle(k, http.StatusOK, s.batchRegisterTaggers))
	s.route("GET /api/v1/users/{id}", getUser)
	s.route("POST /api/v1/providers/{id}/rate", rateProvider)

	s.route("GET /api/v1/projects", api.Handle(k, http.StatusOK, s.listProjectsV1))
	s.route("POST /api/v1/projects", createProject)
	s.routeCached("GET /api/v1/projects/{id}", getProjectCached)
	s.route("POST /api/v1/projects/{id}/start", startProject)
	s.route("POST /api/v1/projects/{id}/stop", stopProject)
	s.route("POST /api/v1/projects/{id}/budget", addBudget)
	s.route("POST /api/v1/projects/{id}/strategy", switchStrategy)
	s.route("GET /api/v1/projects/{id}/series", series)
	s.routeCached("GET /api/v1/projects/{id}/export", exportCached)
	s.routeStream("GET /api/v1/projects/{id}/events", http.HandlerFunc(s.handleEvents))
	s.routeCached("GET /api/v1/projects/{id}/resources/{rid}", resourceDetailCached)
	s.route("POST /api/v1/projects/{id}/resources/{rid}/promote", promote)
	s.route("POST /api/v1/projects/{id}/resources/{rid}/stop", stopRes)
	s.route("POST /api/v1/projects/{id}/resources/{rid}/resume", resumeRes)

	s.routeLimited("POST /api/v1/projects/{id}/tasks", requestTask)
	s.routeLimited("POST /api/v1/projects/{id}/tasks:batch", api.Handle(k, http.StatusOK, s.batchTasks))
	s.routeLimited("POST /api/v1/projects/{id}/tasks/{tid}/submit", submitTask)
	s.route("POST /api/v1/projects/{id}/posts/{rid}/{seq}/judge", judgePost)

	// --- legacy aliases (pre-v1 surface; see docs/API.md appendix) --------
	s.alias("GET /api/healthz", healthz)
	s.alias("POST /api/providers", registerProvider)
	s.alias("POST /api/taggers", registerTagger)
	s.alias("GET /api/users/{id}", getUser)
	s.alias("POST /api/providers/{id}/rate", rateProvider)

	s.alias("GET /api/projects", api.Handle(k, http.StatusOK, s.listProjectsLegacy))
	s.alias("POST /api/projects", createProject)
	s.alias("GET /api/projects/{id}", getProject)
	s.alias("POST /api/projects/{id}/start", startProject)
	s.alias("POST /api/projects/{id}/stop", stopProject)
	s.alias("POST /api/projects/{id}/budget", addBudget)
	s.alias("POST /api/projects/{id}/strategy", switchStrategy)
	s.alias("GET /api/projects/{id}/series", series)
	s.alias("GET /api/projects/{id}/export", api.Handle(k, http.StatusOK, s.exportLegacy))
	s.alias("GET /api/projects/{id}/resources/{rid}", resourceDetail)
	s.alias("POST /api/projects/{id}/resources/{rid}/promote", promote)
	s.alias("POST /api/projects/{id}/resources/{rid}/stop", stopRes)
	s.alias("POST /api/projects/{id}/resources/{rid}/resume", resumeRes)

	s.aliasLimited("POST /api/projects/{id}/tasks", requestTask)
	s.aliasLimited("POST /api/projects/{id}/tasks/{tid}/submit", submitTask)
	s.alias("POST /api/projects/{id}/posts/{rid}/{seq}/judge", judgePost)
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

func (s *Server) getUser(r *http.Request, _ api.None) (userResp, error) {
	id := r.PathValue("id")
	rec, err := s.svc.Catalog().GetUser(id)
	if err != nil {
		return userResp{}, err
	}
	resp := userResp{UserRec: rec}
	if rec.Role == store.RoleTagger {
		resp.ApprovalRate = s.svc.Users().TaggerApprovalRate(id)
		resp.Earned = s.svc.Ledger().Earned(id)
	} else {
		resp.ApprovalRate = s.svc.Users().ProviderApprovalRate(id)
	}
	return resp, nil
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
	ProviderID   string             `json:"provider_id"`
	Name         string             `json:"name"`
	Description  string             `json:"description,omitempty"`
	Kind         string             `json:"kind,omitempty"`
	Budget       int                `json:"budget"`
	PayPerTask   float64            `json:"pay_per_task"`
	Strategy     string             `json:"strategy,omitempty"`
	Platform     string             `json:"platform,omitempty"`
	Simulate     bool               `json:"simulate,omitempty"`
	NumResources int                `json:"num_resources,omitempty"`
	Resources    []UploadedResource `json:"resources,omitempty"`
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
		Simulate: req.Simulate, NumResources: req.NumResources,
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

func (s *Server) listProjectsLegacy(r *http.Request, _ api.None) ([]core.ProjectInfo, error) {
	return s.svc.Projects(r.Context(), r.URL.Query().Get("provider"))
}

func (s *Server) getProject(r *http.Request, _ api.None) (core.ProjectInfo, error) {
	return s.svc.Project(r.Context(), r.PathValue("id"))
}

func (s *Server) startProject(r *http.Request, _ api.None) (map[string]bool, error) {
	if err := s.svc.StartSimulation(r.Context(), r.PathValue("id")); err != nil {
		return nil, err
	}
	s.refreshProject(r.PathValue("id"))
	return map[string]bool{"started": true}, nil
}

func (s *Server) stopProject(r *http.Request, _ api.None) (map[string]bool, error) {
	if err := s.svc.StopProject(r.Context(), r.PathValue("id")); err != nil {
		return nil, err
	}
	s.refreshProject(r.PathValue("id"))
	return map[string]bool{"stopped": true}, nil
}

type budgetReq struct {
	Extra int `json:"extra"`
}

func (s *Server) addBudget(r *http.Request, req budgetReq) (map[string]bool, error) {
	if err := s.svc.AddBudget(r.Context(), r.PathValue("id"), req.Extra); err != nil {
		return nil, err
	}
	s.refreshProject(r.PathValue("id"))
	return map[string]bool{"added": true}, nil
}

type strategyReq struct {
	Strategy string `json:"strategy"`
}

func (s *Server) switchStrategy(r *http.Request, req strategyReq) (map[string]bool, error) {
	if err := s.svc.SwitchStrategy(r.Context(), r.PathValue("id"), req.Strategy); err != nil {
		return nil, err
	}
	s.refreshProject(r.PathValue("id"))
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

func (s *Server) exportLegacy(r *http.Request, _ api.None) ([]core.ExportedResource, error) {
	return s.svc.Export(r.Context(), r.PathValue("id"))
}

func (s *Server) resourceDetail(r *http.Request, _ api.None) (core.ResourceStatus, error) {
	return s.svc.ResourceDetail(r.Context(), r.PathValue("id"), r.PathValue("rid"))
}

func (s *Server) resourceAction(action func(*core.Service, context.Context, string, string) error) http.HandlerFunc {
	return api.Handle(s.kit, http.StatusOK, func(r *http.Request, _ api.None) (map[string]bool, error) {
		if err := action(s.svc, r.Context(), r.PathValue("id"), r.PathValue("rid")); err != nil {
			return nil, err
		}
		s.refreshResource(r.PathValue("id"), r.PathValue("rid"))
		return map[string]bool{"ok": true}, nil
	})
}

// --- tagger flow ----------------------------------------------------------------

type requestTaskReq struct {
	TaggerID string `json:"tagger_id"`
}

func (s *Server) requestTask(r *http.Request, req requestTaskReq) (store.TaskRec, error) {
	task, err := s.svc.RequestTask(r.Context(), r.PathValue("id"), req.TaggerID)
	if err != nil {
		return store.TaskRec{}, err
	}
	s.refreshResource(r.PathValue("id"), task.ResourceID)
	return task, nil
}

type submitTaskReq struct {
	Tags []string `json:"tags"`
}

func (s *Server) submitTask(r *http.Request, req submitTaskReq) (map[string]bool, error) {
	if err := s.svc.SubmitTask(r.Context(), r.PathValue("id"), r.PathValue("tid"), req.Tags); err != nil {
		return nil, err
	}
	s.refreshProject(r.PathValue("id"))
	return map[string]bool{"submitted": true}, nil
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
	s.refreshResource(r.PathValue("id"), r.PathValue("rid"))
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
