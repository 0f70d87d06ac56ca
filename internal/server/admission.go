package server

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"itag/internal/api"
	"itag/internal/capacity"
	"itag/internal/errs"
)

// AdmissionOptions enables queueing-model admission control on the
// expensive task routes (request/submit/batch). Cheap control-plane
// routes — health, metrics, SSE — are never gated.
type AdmissionOptions struct {
	// SLO is the p99 latency target the admission knee is solved
	// against (default 500ms).
	SLO time.Duration
}

// admissionMaxConcurrency caps admitted concurrency when the model has no
// saturation evidence.
const admissionMaxConcurrency = 256

// admittedRoutes are the metric labels of the gated routes; the governor
// fits one latency model per label and the tightest knee steers the
// shared limiter.
var admittedRoutes = []string{
	"POST /api/v1/projects/{id}/tasks",
	"POST /api/v1/projects/{id}/tasks:batch",
	"POST /api/v1/projects/{id}/tasks/{tid}/submit",
}

// errSaturated is the shed response: 429 resource_exhausted through the
// taxonomy, so the error matrix and the envelope stay consistent.
var errSaturated error = errs.New(errs.ComponentAPI, errs.CategoryRateLimited,
	"server saturated: admission ceiling reached, retry after the advertised delay")

// initAdmission builds the governor/limiter pair for the configured SLO.
func (s *Server) initAdmission(opts *AdmissionOptions) {
	if opts == nil {
		return
	}
	slo := opts.SLO
	if slo <= 0 {
		slo = 500 * time.Millisecond
	}
	s.admission = capacity.NewGovernor(capacity.GovernorConfig{
		Routes:         admittedRoutes,
		SLO:            slo,
		MaxConcurrency: admissionMaxConcurrency,
	}, s.metrics, capacity.NewLimiter(admissionMaxConcurrency))
}

// Admission exposes the governor (nil when admission control is off) —
// used by the metrics exposition and by tests.
func (s *Server) Admission() *capacity.Governor { return s.admission }

// limited wraps a handler behind the saturation limiter. It sits OUTSIDE
// the metrics Track layer on purpose: shed responses return in
// microseconds and would drag the route's p99 down exactly when the
// governor needs to see the overload; keeping them out of the histogram
// (they still land in the error matrix via WriteError) keeps the model's
// input honest. The refit check rides on request completion, so the
// control loop needs no background goroutine.
func (s *Server) limited(h http.Handler) http.Handler {
	if s.admission == nil {
		return h
	}
	lim := s.admission.Limiter()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, ok := lim.TryAcquire()
		if !ok {
			secs := int(math.Ceil(lim.RetryAfter().Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			s.kit.WriteError(w, r, errSaturated)
			return
		}
		defer func() {
			release()
			s.admission.Maybe(time.Now())
		}()
		h.ServeHTTP(w, r)
	})
}

// routeLimited is route with the admission gate in front of the tracked
// handler.
func (s *Server) routeLimited(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.limited(s.metrics.Track(pattern, s.timed(h))))
}

// collectAdmission writes the admission limiter and its fitted models into
// x (nothing when admission control is off). labels has no spare capacity.
func (s *Server) collectAdmission(x *api.Exposition, labels []api.Label) {
	if s.admission == nil {
		return
	}
	lim := s.admission.Limiter()
	x.Gauge("itag_admission_limit", "Current admission ceiling (model knee).", float64(lim.Limit()), labels...)
	x.Gauge("itag_admission_inflight", "Admitted requests currently in flight.", float64(lim.Inflight()), labels...)
	x.Counter("itag_admission_admitted_total", "Requests admitted past the limiter.", float64(lim.Admitted()), labels...)
	x.Counter("itag_admission_shed_total", "Requests shed with 429 by the limiter.", float64(lim.Shed()), labels...)
	models := s.admission.Models()
	for _, route := range admittedRoutes {
		m, ok := models[route]
		if !ok {
			continue
		}
		lbl := append(labels, api.Label{Name: "route", Value: route})
		x.Gauge("itag_admission_model_alpha_seconds", "Fitted base service time per route.", m.Alpha, lbl...)
		x.Gauge("itag_admission_model_beta_seconds", "Fitted marginal latency per concurrent request.", m.Beta, lbl...)
	}
}
