package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"itag/internal/api"
	"itag/internal/errs"
)

// AdmissionOptions enables admission control on the lease routes (tasks,
// tasks:batch). A submit is never gated: it spends a lease the gate
// already admitted, and its post's pay is already held. Cheap
// control-plane routes — health, metrics, SSE — are never gated either.
type AdmissionOptions struct {
	// SLO is the p99 latency target the gate steers against (default
	// 500ms): an admitted request slower than SLO/2 cuts the limit.
	SLO time.Duration
}

// admissionMaxConcurrency is the gate's starting limit and its ceiling.
const admissionMaxConcurrency = 256

// errSaturated is the shed response: 429 resource_exhausted through the
// taxonomy, so the error matrix and the envelope stay consistent.
var errSaturated error = errs.New(errs.ComponentAPI, errs.CategoryRateLimited,
	"server saturated: admission ceiling reached, retry after the advertised delay")

// gate is an AIMD concurrency limit timed by the requests it admits. A
// completed request slower than slow cuts the limit to ×0.75, once per
// congestion event: only a request admitted after the last cut may cut
// again, so the backlog queued before a cut does not cut twice. Any other
// completion grows the limit by 1/limit, up to admissionMaxConcurrency.
type gate struct {
	slow       time.Duration
	retryAfter string // the shed responses' Retry-After, in whole seconds

	mu       sync.Mutex
	limit    float64
	inflight int
	seq      uint64 // admissions so far; a request's ticket is its number
	cutAt    uint64 // seq at the last cut
	admitted uint64
	shed     uint64
}

func newGate(slo time.Duration) *gate {
	// Retry-After is long enough for the queue to drain one SLO's worth of
	// work, never below one second (the header granularity).
	return &gate{
		slow:       slo / 2,
		retryAfter: strconv.Itoa(int(math.Ceil(max(2*slo, time.Second).Seconds()))),
		limit:      admissionMaxConcurrency,
	}
}

// acquire admits one request unless the limit is reached, returning its
// ticket for release.
func (g *gate) acquire() (ticket uint64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight >= int(g.limit) {
		g.shed++
		return 0, false
	}
	g.inflight++
	g.admitted++
	g.seq++
	return g.seq, true
}

// release retires an admitted request that took elapsed.
func (g *gate) release(ticket uint64, elapsed time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	switch {
	case elapsed <= g.slow:
		g.limit = min(g.limit+1/g.limit, admissionMaxConcurrency)
	case ticket > g.cutAt:
		g.limit = max(g.limit*0.75, 1)
		g.cutAt = g.seq
	}
}

// state reads the limit, in-flight count and counters under one lock.
func (g *gate) state() (limit, inflight int, admitted, shed uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int(g.limit), g.inflight, g.admitted, g.shed
}

// initAdmission builds the gate for the configured SLO.
func (s *Server) initAdmission(opts *AdmissionOptions) {
	if opts == nil {
		return
	}
	slo := opts.SLO
	if slo <= 0 {
		slo = 500 * time.Millisecond
	}
	s.admission = newGate(slo)
}

// limited wraps a handler behind the gate. It sits OUTSIDE the metrics
// Track layer: shed responses return in microseconds and would drag the
// route's p99 down exactly when the gate is shedding; they land in the
// error matrix via WriteError instead.
func (s *Server) limited(h http.Handler) http.Handler {
	g := s.admission
	if g == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ticket, ok := g.acquire()
		if !ok {
			w.Header().Set("Retry-After", g.retryAfter)
			s.kit.WriteError(w, r, errSaturated)
			return
		}
		start := time.Now()
		defer func() { g.release(ticket, time.Since(start)) }()
		h.ServeHTTP(w, r)
	})
}

// routeLimited is route with the admission gate in front of the tracked
// handler.
func (s *Server) routeLimited(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.limited(s.metrics.Track(pattern, s.timed(h))))
}

// collectAdmission writes the gate's state into x (nothing when admission
// control is off).
func (s *Server) collectAdmission(x *api.Exposition, labels []api.Label) {
	if s.admission == nil {
		return
	}
	limit, inflight, admitted, shed := s.admission.state()
	x.Gauge("itag_admission_limit", "Current admission ceiling.", float64(limit), labels...)
	x.Gauge("itag_admission_inflight", "Admitted requests currently in flight.", float64(inflight), labels...)
	x.Counter("itag_admission_admitted_total", "Requests admitted past the gate.", float64(admitted), labels...)
	x.Counter("itag_admission_shed_total", "Requests shed with 429 by the gate.", float64(shed), labels...)
}
