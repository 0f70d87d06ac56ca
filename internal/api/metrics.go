package api

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/errs"
)

// latencyBucketBounds are the fixed per-route histogram bucket upper
// bounds (inclusive, Prometheus `le` convention). Spanning 100µs to 10s
// they cover everything from a cached point read to a route-timeout
// expiry; observations above the last bound land in the implicit +Inf
// bucket. Fixed bounds keep the hot path a single array increment — no
// allocation, no lock, no resizing.
var latencyBucketBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// numLatencyBuckets counts the finite buckets plus the +Inf overflow slot.
const numLatencyBuckets = len(latencyBucketBounds) + 1

// bucketIndex maps an observed duration to its bucket slot (the last slot
// is the +Inf overflow).
func bucketIndex(d time.Duration) int {
	for i, bound := range latencyBucketBounds {
		if d <= bound {
			return i
		}
	}
	return len(latencyBucketBounds)
}

// Metrics collects in-flight and per-route request statistics. Routes are
// labeled at registration time (the mux pattern), so the registry needs no
// request parsing and the request hot path touches only atomics — Track
// resolves the route's slot once at mount time. Two renderers read the same
// counters: Snapshot, the JSON at GET /api/v1/metrics (shape unchanged since
// v1), and Collect, the Prometheus series.
type Metrics struct {
	started time.Time
	// now is the clock Collect reads for the uptime gauge; tests pin it
	// for byte-stable golden output.
	now        func() time.Time
	inFlight   atomic.Int64
	sseStreams atomic.Int64
	sseDropped atomic.Int64

	mu     sync.Mutex
	routes map[string]*routeStats

	errMu     sync.Mutex
	errCounts map[errKey]uint64
}

// errKey labels one cell of the error counter matrix.
type errKey struct {
	component errs.Component
	category  errs.Category
}

// routeStats is one route's lock-free counter block. Everything is
// atomic: request handlers only ever Add, and scrapes only ever Load, so
// neither side contends. observe increments the latency bucket and the
// running sum BEFORE count — scrapes that read buckets first and count
// last therefore never see bucket totals exceeding count, which keeps a
// concurrently scraped histogram internally consistent (the exposition
// derives _count and +Inf from the bucket totals themselves).
type routeStats struct {
	count      atomic.Uint64
	byClass    [6]atomic.Uint64
	totalNanos atomic.Int64
	maxNanos   atomic.Int64
	buckets    [numLatencyBuckets]atomic.Uint64
}

// observe records one finished exchange.
func (rs *routeStats) observe(status int, elapsed time.Duration) {
	if elapsed < 0 {
		elapsed = 0
	}
	rs.buckets[bucketIndex(elapsed)].Add(1)
	rs.totalNanos.Add(int64(elapsed))
	for {
		cur := rs.maxNanos.Load()
		if int64(elapsed) <= cur || rs.maxNanos.CompareAndSwap(cur, int64(elapsed)) {
			break
		}
	}
	if c := status / 100; c >= 1 && c <= 5 {
		rs.byClass[c].Add(1)
	}
	rs.count.Add(1)
}

// bucketTotal sums the per-bucket counts; under concurrent writes it is
// the authoritative observation count for exposition (>= count because
// observe bumps buckets first).
func (rs *routeStats) bucketTotal() (total uint64, perBucket [numLatencyBuckets]uint64) {
	for i := range rs.buckets {
		perBucket[i] = rs.buckets[i].Load()
		total += perBucket[i]
	}
	return total, perBucket
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		started:   time.Now(),
		now:       time.Now,
		routes:    make(map[string]*routeStats),
		errCounts: make(map[errKey]uint64),
	}
}

// register resolves (or creates) the stats block for a route label.
func (m *Metrics) register(label string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[label]
	if !ok {
		rs = &routeStats{}
		m.routes[label] = rs
	}
	return rs
}

// swPool recycles the per-request status-recording writer wrapper.
// Nothing retains the wrapper past ServeHTTP (SSE handlers return when
// their stream ends), so returning it to the pool on the way out is safe.
var swPool = sync.Pool{New: func() any { return &statusWriter{} }}

// Track wraps a route handler with metrics collection under the given
// label (conventionally the mux pattern). The label's counter block is
// resolved here, once, so the per-request path is lock-free, and the
// status-writer wrapper is pooled. A handler that panics is counted as a
// 500, the answer Recover gives once the panic has unwound past Track.
func (m *Metrics) Track(label string, h http.Handler) http.Handler {
	if m == nil {
		return h
	}
	rs := m.register(label)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, 0
		m.inFlight.Add(1)
		start := time.Now()
		returned := false
		defer func() {
			elapsed := time.Since(start)
			m.inFlight.Add(-1)
			status := sw.status
			switch {
			case !returned:
				status = http.StatusInternalServerError
			case status == 0:
				status = http.StatusOK
			}
			rs.observe(status, elapsed)
			sw.ResponseWriter = nil
			swPool.Put(sw)
		}()
		h.ServeHTTP(sw, r)
		returned = true
	})
}

// BucketBounds returns the finite latency-bucket upper bounds shared by
// every route histogram, ascending (a copy; callers may retain it).
// Observations above the last bound land in an implicit +Inf overflow
// slot appended by RouteBuckets.
func (m *Metrics) BucketBounds() []time.Duration {
	out := make([]time.Duration, len(latencyBucketBounds))
	copy(out, latencyBucketBounds[:])
	return out
}

// RouteBuckets snapshots a route's cumulative per-bucket observation
// counts — len(BucketBounds())+1 slots, the last being the +Inf
// overflow. The counts are monotone, so consumers that need a windowed
// view (the admission governor fits its model on the traffic since its
// previous refresh, not on all-time history) subtract successive
// snapshots. ok is false for unknown routes.
func (m *Metrics) RouteBuckets(label string) ([]uint64, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	rs := m.routes[label]
	m.mu.Unlock()
	if rs == nil {
		return nil, false
	}
	_, per := rs.bucketTotal()
	out := make([]uint64, len(per))
	copy(out, per[:])
	return out, true
}

// RouteObservations reports a route's cumulative observation count and
// latency sum — the raw series the capacity estimator differentiates into
// per-interval arrival rate and mean service time. ok is false for
// unknown routes.
func (m *Metrics) RouteObservations(label string) (count uint64, sum time.Duration, ok bool) {
	if m == nil {
		return 0, 0, false
	}
	m.mu.Lock()
	rs := m.routes[label]
	m.mu.Unlock()
	if rs == nil {
		return 0, 0, false
	}
	// Count first: racing writers bump buckets/sum before count, so this
	// pairing never reports a sum missing observations it counted.
	count = rs.count.Load()
	return count, time.Duration(rs.totalNanos.Load()), true
}

// InFlight reports the requests currently being served across all routes —
// the live concurrency sample the queueing model pairs with histogram
// latencies.
func (m *Metrics) InFlight() int64 {
	if m == nil {
		return 0
	}
	return m.inFlight.Load()
}

// ObserveError counts one error response under its taxonomy labels. Blank
// labels fall back to the transport layer's own identity so every error
// lands in exactly one cell.
func (m *Metrics) ObserveError(component errs.Component, category errs.Category) {
	if m == nil {
		return
	}
	if component == "" {
		component = errs.ComponentAPI
	}
	if category == "" {
		category = errs.CategoryInternal
	}
	m.errMu.Lock()
	m.errCounts[errKey{component, category}]++
	m.errMu.Unlock()
}

// AddSSEStream adjusts the live-SSE-stream gauge (+1 on open, -1 on
// close).
func (m *Metrics) AddSSEStream(delta int64) {
	if m == nil {
		return
	}
	m.sseStreams.Add(delta)
}

// AddSSEDropped counts telemetry notifications a subscriber lost because
// it stalled or disconnected mid-stream.
func (m *Metrics) AddSSEDropped(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.sseDropped.Add(n)
}

// SSEDropped reports the total dropped SSE notifications.
func (m *Metrics) SSEDropped() int64 { return m.sseDropped.Load() }

// RouteSnapshot is one route's aggregated stats.
type RouteSnapshot struct {
	Route     string  `json:"route"`
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	Status2xx int64   `json:"status_2xx"`
	Status4xx int64   `json:"status_4xx"`
	Status5xx int64   `json:"status_5xx"`
	AvgMillis float64 `json:"avg_ms"`
	MaxMillis float64 `json:"max_ms"`
}

// Snapshot is the full metrics view served at /api/v1/metrics. Its JSON
// shape is frozen: scrape-grade detail (histogram buckets, error
// taxonomy) is served on the Prometheus endpoint instead.
type Snapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	InFlight      int64           `json:"in_flight"`
	TotalRequests int64           `json:"total_requests"`
	Routes        []RouteSnapshot `json:"routes"`
}

// Snapshot returns a point-in-time copy of all counters, routes sorted by
// label for stable output. The totals are derived here: total_requests is
// the sum of the routes' counts, a route's errors its 4xx plus its 5xx.
func (m *Metrics) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeSeconds: time.Since(m.started).Seconds(),
		InFlight:      m.inFlight.Load(),
	}
	for _, rc := range m.sortedRoutes() {
		rs := rc.rs
		count := rs.count.Load()
		r := RouteSnapshot{
			Route:     rc.label,
			Count:     int64(count),
			Status2xx: int64(rs.byClass[2].Load()),
			Status4xx: int64(rs.byClass[4].Load()),
			Status5xx: int64(rs.byClass[5].Load()),
			MaxMillis: float64(rs.maxNanos.Load()) / 1e6,
		}
		r.Errors = r.Status4xx + r.Status5xx
		if count > 0 {
			r.AvgMillis = float64(rs.totalNanos.Load()) / float64(count) / 1e6
		}
		snap.TotalRequests += r.Count
		snap.Routes = append(snap.Routes, r)
	}
	return snap
}

// labeledRoute is one route's counter block beside its label.
type labeledRoute struct {
	label string
	rs    *routeStats
}

// sortedRoutes lists the registered routes by label, for stable output.
func (m *Metrics) sortedRoutes() []labeledRoute {
	m.mu.Lock()
	routes := make([]labeledRoute, 0, len(m.routes))
	for label, rs := range m.routes {
		routes = append(routes, labeledRoute{label, rs})
	}
	m.mu.Unlock()
	sort.Slice(routes, func(i, j int) bool { return routes[i].label < routes[j].label })
	return routes
}

// Collect writes the registry's series into x: per-route request counters
// and latency histograms, status-class counters, the error taxonomy matrix
// and the SSE stream counters.
func (m *Metrics) Collect(x *Exposition) {
	x.Gauge("itag_uptime_seconds", "Seconds since the metrics registry was created.",
		m.now().Sub(m.started).Seconds())
	x.Gauge("itag_http_requests_in_flight", "HTTP requests currently being served.", float64(m.inFlight.Load()))
	const (
		duration = "itag_http_request_duration_seconds"
		durHelp  = "HTTP request latency, by route."
	)
	for _, rc := range m.sortedRoutes() {
		routeLabel := Label{"route", rc.label}
		// Buckets before count: see routeStats. The histogram's _count and
		// +Inf derive from the bucket totals so one scrape is always
		// internally consistent, even mid-burst.
		total, perBucket := rc.rs.bucketTotal()
		x.Counter("itag_http_requests_total", "HTTP requests served, by route.", float64(total), routeLabel)
		for class := 1; class <= 5; class++ {
			n := rc.rs.byClass[class].Load()
			if n == 0 && class != 2 && class != 4 && class != 5 {
				continue
			}
			x.Counter("itag_http_responses_total", "HTTP responses, by route and status class.", float64(n),
				routeLabel, Label{"class", fmt.Sprintf("%dxx", class)})
		}
		cumulative := uint64(0)
		for i, bound := range latencyBucketBounds {
			cumulative += perBucket[i]
			x.Add(duration, durHelp, TypeHistogram, Sample{
				Suffix: "_bucket",
				Labels: []Label{routeLabel, {"le", formatFloat(bound.Seconds())}},
				Value:  float64(cumulative),
			})
		}
		x.Add(duration, durHelp, TypeHistogram,
			Sample{Suffix: "_bucket", Labels: []Label{routeLabel, {"le", "+Inf"}}, Value: float64(total)})
		x.Add(duration, durHelp, TypeHistogram,
			Sample{Suffix: "_sum", Labels: []Label{routeLabel}, Value: float64(rc.rs.totalNanos.Load()) / 1e9})
		x.Add(duration, durHelp, TypeHistogram,
			Sample{Suffix: "_count", Labels: []Label{routeLabel}, Value: float64(total)})
	}

	m.errMu.Lock()
	keys := make([]errKey, 0, len(m.errCounts))
	for k := range m.errCounts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].component != keys[j].component {
			return keys[i].component < keys[j].component
		}
		return keys[i].category < keys[j].category
	})
	for _, k := range keys {
		x.Counter("itag_http_errors_total", "HTTP error responses, by taxonomy component and category.",
			float64(m.errCounts[k]), Label{"component", string(k.component)}, Label{"category", string(k.category)})
	}
	m.errMu.Unlock()

	x.Gauge("itag_sse_streams_active", "SSE telemetry streams currently open.", float64(m.sseStreams.Load()))
	x.Counter("itag_sse_dropped_events_total",
		"SSE telemetry notifications dropped because a subscriber stalled or disconnected.", float64(m.sseDropped.Load()))
}
