package capacity

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// RouteSource is the slice of the metrics registry the governor samples.
// *api.Metrics satisfies it; tests substitute synthetic sources.
type RouteSource interface {
	// BucketBounds reports the finite histogram bucket upper bounds,
	// ascending; observations above the last bound land in an implicit
	// +Inf overflow slot.
	BucketBounds() []time.Duration
	// RouteBuckets snapshots a route's cumulative per-bucket counts —
	// len(BucketBounds())+1 slots, the last being the +Inf overflow.
	// ok is false when the route is unknown.
	RouteBuckets(route string) ([]uint64, bool)
	// RouteObservations reports a route's cumulative request count and
	// latency sum.
	RouteObservations(route string) (count uint64, sum time.Duration, ok bool)
	// InFlight reports requests currently being served across all routes.
	InFlight() int64
}

// GovernorConfig parameterises a Governor.
type GovernorConfig struct {
	// Routes are the metric labels of the admission-controlled routes;
	// each gets its own estimator and the tightest knee wins.
	Routes []string
	// SLO is the latency target the knee is solved against.
	SLO time.Duration
	// MaxConcurrency caps the knee when the model sees no saturation.
	// Default 1024.
	MaxConcurrency int
	// MinInterval throttles refits; Maybe() is called on every request
	// release but refits at most once per interval. Default 200ms.
	MinInterval time.Duration
	// Decay is the estimator EWMA weight (default 0.2).
	Decay float64
}

const (
	// sloQuantile is the quantile of the latency histograms the SLO is
	// checked against: the SLO is a p99 target.
	sloQuantile = 0.99
	// kneeHeadroom is the fraction of the SLO the model solves the knee
	// against. The regression fits mean latency; admitting until the
	// predicted MEAN hits the SLO would park the tail right on it, so the
	// knee targets kneeHeadroom·SLO and leaves the gap to absorb the
	// mean-to-p99 spread.
	kneeHeadroom = 0.85
)

func (c *GovernorConfig) fill() {
	if c.MaxConcurrency < 1 {
		c.MaxConcurrency = 1024
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 200 * time.Millisecond
	}
	if c.SLO <= 0 {
		c.SLO = time.Second
	}
}

// Governor closes the control loop: it samples the route latency
// histograms, refits one estimator per route, solves each model for the
// SLO knee, and installs the tightest result on the Limiter.
//
// The histograms are cumulative counters, so the governor diffs
// successive snapshots and reads only the window since the previous
// refit. Fitting on the all-time distribution would make overload
// sticky: one heavy transient pins the cumulative p99 at the bad tail
// long after the queue drains, the "observed over SLO" branch below
// keeps firing, and the ceiling ratchets to one and stays there. Within
// the window, the model fits the MEAN latency (continuous, from the
// count/sum deltas) and solves the knee against kneeHeadroom·SLO, while the
// bucketed tail quantile guards the SLO directly — see Refresh.
//
// Two safeguards wrap the raw model output:
//
//   - Multiplicative decrease on direct SLO evidence: when a route's
//     observed quantile already exceeds the SLO, the ceiling drops
//     immediately to inflight·SLO/observed regardless of what the model
//     extrapolates — the model needs several samples to catch up, the
//     overload is happening now.
//   - Bounded growth: the ceiling rises at most 25% per refresh, so one
//     optimistic fit after a quiet period cannot fling the gate open.
//
// Refresh is driven lazily from the request path (Maybe) rather than a
// background goroutine, so the governor has no lifecycle to manage.
type Governor struct {
	cfg     GovernorConfig
	src     RouteSource
	limiter *Limiter

	lastRefresh atomic.Int64 // unixnano of the last refit

	mu      sync.Mutex
	bounds  []time.Duration // histogram bucket bounds, cached at construction
	est     map[string]*Estimator
	prev    map[string][]uint64    // per-route bucket snapshot at last refit
	prevObs map[string]obsSnapshot // per-route count/sum at last refit
	winC    float64                // inflight at the last refit: the concurrency the current window's completions ran under
	// One multiplicative decrease per congestion event: after a shrink
	// the next windows still drain requests queued BEFORE it, so their
	// tails don't indict the new ceiling. shrinkTail remembers the
	// overshoot that triggered the shrink; equal-or-better tails hold
	// the ceiling (at most heldMax windows) instead of shrinking again.
	shrinkTail float64
	held       int
}

// heldMax bounds how many consecutive violating windows may ride out a
// previous shrink before fresh evidence forces another one.
const heldMax = 2

// obsSnapshot is a route's cumulative observation counters at one refit.
type obsSnapshot struct {
	count uint64
	sum   time.Duration
}

// NewGovernor wires a governor over a metrics source and the limiter it
// steers. The limiter starts at MaxConcurrency (fail open: shedding
// before any evidence of saturation would be a self-inflicted outage).
func NewGovernor(cfg GovernorConfig, src RouteSource, limiter *Limiter) *Governor {
	cfg.fill()
	limiter.SetLimit(cfg.MaxConcurrency)
	limiter.SetRetryAfter(retryAfterFor(cfg.SLO))
	g := &Governor{
		cfg:     cfg,
		src:     src,
		limiter: limiter,
		bounds:  src.BucketBounds(),
		est:     make(map[string]*Estimator, len(cfg.Routes)),
		prev:    make(map[string][]uint64, len(cfg.Routes)),
		prevObs: make(map[string]obsSnapshot, len(cfg.Routes)),
	}
	for _, r := range cfg.Routes {
		g.est[r] = NewEstimator(cfg.Decay)
	}
	return g
}

// Limiter returns the limiter this governor steers.
func (g *Governor) Limiter() *Limiter { return g.limiter }

// Maybe refreshes the model if at least MinInterval has elapsed since
// the last refresh. It is safe to call from many goroutines; exactly one
// wins the CAS and does the work.
func (g *Governor) Maybe(now time.Time) {
	last := g.lastRefresh.Load()
	if now.UnixNano()-last < int64(g.cfg.MinInterval) {
		return
	}
	if !g.lastRefresh.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	g.Refresh()
}

// Refresh refits every route estimator from the histograms and installs
// the resulting knee on the limiter. Exposed for tests and for callers
// that drive their own cadence.
func (g *Governor) Refresh() {
	g.mu.Lock()
	defer g.mu.Unlock()

	inflight := float64(g.src.InFlight())
	if inflight < 1 {
		inflight = 1
	}
	// The window's completions experienced the concurrency in effect when
	// the window OPENED, not the current sample — pairing them with the
	// post-refit inflight would flatten the fitted slope during growth
	// and inflate the knee.
	winC := g.winC
	if winC < 1 {
		winC = inflight
	}
	g.winC = inflight

	knee := math.Inf(1)
	worstOver := 0.0 // worst observed/SLO ratio across routes already over
	sampled := false
	for _, route := range g.cfg.Routes {
		counts, ok := g.src.RouteBuckets(route)
		if !ok {
			continue
		}
		window, n := diffBuckets(counts, g.prev[route])
		g.prev[route] = counts
		count, sum, _ := g.src.RouteObservations(route)
		po := g.prevObs[route]
		g.prevObs[route] = obsSnapshot{count: count, sum: sum}
		if n == 0 {
			continue // no new traffic since last refit: nothing to learn
		}
		sampled = true
		q, ok := windowQuantile(g.bounds, window, sloQuantile)
		if !ok {
			continue
		}
		tail := q.Seconds()
		// The regression needs a continuous latency signal: inside one
		// histogram bucket every quantile reads the same bound, the
		// fitted slope collapses to zero and the knee escapes to +Inf.
		// The window MEAN (count/sum deltas) has full resolution, so the
		// model fits mean latency; the bucketed tail only guards the SLO.
		mean := tail
		if count > po.count && sum > po.sum {
			mean = (sum - po.sum).Seconds() / float64(count-po.count)
		}
		if over := tail / g.cfg.SLO.Seconds(); over > worstOver {
			worstOver = over
		}
		// Only healthy windows feed the model: windows at or over the SLO
		// mix latencies of requests queued under the OLD ceiling with the
		// shrunken concurrency of the moment, and regressing on those
		// pairs corrupts both intercept and slope. The fitted knee still
		// applies below either way — the model just doesn't learn from
		// tainted windows.
		healthy := tail < g.cfg.SLO.Seconds()
		if healthy {
			g.est[route].Observe(winC, mean)
		}
		if m, ok := g.est[route].Model(); ok {
			// Validate the model against what is happening right now:
			// after a transient overload the EW slope can pin the knee
			// low long after the server recovered (variance and
			// covariance decay together, so the ratio survives). If the
			// model predicts more than twice the latency actually being
			// observed at this concurrency — and the route is healthy —
			// the model is stale-pessimistic; skip its knee and let the
			// bounded growth below probe the gate back open.
			if healthy && m.Latency(winC) > 2*mean {
				continue
			}
			if k := m.Knee(kneeHeadroom * g.cfg.SLO.Seconds()); k < knee {
				knee = k
			}
		}
	}

	if !sampled {
		// Nothing new observed: leave the ceiling alone. Idle refreshes
		// must not crank the gate open (or shut) on stale evidence.
		return
	}

	cur := float64(g.limiter.Limit())
	target := knee
	if worstOver > 1 {
		if g.shrinkTail > 0 && worstOver <= g.shrinkTail && g.held < heldMax {
			// Same congestion event as the last shrink: the window is
			// draining requests admitted under the old ceiling. Hold.
			g.held++
			target = cur
		} else {
			// Direct SLO violation: shrink multiplicatively off the live
			// inflight count, don't wait for the regression to catch up.
			md := inflight / worstOver
			if md < target {
				target = md
			}
			g.shrinkTail = worstOver
			g.held = 0
		}
	} else {
		g.shrinkTail = 0
		g.held = 0
	}
	if math.IsInf(target, 1) {
		target = float64(g.cfg.MaxConcurrency)
	}
	// Bounded growth, immediate shrink.
	if grown := cur * 1.25; target > grown && target > cur+1 {
		target = math.Max(grown, cur+1)
	}
	n := int(math.Floor(target))
	if n > g.cfg.MaxConcurrency {
		n = g.cfg.MaxConcurrency
	}
	g.limiter.SetLimit(n)
}

// Models snapshots the fitted per-route models (routes without enough
// samples are omitted) — surfaced in metrics and by tests.
func (g *Governor) Models() map[string]Model {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]Model, len(g.est))
	for route, e := range g.est {
		if m, ok := e.Model(); ok {
			out[route] = m
		}
	}
	return out
}

// diffBuckets subtracts a previous cumulative bucket snapshot from the
// current one, returning the per-bucket counts of the window in between
// and their total. A nil/short prev (first refit, route appeared late)
// counts from zero; a shrinking counter (registry reset) clamps to zero
// rather than wrapping.
func diffBuckets(cur, prev []uint64) (window []uint64, total uint64) {
	window = make([]uint64, len(cur))
	for i, c := range cur {
		if i < len(prev) && prev[i] <= c {
			c -= prev[i]
		} else if i < len(prev) {
			c = 0
		}
		window[i] = c
		total += c
	}
	return window, total
}

// windowQuantile reports the q-quantile of a window's bucket counts as
// the winning bucket's upper bound — deliberately conservative: rounding
// each observation up makes the fitted model over-predict latency a
// little, which errs the knee toward shedding slightly early rather than
// blowing the SLO. The +Inf overflow slot reports the last finite bound
// (the histogram cannot resolve beyond it).
func windowQuantile(bounds []time.Duration, counts []uint64, q float64) (time.Duration, bool) {
	if q <= 0 || q > 1 || len(bounds) == 0 {
		return 0, false
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i], true
			}
			return bounds[len(bounds)-1], true
		}
	}
	return bounds[len(bounds)-1], true
}

// retryAfterFor picks the Retry-After hint for an SLO: long enough for
// the queue to drain one SLO's worth of work, never below one second
// (the header granularity).
func retryAfterFor(slo time.Duration) time.Duration {
	d := 2 * slo
	if d < time.Second {
		d = time.Second
	}
	return d
}
