// Package quality implements the iTag tagging-quality model (paper §II).
//
// The quality q_i(k) of a resource with k posts is defined on the stability
// of its relative frequency distributions (rfds): a resource whose rfd stops
// changing as posts accumulate is well described by its tags. Two readings
// of the definition are implemented:
//
//   - Stability quality (online): similarity between the rfd at k posts and
//     the rfd at k−w posts, with window w = min(k−1, W). This is computable
//     by the live system and is what the Most-Unstable-first (MU) strategy
//     ranks on.
//   - Oracle quality (evaluation): similarity between the current rfd and a
//     reference distribution — the latent true distribution in simulation,
//     or the final replay rfd on a trace. Experiments report this as ground
//     truth; the optimal allocator maximizes its predicted value.
//
// The package also fits saturating convergence curves to observed quality
// series so the system can project quality gains for a budget before
// spending it (the "projected quality gains" monitoring in paper §I).
package quality

import (
	"fmt"
	"math"

	"itag/internal/rfd"
	"itag/internal/vocab"
)

// Metric selects the similarity measure used to compare two rfds. All
// metrics are mapped into [0, 1] where 1 means identical distributions.
type Metric int

const (
	// MetricCosine is cosine similarity (the default).
	MetricCosine Metric = iota
	// MetricJSD is 1 − JSD/ln2 (Jensen-Shannon divergence, normalized).
	MetricJSD
	// MetricL1 is 1 − L1/2 (total variation complement).
	MetricL1
	// MetricHellinger is 1 − Hellinger distance.
	MetricHellinger
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case MetricCosine:
		return "cosine"
	case MetricJSD:
		return "jsd"
	case MetricL1:
		return "l1"
	case MetricHellinger:
		return "hellinger"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// ParseMetric resolves a metric by name.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "cosine", "":
		return MetricCosine, nil
	case "jsd":
		return MetricJSD, nil
	case "l1":
		return MetricL1, nil
	case "hellinger":
		return MetricHellinger, nil
	default:
		return 0, fmt.Errorf("quality: unknown metric %q", name)
	}
}

// Similarity returns the [0,1] similarity between two rfds under the metric.
// If both distributions are empty the similarity is 0 (no evidence).
func (m Metric) Similarity(a, b rfd.Dist) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	switch m {
	case MetricJSD:
		return clamp01(1 - rfd.JSD(a, b)/math.Ln2)
	case MetricL1:
		return clamp01(1 - rfd.L1(a, b)/2)
	case MetricHellinger:
		return clamp01(1 - rfd.Hellinger(a, b))
	default:
		return clamp01(rfd.Cosine(a, b))
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Config parameterizes the stability quality metric.
type Config struct {
	// Metric is the rfd similarity measure (default cosine).
	Metric Metric
	// Window W: quality at k posts compares rfd(k) with rfd(k−w),
	// w = min(k−1, W). Default DefaultWindow.
	Window int
	// MinPosts is the post count below which quality is defined as 0
	// (a single post gives no stability evidence). Default 2.
	MinPosts int
}

// DefaultWindow is the default stability window W.
const DefaultWindow = 10

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MinPosts <= 0 {
		c.MinPosts = 2
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Window < 0 {
		return fmt.Errorf("quality: window must be non-negative, got %d", c.Window)
	}
	if c.Window > rfd.DefaultHistoryDepth {
		return fmt.Errorf("quality: window %d exceeds retained history depth %d", c.Window, rfd.DefaultHistoryDepth)
	}
	if c.MinPosts < 0 {
		return fmt.Errorf("quality: min posts must be non-negative, got %d", c.MinPosts)
	}
	return nil
}

// historyDepth is the snapshot retention both tracker implementations use.
func historyDepth(cfg Config) int {
	depth := cfg.Window + 1
	if depth < rfd.DefaultHistoryDepth {
		depth = rfd.DefaultHistoryDepth
	}
	return depth
}

// Tracker maintains one resource's rfd history and its stability-quality
// series on the interned hot path: tags become dense IDs through a shared
// interner, counts live in an ID-indexed vector with incrementally
// maintained norms, and the snapshot window is a copy-free delta ring — so
// each AddPost updates the quality in O(tags-in-window) for cosine (one
// array pass over the resource's support for the shape metrics) instead of
// cloning and re-walking string-keyed maps. Semantics are identical to the
// map-path oracle kept in maptracker_test.go (see the parity property
// tests).
//
// It is not safe for concurrent use; callers synchronize.
type Tracker struct {
	cfg    Config
	hist   *rfd.IHistory
	series []float64 // stability quality after each post
}

// NewTracker returns a Tracker with the (defaulted) config and a private
// interner. Engines and other multi-resource callers should share one
// interner across trackers via NewTrackerShared.
func NewTracker(cfg Config) *Tracker {
	return NewTrackerShared(cfg, vocab.NewInterner())
}

// NewTrackerShared returns a Tracker interning tags through in — the
// per-project (or wider) shared vocabulary. The history maintains the
// tracker's sliding comparison window incrementally, so the steady-state
// quality update costs O(tags-in-post).
func NewTrackerShared(cfg Config, in rfd.Interner) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{cfg: cfg, hist: rfd.NewIHistoryWindow(in, historyDepth(cfg), cfg.Window)}
}

// AddPost records a post and appends the new quality to the series.
func (t *Tracker) AddPost(tags []string) error {
	if err := t.hist.AddPost(tags); err != nil {
		return err
	}
	t.series = append(t.series, t.compute())
	return nil
}

func (t *Tracker) compute() float64 {
	k := t.hist.Posts()
	if k < t.cfg.MinPosts || k < 2 {
		return 0
	}
	w := t.cfg.Window
	if w > k-1 {
		w = k - 1
	}
	if v, ok := t.cfg.Metric.windowSimilarity(t.hist, w); ok {
		return v
	}
	// Window exceeds retained depth; fall back to deepest retained.
	d := t.hist.Depth() - 1
	if d < 1 {
		return 0
	}
	v, _ := t.cfg.Metric.windowSimilarity(t.hist, d)
	return v
}

// windowSimilarity maps the metric onto IHistory's incremental window
// comparisons, applying the same [0,1] transforms as Similarity.
func (m Metric) windowSimilarity(h *rfd.IHistory, back int) (float64, bool) {
	switch m {
	case MetricJSD:
		v, ok := h.WindowJSD(back)
		return clamp01(1 - v/math.Ln2), ok
	case MetricL1:
		v, ok := h.WindowL1(back)
		return clamp01(1 - v/2), ok
	case MetricHellinger:
		v, ok := h.WindowHellinger(back)
		return clamp01(1 - v), ok
	default:
		v, ok := h.WindowCosine(back)
		return clamp01(v), ok
	}
}

// Quality returns the current stability quality in [0, 1].
func (t *Tracker) Quality() float64 {
	if len(t.series) == 0 {
		return 0
	}
	return t.series[len(t.series)-1]
}

// Instability returns 1 − Quality; the MU strategy ranks descending on this.
func (t *Tracker) Instability() float64 { return 1 - t.Quality() }

// Posts returns how many posts have been recorded.
func (t *Tracker) Posts() int { return t.hist.Posts() }

// Dist returns the current rfd as a string-keyed map (boundary copy).
func (t *Tracker) Dist() rfd.Dist { return t.hist.Counts().Dist() }

// Counts exposes the interned tag counts (for UIs/exports; treat as
// read-only). Tag strings are resolved at this boundary (TopK, Dist).
func (t *Tracker) Counts() *rfd.ICounts { return t.hist.Counts() }

// NewRef binds a reference distribution to this tracker's counts for fast
// repeated oracle evaluation (see OracleRef).
func (t *Tracker) NewRef(ref rfd.Dist) *rfd.Ref {
	return rfd.NewRef(t.hist.Counts(), ref)
}

// Series returns the quality value after each post (copy).
func (t *Tracker) Series() []float64 {
	out := make([]float64, len(t.series))
	copy(out, t.series)
	return out
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Converged reports whether the last `span` quality values are all at least
// tau. It is the Quality Manager's stopping criterion for a resource.
func (t *Tracker) Converged(tau float64, span int) bool {
	return converged(t.series, tau, span)
}

func converged(series []float64, tau float64, span int) bool {
	if span <= 0 {
		span = 3
	}
	if len(series) < span {
		return false
	}
	for _, q := range series[len(series)-span:] {
		if q < tau {
			return false
		}
	}
	return true
}

// Oracle computes the oracle quality of a current rfd against a reference
// distribution under the metric. Use in evaluation and by the optimal
// allocator, never by live strategies (the reference is latent).
func Oracle(m Metric, current, reference rfd.Dist) float64 {
	return m.Similarity(current, reference)
}

// OracleRef is Oracle on the interned hot path: the reference was bound to
// an ICounts once (Tracker.NewRef / rfd.NewRef) and every evaluation is a
// single array pass instead of two map walks.
func OracleRef(m Metric, r *rfd.Ref) float64 {
	if r.BothEmpty() {
		return 0
	}
	switch m {
	case MetricJSD:
		return clamp01(1 - r.JSD()/math.Ln2)
	case MetricL1:
		return clamp01(1 - r.L1()/2)
	case MetricHellinger:
		return clamp01(1 - r.Hellinger())
	default:
		return clamp01(r.Cosine())
	}
}

// MeanQuality returns the average of per-resource qualities — the paper's
// q(R, k̄) = (1/n) Σ q_i(k_i). An empty slice yields 0.
func MeanQuality(qs []float64) float64 {
	if len(qs) == 0 {
		return 0
	}
	var s float64
	for _, q := range qs {
		s += q
	}
	return s / float64(len(qs))
}

// CountAtLeast returns how many qualities meet the threshold tau (Table I,
// MU row: "resources that can satisfy a certain quality requirement").
func CountAtLeast(qs []float64, tau float64) int {
	n := 0
	for _, q := range qs {
		if q >= tau {
			n++
		}
	}
	return n
}

// CountBelow returns how many qualities fall below tau (Table I, FP row:
// "resources with low tag quality").
func CountBelow(qs []float64, tau float64) int {
	n := 0
	for _, q := range qs {
		if q < tau {
			n++
		}
	}
	return n
}
