package quality

import "itag/internal/rfd"

// MapTracker is the map-path reference implementation of the stability
// tracker: string-keyed rfd maps, a ring of materialized Dist snapshots, and
// full-distribution similarity recomputation per post.
//
// It is the parity oracle the interned Tracker must match bit-for-bit (up
// to float rounding): the parity property tests compare the two on
// randomized post streams, and BenchmarkTrackerAddPost times one against
// the other. It lives in a _test.go file so no production code can use it.
type MapTracker struct {
	cfg    Config
	hist   *rfd.History
	series []float64
}

// NewMapTracker returns a MapTracker with the (defaulted) config.
func NewMapTracker(cfg Config) *MapTracker {
	cfg = cfg.withDefaults()
	return &MapTracker{cfg: cfg, hist: rfd.NewHistory(historyDepth(cfg))}
}

// AddPost records a post and appends the new quality to the series.
func (t *MapTracker) AddPost(tags []string) error {
	if err := t.hist.AddPost(tags); err != nil {
		return err
	}
	t.series = append(t.series, t.compute())
	return nil
}

func (t *MapTracker) compute() float64 {
	k := t.hist.Posts()
	if k < t.cfg.MinPosts || k < 2 {
		return 0
	}
	w := t.cfg.Window
	if w > k-1 {
		w = k - 1
	}
	prev, ok := t.hist.Back(w)
	if !ok {
		// Window exceeds retained depth; fall back to deepest retained.
		d := t.hist.Depth() - 1
		if d < 1 {
			return 0
		}
		prev, _ = t.hist.Back(d)
	}
	return t.cfg.Metric.Similarity(t.hist.Current(), prev)
}

// Quality returns the current stability quality in [0, 1].
func (t *MapTracker) Quality() float64 {
	if len(t.series) == 0 {
		return 0
	}
	return t.series[len(t.series)-1]
}

// Instability returns 1 − Quality.
func (t *MapTracker) Instability() float64 { return 1 - t.Quality() }

// Posts returns how many posts have been recorded.
func (t *MapTracker) Posts() int { return t.hist.Posts() }

// Dist returns the current rfd (copy).
func (t *MapTracker) Dist() rfd.Dist { return t.hist.Current() }

// Counts exposes the raw tag counts (treat as read-only).
func (t *MapTracker) Counts() *rfd.Counts { return t.hist.Counts() }

// Series returns the quality value after each post (copy).
func (t *MapTracker) Series() []float64 {
	out := make([]float64, len(t.series))
	copy(out, t.series)
	return out
}

// Config returns the tracker's effective configuration.
func (t *MapTracker) Config() Config { return t.cfg }

// Converged reports whether the last `span` quality values are all at least
// tau.
func (t *MapTracker) Converged(tau float64, span int) bool {
	return converged(t.series, tau, span)
}
