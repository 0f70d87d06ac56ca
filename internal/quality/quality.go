// Package quality implements the iTag tagging-quality model (paper §II).
//
// The quality q_i(k) of a resource with k posts is defined on the stability
// of its relative frequency distributions (rfds): a resource whose rfd stops
// changing as posts accumulate is well described by its tags. Two readings
// of the definition are implemented, both as a cosine similarity in [0, 1]:
//
//   - Stability quality (online): the cosine of the rfd at k posts and the
//     rfd at k−w posts, with window w = min(k−1, W). This is computable by
//     the live system and is what the Most-Unstable-first (MU) strategy
//     ranks on.
//   - Oracle quality (evaluation): the cosine of the current rfd and a
//     reference distribution (rfd.Ref.Cosine) — the latent true
//     distribution in simulation, or the final replay rfd on a trace.
//     Experiments report this as ground truth; the optimal allocator
//     maximizes its predicted value.
//
// The package also fits saturating convergence curves to observed quality
// series so the system can project quality gains for a budget before
// spending it (the "projected quality gains" monitoring in paper §I).
package quality

import (
	"fmt"

	"itag/internal/rfd"
	"itag/internal/vocab"
)

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Config parameterizes the stability quality.
type Config struct {
	// Window W: quality at k posts compares rfd(k) with rfd(k−w),
	// w = min(k−1, W). Default DefaultWindow, at most MaxWindow.
	Window int
}

// DefaultWindow is the default stability window W.
const DefaultWindow = 10

// MaxWindow is the widest stability window Validate accepts.
const MaxWindow = 64

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Window < 0 {
		return fmt.Errorf("quality: window must be non-negative, got %d", c.Window)
	}
	if c.Window > MaxWindow {
		return fmt.Errorf("quality: window %d exceeds the maximum %d", c.Window, MaxWindow)
	}
	return nil
}

// window is the configured W, DefaultWindow when unset.
func (c Config) window() int {
	if c.Window <= 0 {
		return DefaultWindow
	}
	return c.Window
}

// Tracker maintains one resource's rfd history and its stability-quality
// series on the interned hot path: tags become dense IDs through a shared
// interner, counts live in an ID-indexed vector with incrementally
// maintained norms, and the stability window is a copy-free ring of W+1
// post deltas — so each AddPost updates the quality in O(tags-in-window)
// instead of cloning and re-walking string-keyed maps. Semantics are
// identical to the map-path oracle kept in oracle_test.go (see the parity
// property tests).
//
// It is not safe for concurrent use; callers synchronize.
type Tracker struct {
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
	return &Tracker{hist: rfd.NewIHistory(in, cfg.window())}
}

// AddPost records a post and appends the new quality to the series: the
// cosine of rfd(k) and rfd(k−w), 0 at the first post (a single post gives
// no stability evidence).
func (t *Tracker) AddPost(tags []string) error {
	if err := t.hist.AddPost(tags); err != nil {
		return err
	}
	t.series = append(t.series, t.hist.WindowCosine())
	return nil
}

// Quality returns the current stability quality in [0, 1].
func (t *Tracker) Quality() float64 {
	if len(t.series) == 0 {
		return 0
	}
	return t.series[len(t.series)-1]
}

// Posts returns how many posts have been recorded.
func (t *Tracker) Posts() int { return t.hist.Posts() }

// Counts exposes the interned tag counts (for UIs/exports; treat as
// read-only). Tag strings are resolved at this boundary (TopK).
func (t *Tracker) Counts() *rfd.ICounts { return t.hist.Counts() }

// NewRef binds a reference distribution to this tracker's counts for fast
// repeated oracle evaluation: Ref.Cosine is the oracle quality. Use it in
// evaluation and by the optimal allocator, never by live strategies (the
// reference is latent).
func (t *Tracker) NewRef(ref rfd.Dist) *rfd.Ref {
	return rfd.NewRef(t.hist.Counts(), ref)
}

// Series returns the quality value after each post (copy).
func (t *Tracker) Series() []float64 {
	out := make([]float64, len(t.series))
	copy(out, t.series)
	return out
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
