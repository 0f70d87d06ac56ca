package quality

import (
	"fmt"
	"math"
	"sort"

	"itag/internal/rfd"
)

// This file is the map-path oracle: the string-keyed representation of an
// rfd that the interned one (rfd.ICounts, rfd.IHistory, rfd.Ref, Tracker)
// replaced. Each post re-materializes the distribution as a map and every
// comparison walks two maps, the direct reading of the definitions in paper
// §II. It ships in no binary; the parity suites (parity_test.go) drive it
// and the interned path with the same streams and hold their cosines within
// 1e-12, and BenchmarkTrackerAddPost times one against the other.

// mapCounts accumulates raw tag occurrence counts for one resource.
type mapCounts struct {
	counts map[string]int
	total  int
	posts  int
}

func newMapCounts() *mapCounts { return &mapCounts{counts: make(map[string]int)} }

// AddPost records one post: tags normalized, empties dropped, duplicates
// within the post counted once, and a post with no usable tags an error.
func (c *mapCounts) AddPost(tags []string) error {
	if len(tags) == 0 {
		return fmt.Errorf("rfd: post must contain at least one tag")
	}
	seen := make(map[string]struct{}, len(tags))
	for _, t := range tags {
		t = rfd.Normalize(t)
		if t == "" {
			continue
		}
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		c.counts[t]++
		c.total++
	}
	if len(seen) == 0 {
		return fmt.Errorf("rfd: post contained no usable tags")
	}
	c.posts++
	return nil
}

func (c *mapCounts) Posts() int           { return c.posts }
func (c *mapCounts) Total() int           { return c.total }
func (c *mapCounts) Distinct() int        { return len(c.counts) }
func (c *mapCounts) Count(tag string) int { return c.counts[rfd.Normalize(tag)] }

// Dist materializes the current rfd (a copy).
func (c *mapCounts) Dist() rfd.Dist {
	d := make(rfd.Dist, len(c.counts))
	if c.total == 0 {
		return d
	}
	inv := 1.0 / float64(c.total)
	for t, n := range c.counts {
		d[t] = float64(n) * inv
	}
	return d
}

// TopK returns the k most frequent tags, ties broken lexicographically.
func (c *mapCounts) TopK(k int) []rfd.TagFreq {
	out := make([]rfd.TagFreq, 0, len(c.counts))
	for t, n := range c.counts {
		out = append(out, rfd.TagFreq{Tag: t, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Tag < out[j].Tag
	})
	if k < len(out) {
		out = out[:k]
	}
	if c.total > 0 {
		for i := range out {
			out[i].Freq = float64(out[i].Count) / float64(c.total)
		}
	}
	return out
}

// mapRingDepth is the oracle's own snapshot ring: W_max+1 rfds, enough for
// any window Validate accepts, and sized apart from the interned ring so a
// wrong size there cannot hide in both.
const mapRingDepth = MaxWindow + 1

// mapHistory keeps a ring of the materialized rfd after each post.
type mapHistory struct {
	counts  *mapCounts
	ring    []rfd.Dist
	ringPos int
	taken   int
}

func newMapHistory() *mapHistory {
	return &mapHistory{counts: newMapCounts(), ring: make([]rfd.Dist, mapRingDepth)}
}

// AddPost records a post and snapshots the resulting rfd.
func (h *mapHistory) AddPost(tags []string) error {
	if err := h.counts.AddPost(tags); err != nil {
		return err
	}
	h.ring[h.ringPos] = h.counts.Dist()
	h.ringPos = (h.ringPos + 1) % len(h.ring)
	h.taken++
	return nil
}

func (h *mapHistory) Posts() int { return h.counts.Posts() }

// Current returns the latest rfd, or an empty Dist before any post.
func (h *mapHistory) Current() rfd.Dist {
	if h.taken == 0 {
		return rfd.Dist{}
	}
	d, _ := h.Back(0)
	return d
}

// Back returns the rfd as of back posts ago; false when not retained.
func (h *mapHistory) Back(back int) (rfd.Dist, bool) {
	if back < 0 || back >= h.taken || back >= len(h.ring) {
		return nil, false
	}
	return h.ring[((h.ringPos-1-back)%len(h.ring)+len(h.ring))%len(h.ring)], true
}

// mapCosine is the cosine similarity in [0, 1]; 0 if either side is empty.
func mapCosine(a, b rfd.Dist) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var dot, na, nb float64
	for t, va := range a {
		na += va * va
		if vb, ok := b[t]; ok {
			dot += va * vb
		}
	}
	for _, vb := range b {
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return clamp01(dot / (math.Sqrt(na) * math.Sqrt(nb)))
}

// --- the tracker ----------------------------------------------------------------

// MapTracker is the map-path stability tracker: a ring of materialized
// snapshots and a full-distribution cosine recomputation per post.
type MapTracker struct {
	window int
	hist   *mapHistory
	series []float64
}

// NewMapTracker returns a MapTracker with the (defaulted) config.
func NewMapTracker(cfg Config) *MapTracker {
	return &MapTracker{window: cfg.window(), hist: newMapHistory()}
}

// AddPost records a post and appends the new quality to the series.
func (t *MapTracker) AddPost(tags []string) error {
	if err := t.hist.AddPost(tags); err != nil {
		return err
	}
	t.series = append(t.series, t.compute())
	return nil
}

// compute is q_i(k): the cosine of rfd(k) and rfd(k−w), w = min(k−1, W),
// and 0 before the second post.
func (t *MapTracker) compute() float64 {
	k := t.hist.Posts()
	if k < 2 {
		return 0
	}
	prev, _ := t.hist.Back(min(t.window, k-1))
	return mapCosine(t.hist.Current(), prev)
}

// Quality returns the current stability quality in [0, 1].
func (t *MapTracker) Quality() float64 {
	if len(t.series) == 0 {
		return 0
	}
	return t.series[len(t.series)-1]
}

func (t *MapTracker) Posts() int         { return t.hist.Posts() }
func (t *MapTracker) Dist() rfd.Dist     { return t.hist.Current() }
func (t *MapTracker) Counts() *mapCounts { return t.hist.counts }
func (t *MapTracker) Series() []float64  { return append([]float64(nil), t.series...) }

// distOf materializes an interned accumulator's rfd, through TopK, for
// comparison against the oracle's maps.
func distOf(c *rfd.ICounts) rfd.Dist {
	d := make(rfd.Dist, c.Distinct())
	for _, tf := range c.TopK(c.Distinct()) {
		d[tf.Tag] = tf.Freq
	}
	return d
}
