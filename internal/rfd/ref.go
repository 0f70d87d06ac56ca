package rfd

import (
	"math"
	"sort"
)

// Ref binds a fixed reference distribution (a resource's latent truth, or a
// trace's final rfd) to one ICounts for fast repeated comparison — the
// oracle-quality hot path. The reference is interned once and kept aligned
// to the accumulator's slot table, so every evaluation is a tight array
// pass instead of two map iterations: aligned[s] is the reference mass of
// slot s's tag.
//
// Every sum runs in an order fixed by the tags alone — slots in post order,
// the reference in sorted tag order — so a seeded computation over a Ref is
// reproducible bit for bit, not merely to rounding.
type Ref struct {
	c       *ICounts
	byID    map[uint32]float64
	normSq  float64   // Σ vb² over the whole reference
	aligned []float64 // slot → reference mass (0 if tag not in reference)
}

// NewRef interns the reference distribution, in sorted tag order, and binds
// it to c. Reference keys are used as-is (no normalization).
func NewRef(c *ICounts, ref Dist) *Ref {
	tags := make([]string, 0, len(ref))
	for t := range ref {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	r := &Ref{c: c, byID: make(map[uint32]float64, len(ref))}
	for _, t := range tags {
		v := ref[t]
		r.byID[c.in.ID(t)] = v
		r.normSq += v * v
	}
	r.sync()
	return r
}

// sync aligns reference masses to slots added since the last evaluation.
func (r *Ref) sync() {
	for s := len(r.aligned); s < len(r.c.ids); s++ {
		r.aligned = append(r.aligned, r.byID[r.c.ids[s]])
	}
}

// Cosine returns the cosine similarity in [0, 1] between the current rfd
// and the reference, 0 when either is empty (no evidence). Scale-invariance
// lets the accumulator side stay on exact integer counts.
func (r *Ref) Cosine() float64 {
	r.sync()
	if r.c.sumSq == 0 || r.normSq == 0 {
		return 0
	}
	var dot float64
	for s, cn := range r.c.counts {
		dot += float64(cn) * r.aligned[s]
	}
	v := dot / (math.Sqrt(r.c.sumSq) * math.Sqrt(r.normSq))
	return min(max(v, 0), 1)
}
