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
// slot s's tag, and resid holds reference tags the accumulator has not seen
// yet (a set that only shrinks as the resource's vocabulary converges).
//
// Every sum runs in an order fixed by the tags alone — slots in post order,
// the reference in sorted tag order — so a seeded computation over a Ref is
// reproducible bit for bit, not merely to rounding.
type Ref struct {
	c       *ICounts
	byID    map[uint32]float64
	normSq  float64   // Σ vb² over the whole reference
	aligned []float64 // slot → reference mass (0 if tag not in reference)
	resid   []refMass // reference tags without a slot, in sorted tag order
	synced  int
}

// refMass is one reference tag's interned ID and mass.
type refMass struct {
	id uint32
	v  float64
}

// NewRef interns the reference distribution, in sorted tag order, and binds
// it to c. Reference keys are used as-is (no normalization).
func NewRef(c *ICounts, ref Dist) *Ref {
	tags := make([]string, 0, len(ref))
	for t := range ref {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	r := &Ref{c: c, byID: make(map[uint32]float64, len(ref)), resid: make([]refMass, 0, len(ref))}
	for _, t := range tags {
		v := ref[t]
		id := c.in.ID(t)
		r.byID[id] = v
		r.resid = append(r.resid, refMass{id: id, v: v})
		r.normSq += v * v
	}
	r.sync()
	return r
}

// sync aligns reference masses to slots added since the last evaluation and
// drops the reference tags that gained a slot from resid, keeping its order.
func (r *Ref) sync() {
	if r.synced == len(r.c.ids) {
		return
	}
	matched := false
	for s := r.synced; s < len(r.c.ids); s++ {
		v, ok := r.byID[r.c.ids[s]]
		r.aligned = append(r.aligned, v)
		matched = matched || ok
	}
	r.synced = len(r.c.ids)
	if !matched {
		return
	}
	kept := r.resid[:0]
	for _, m := range r.resid {
		if _, seen := r.c.local[m.id]; !seen {
			kept = append(kept, m)
		}
	}
	r.resid = kept
}

// BothEmpty reports whether both the accumulator and the reference are
// empty (the "no evidence" case metrics map to 0).
func (r *Ref) BothEmpty() bool { return r.c.total == 0 && len(r.byID) == 0 }

// Cosine returns the cosine similarity between the current rfd and the
// reference. Scale-invariance lets the accumulator side stay on exact
// integer counts.
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
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// L1 returns Σ|cur−ref|.
func (r *Ref) L1() float64 {
	r.sync()
	var d float64
	if r.c.total > 0 {
		tc := float64(r.c.total)
		for s, cn := range r.c.counts {
			d += math.Abs(float64(cn)/tc - r.aligned[s])
		}
	}
	for _, m := range r.resid {
		d += m.v
	}
	return d
}

// KL returns KL(cur‖ref) with add-eps smoothing (reference-only tags do not
// contribute: they carry no current mass).
func (r *Ref) KL() float64 {
	r.sync()
	const eps = 1e-12
	var d float64
	if r.c.total > 0 {
		tc := float64(r.c.total)
		for s, cn := range r.c.counts {
			va := float64(cn) / tc
			d += va * math.Log((va+eps)/(r.aligned[s]+eps))
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// JSD returns the Jensen-Shannon divergence (base e) between the current
// rfd and the reference, with IHistory.WindowJSD's per-term arithmetic.
func (r *Ref) JSD() float64 {
	r.sync()
	const eps = 1e-12
	var da, db float64
	if r.c.total > 0 {
		tc := float64(r.c.total)
		for s, cn := range r.c.counts {
			va := float64(cn) / tc
			vb := r.aligned[s]
			m := va/2 + vb/2
			da += va * math.Log((va+eps)/(m+eps))
			if vb > 0 {
				db += vb * math.Log((vb+eps)/(m+eps))
			}
		}
	}
	for _, m := range r.resid {
		if vb := m.v; vb > 0 {
			db += vb * math.Log((vb+eps)/(vb/2+eps))
		}
	}
	if da < 0 {
		da = 0
	}
	if db < 0 {
		db = 0
	}
	return (da + db) / 2
}

// Hellinger returns the Hellinger distance between the current rfd and the
// reference.
func (r *Ref) Hellinger() float64 {
	r.sync()
	var sum float64
	if r.c.total > 0 {
		tc := float64(r.c.total)
		for s, cn := range r.c.counts {
			d := math.Sqrt(float64(cn)/tc) - math.Sqrt(r.aligned[s])
			sum += d * d
		}
	}
	for _, m := range r.resid {
		sum += m.v
	}
	v := math.Sqrt(sum / 2)
	if v > 1 {
		v = 1
	}
	return v
}
