package rfd

import "math"

// IHistory is one resource's rfd history: an ICounts plus a copy-free
// snapshot window. Instead of cloning the rfd after every post, it keeps a
// ring of per-post deltas (the slots each post touched — a handful of
// integers) plus the scalar stats (total, Σ n²) as of each post. Because
// counts only grow, the rfd as of `back` posts ago is fully reconstructible
// from the current vector minus the deltas of the last `back` posts, so any
// retained snapshot is available without ever having been materialized.
//
// The payoff is in the stability comparisons: the snapshot w posts back
// differs from the current vector only on the slots touched by the last w
// posts, so cosine — the default quality metric — needs just the stored
// norm of the old snapshot plus an O(tags-in-window) dot-product correction:
//
//	dot(cur, prev) = ‖prev‖² + Σ_{s ∈ window} mult(s)·prev(s)
//
// where mult(s) is how many window posts touched slot s. Counts are
// integers, so every quantity in that identity is exact in float64. The
// distribution-shape metrics (L1, JSD, Hellinger, KL) reconstruct prev per
// slot and run one tight array pass over the resource's (small, convergent)
// support — no map iteration, no allocation.
type IHistory struct {
	c      *ICounts
	depth  int
	deltas [][]int32  // ring: slots touched by each post
	stats  []snapStat // ring: totals after each post
	pos    int        // next write position
	taken  int

	mult       []int32 // slot → multiplicity within the queried window (scratch)
	winTouched []int32 // slots with nonzero scratch mult (for O(window) reset)

	// Sliding-window maintenance (window >= 0): the multiplicities of the
	// last min(posts−1, window) posts are kept incrementally — each AddPost
	// adds its own delta and retires the delta leaving the window — so the
	// steady-state stability comparison needs no per-post window rebuild.
	window   int // target width (−1: disabled)
	winWidth int // currently maintained width
	winMult  []int32
	winSlots []int32 // active slots (mult > 0), each exactly once
	winPos   []int32 // slot → index in winSlots (−1 if inactive)
}

type snapStat struct {
	total int
	sumSq float64
}

// NewIHistory returns an IHistory over the interner retaining depth
// snapshots (DefaultHistoryDepth if depth <= 0).
func NewIHistory(in Interner, depth int) *IHistory {
	return NewIHistoryWindow(in, depth, -1)
}

// NewIHistoryWindow additionally maintains the sliding comparison window of
// width min(posts−1, window) incrementally — the stability tracker's access
// pattern. window must be < depth; pass a negative window to disable
// maintenance (arbitrary-back queries rebuild from the delta ring instead).
func NewIHistoryWindow(in Interner, depth, window int) *IHistory {
	if depth <= 0 {
		depth = DefaultHistoryDepth
	}
	if window >= depth {
		window = depth - 1
	}
	return &IHistory{
		c:      NewICounts(in),
		depth:  depth,
		deltas: make([][]int32, depth),
		stats:  make([]snapStat, depth),
		window: window,
	}
}

// AddPost records a post, snapshots the post's delta, and slides the
// maintained window forward.
func (h *IHistory) AddPost(tags []string) error {
	touched, err := h.c.addPost(tags)
	if err != nil {
		return err
	}
	h.deltas[h.pos] = append(h.deltas[h.pos][:0], touched...)
	h.stats[h.pos] = snapStat{total: h.c.total, sumSq: h.c.sumSq}
	h.pos = (h.pos + 1) % h.depth
	h.taken++
	if h.window >= 0 {
		h.slideWindow(touched)
	}
	return nil
}

// growWin sizes the maintained-window arrays to the slot table.
func (h *IHistory) growWin() {
	for len(h.winMult) < len(h.c.counts) {
		h.winMult = append(h.winMult, 0)
		h.winPos = append(h.winPos, -1)
	}
}

// slideWindow folds the just-recorded post into the maintained window and
// retires posts that fell out of the min(posts−1, window) width.
func (h *IHistory) slideWindow(entering []int32) {
	h.growWin()
	for _, s := range entering {
		if h.winMult[s] == 0 {
			h.winPos[s] = int32(len(h.winSlots))
			h.winSlots = append(h.winSlots, s)
		}
		h.winMult[s]++
	}
	h.winWidth++
	target := h.taken - 1
	if target > h.window {
		target = h.window
	}
	for h.winWidth > target {
		// The oldest post still in the window is winWidth−1 posts back.
		for _, s := range h.deltas[h.idx(h.winWidth-1)] {
			h.winMult[s]--
			if h.winMult[s] == 0 {
				i := h.winPos[s]
				last := h.winSlots[len(h.winSlots)-1]
				h.winSlots[i] = last
				h.winPos[last] = i
				h.winSlots = h.winSlots[:len(h.winSlots)-1]
				h.winPos[s] = -1
			}
		}
		h.winWidth--
	}
}

// Posts returns the number of posts recorded.
func (h *IHistory) Posts() int { return h.c.posts }

// Counts exposes the underlying accumulator (read-only use expected).
func (h *IHistory) Counts() *ICounts { return h.c }

// Depth returns how many snapshots are currently retrievable.
func (h *IHistory) Depth() int {
	if h.taken < h.depth {
		return h.taken
	}
	return h.depth
}

// idx maps "back posts ago" to a ring index (back=0 is the latest post).
func (h *IHistory) idx(back int) int {
	return ((h.pos-1-back)%h.depth + h.depth) % h.depth
}

// gather prepares a comparison against the snapshot `back` posts ago:
// it fills h.mult with each slot's multiplicity across the last `back`
// posts and returns that snapshot's scalar stats. ok=false when the
// snapshot is not retained or never existed.
func (h *IHistory) gather(back int) (snapStat, bool) {
	if back < 0 || back >= h.taken || back >= h.depth {
		return snapStat{}, false
	}
	for _, s := range h.winTouched {
		h.mult[s] = 0
	}
	h.winTouched = h.winTouched[:0]
	if n := len(h.c.counts); len(h.mult) < n {
		h.mult = append(h.mult, make([]int32, n-len(h.mult))...)
	}
	p := h.pos
	for i := 0; i < back; i++ {
		p--
		if p < 0 {
			p = h.depth - 1
		}
		for _, s := range h.deltas[p] {
			if h.mult[s] == 0 {
				h.winTouched = append(h.winTouched, s)
			}
			h.mult[s]++
		}
	}
	return h.stats[h.idx(back)], true
}

// windowFor resolves a comparison window: the incrementally maintained one
// when back matches its width, otherwise a scratch rebuild from the delta
// ring. mult is indexed by slot; slots lists each slot with mult > 0 once.
func (h *IHistory) windowFor(back int) (mult, slots []int32, prev snapStat, ok bool) {
	if back < 0 || back >= h.taken || back >= h.depth {
		return nil, nil, snapStat{}, false
	}
	if h.window >= 0 && back == h.winWidth {
		h.growWin()
		return h.winMult, h.winSlots, h.stats[h.idx(back)], true
	}
	prev, ok = h.gather(back)
	return h.mult, h.winTouched, prev, ok
}

// WindowCosine returns the cosine similarity between the current rfd and
// the rfd `back` posts ago in O(tags-in-window). Cosine is scale-invariant,
// so it is computed directly on the (exact, integer-valued) count vectors.
func (h *IHistory) WindowCosine(back int) (float64, bool) {
	mult, slots, prev, ok := h.windowFor(back)
	if !ok {
		return 0, false
	}
	if prev.sumSq == 0 || h.c.sumSq == 0 {
		return 0, true
	}
	dot := prev.sumSq
	for _, s := range slots {
		dot += float64(mult[s]) * float64(h.c.counts[s]-mult[s])
	}
	v := dot / (math.Sqrt(prev.sumSq) * math.Sqrt(h.c.sumSq))
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v, true
}

// WindowL1 returns the L1 distance Σ|cur−prev| between the current rfd and
// the rfd `back` posts ago (the prev support is always a subset of the
// current support, so one pass over the current slots covers both).
func (h *IHistory) WindowL1(back int) (float64, bool) {
	mult, _, prev, ok := h.windowFor(back)
	if !ok {
		return 0, false
	}
	tc, tp := float64(h.c.total), float64(prev.total)
	var d float64
	for s, cn := range h.c.counts {
		pn := cn - mult[s]
		d += math.Abs(float64(cn)/tc - float64(pn)/tp)
	}
	return d, true
}

// WindowKL returns KL(cur‖prev) with add-eps smoothing (eps = 1e-12).
func (h *IHistory) WindowKL(back int) (float64, bool) {
	mult, _, prev, ok := h.windowFor(back)
	if !ok {
		return 0, false
	}
	const eps = 1e-12
	tc, tp := float64(h.c.total), float64(prev.total)
	var d float64
	for s, cn := range h.c.counts {
		va := float64(cn) / tc
		vb := float64(cn-mult[s]) / tp
		d += va * math.Log((va+eps)/(vb+eps))
	}
	if d < 0 {
		d = 0
	}
	return d, true
}

// WindowJSD returns the Jensen-Shannon divergence (base e) between the
// current rfd and the rfd `back` posts ago: the mean of KL(cur‖m) and
// KL(prev‖m) for the midpoint m, each clamped at 0.
func (h *IHistory) WindowJSD(back int) (float64, bool) {
	mult, _, prev, ok := h.windowFor(back)
	if !ok {
		return 0, false
	}
	const eps = 1e-12
	tc, tp := float64(h.c.total), float64(prev.total)
	var da, db float64
	for s, cn := range h.c.counts {
		va := float64(cn) / tc
		vb := float64(cn-mult[s]) / tp
		m := va/2 + vb/2
		da += va * math.Log((va+eps)/(m+eps))
		if vb > 0 {
			db += vb * math.Log((vb+eps)/(m+eps))
		}
	}
	if da < 0 {
		da = 0
	}
	if db < 0 {
		db = 0
	}
	return (da + db) / 2, true
}

// WindowHellinger returns the Hellinger distance between the current rfd
// and the rfd `back` posts ago.
func (h *IHistory) WindowHellinger(back int) (float64, bool) {
	mult, _, prev, ok := h.windowFor(back)
	if !ok {
		return 0, false
	}
	tc, tp := float64(h.c.total), float64(prev.total)
	var sum float64
	for s, cn := range h.c.counts {
		va := float64(cn) / tc
		vb := float64(cn-mult[s]) / tp
		d := math.Sqrt(va) - math.Sqrt(vb)
		sum += d * d
	}
	v := math.Sqrt(sum / 2)
	if v > 1 {
		v = 1
	}
	return v, true
}
