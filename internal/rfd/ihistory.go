package rfd

import "math"

// IHistory is one resource's rfd history: an ICounts plus a copy-free
// stability window. Instead of cloning the rfd after every post, it keeps a
// ring of the last W+1 per-post deltas (the slots each post touched — a
// handful of integers) plus the scalar stats (total, Σ n²) as of each post.
// Because counts only grow, the rfd as of w posts ago is the current vector
// minus the deltas of the last w posts, so the comparison snapshot is
// available without ever having been materialized.
//
// The window w = min(posts−1, W) is maintained incrementally: each AddPost
// adds its own delta and retires the delta leaving the window, so the
// snapshot w posts back differs from the current vector only on the slots
// the window holds, and the cosine needs just the stored norm of the old
// snapshot plus an O(tags-in-window) dot-product correction:
//
//	dot(cur, prev) = ‖prev‖² + Σ_{s ∈ window} mult(s)·prev(s)
//
// where mult(s) is how many window posts touched slot s. Counts are
// integers, so every quantity in that identity is exact in float64.
type IHistory struct {
	c      *ICounts
	deltas [][]int32  // ring of W+1: slots touched by each post
	stats  []snapStat // ring of W+1: totals after each post
	pos    int        // next write position
	taken  int

	window   int // target width W
	winWidth int // currently maintained width min(posts−1, W)
	winMult  []int32
	winSlots []int32 // active slots (mult > 0), each exactly once
	winPos   []int32 // slot → index in winSlots (−1 if inactive)
}

type snapStat struct {
	total int
	sumSq float64
}

// NewIHistory returns an IHistory over the interner that maintains the
// stability window of width min(posts−1, window), window ≥ 1.
func NewIHistory(in Interner, window int) *IHistory {
	return &IHistory{
		c:      NewICounts(in),
		deltas: make([][]int32, window+1),
		stats:  make([]snapStat, window+1),
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
	h.pos = (h.pos + 1) % len(h.deltas)
	h.taken++
	h.slideWindow(touched)
	return nil
}

// slideWindow folds the just-recorded post into the maintained window and
// retires posts that fell out of the min(posts−1, window) width.
func (h *IHistory) slideWindow(entering []int32) {
	for len(h.winMult) < len(h.c.counts) {
		h.winMult = append(h.winMult, 0)
		h.winPos = append(h.winPos, -1)
	}
	for _, s := range entering {
		if h.winMult[s] == 0 {
			h.winPos[s] = int32(len(h.winSlots))
			h.winSlots = append(h.winSlots, s)
		}
		h.winMult[s]++
	}
	h.winWidth++
	target := min(h.taken-1, h.window)
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

// idx maps "back posts ago" to a ring index (back=0 is the latest post).
func (h *IHistory) idx(back int) int {
	n := len(h.deltas)
	return ((h.pos-1-back)%n + n) % n
}

// WindowCosine returns the cosine similarity in [0, 1] between the current
// rfd and the rfd min(posts−1, W) posts ago, in O(tags-in-window); it is 0
// before the second post, when there is no earlier rfd to compare with.
// Cosine is scale-invariant, so it is computed directly on the (exact,
// integer-valued) count vectors.
func (h *IHistory) WindowCosine() float64 {
	if h.winWidth == 0 {
		return 0
	}
	// Both sides hold at least one post, and a post at least one tag, so
	// neither norm is 0.
	prev := h.stats[h.idx(h.winWidth)]
	dot := prev.sumSq
	for _, s := range h.winSlots {
		dot += float64(h.winMult[s]) * float64(h.c.counts[s]-h.winMult[s])
	}
	v := dot / (math.Sqrt(prev.sumSq) * math.Sqrt(h.c.sumSq))
	return min(max(v, 0), 1)
}
