package strategy

import (
	"container/heap"
	"fmt"

	"itag/internal/quality"
)

// This file implements the optimal allocation the demo compares against
// (§IV: "compare them with the optimal allocation strategy"). Given
// per-resource projected gain tables g_i(x) (from fitted or Monte-Carlo
// quality curves), the optimum maximizes Σ_i g_i(x_i) subject to Σ x_i = B.
//
// GainTables are monotone and concave by construction, so greedy marginal-
// gain allocation is exact; the tests cross-check it against an exact
// dynamic program (DPAllocate, in strategy_test.go).

// GreedyAllocate maximizes total projected gain with a max-heap over
// marginal gains: O(B log n). It returns the allocation x (len(tables))
// and the total projected gain. Budget beyond the tables' combined capacity
// is left unallocated.
func GreedyAllocate(tables []*quality.GainTable, budget int) ([]int, float64, error) {
	if budget < 0 {
		return nil, 0, fmt.Errorf("strategy: negative budget %d", budget)
	}
	x := make([]int, len(tables))
	if budget == 0 || len(tables) == 0 {
		return x, 0, nil
	}
	h := &marginalHeap{}
	for i, t := range tables {
		if t == nil {
			return nil, 0, fmt.Errorf("strategy: nil gain table at %d", i)
		}
		if t.MaxX() > 0 {
			heap.Push(h, marginalItem{idx: i, x: 0, gain: t.Marginal(0)})
		}
	}
	var total float64
	for b := 0; b < budget && h.Len() > 0; b++ {
		it := heap.Pop(h).(marginalItem)
		x[it.idx]++
		total += it.gain
		nx := it.x + 1
		if nx < tables[it.idx].MaxX() {
			heap.Push(h, marginalItem{idx: it.idx, x: nx, gain: tables[it.idx].Marginal(nx)})
		}
	}
	return x, total, nil
}

type marginalItem struct {
	idx  int
	x    int
	gain float64
}

type marginalHeap []marginalItem

func (h marginalHeap) Len() int { return len(h) }
func (h marginalHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].idx < h[j].idx // deterministic ties
}
func (h marginalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *marginalHeap) Push(v any)   { *h = append(*h, v.(marginalItem)) }
func (h *marginalHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
