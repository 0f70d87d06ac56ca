package core

import "itag/internal/strategy"

// rankIndex is the engine's incremental ChooseResources() for the ranked
// strategies (FP, MU, FP-MU): an indexed binary min-heap over the eligible
// resources, ordered by (key, tie). key is the strategy's own
// strategy.Ranked.Key; tie is a random priority drawn from the engine's
// seeded source every time a resource is (re)keyed, which makes the order
// inside a tie class a uniformly random permutation — what the strategies'
// Choose obtains by drawing a priority per candidate per call.
//
// A resource's key moves only when that resource is assigned, posted to,
// cancelled, stopped, resumed or exhausted, so each of those fixes one heap
// slot in O(log n) and a task request reads the top instead of ranking the
// whole project.
type rankIndex struct {
	heap []rankEntry
	pos  []int32 // resource index → heap slot, -1 when not in the heap
}

// rankEntry carries its key inline so a sift compares neighbouring memory
// instead of chasing per-resource arrays.
type rankEntry struct {
	key strategy.Key
	tie uint64
	res int32
}

func (a *rankEntry) before(b *rankEntry) bool {
	if a.key != b.key {
		return a.key.Less(b.key)
	}
	return a.tie < b.tie
}

// reset empties the index for n resources.
func (x *rankIndex) reset(n int) {
	x.heap = x.heap[:0]
	if len(x.pos) != n {
		x.pos = make([]int32, n)
	}
	for i := range x.pos {
		x.pos[i] = -1
	}
}

// min returns the smallest key in the index.
func (x *rankIndex) min() (strategy.Key, bool) {
	if len(x.heap) == 0 {
		return strategy.Key{}, false
	}
	return x.heap[0].key, true
}

// append adds resource i without restoring heap order; heapify follows.
func (x *rankIndex) append(i int, key strategy.Key, tie uint64) {
	x.pos[i] = int32(len(x.heap))
	x.heap = append(x.heap, rankEntry{key: key, tie: tie, res: int32(i)})
}

// heapify establishes heap order over appended entries in O(n).
func (x *rankIndex) heapify() {
	for j := len(x.heap)/2 - 1; j >= 0; j-- {
		x.down(j)
	}
}

// set inserts resource i or moves it to its place under a new (key, tie).
func (x *rankIndex) set(i int, key strategy.Key, tie uint64) {
	j := int(x.pos[i])
	if j < 0 {
		x.append(i, key, tie)
		x.up(len(x.heap) - 1)
		return
	}
	x.heap[j].key, x.heap[j].tie = key, tie
	if !x.down(j) {
		x.up(j)
	}
}

// remove takes resource i out of the index; absent resources are ignored.
func (x *rankIndex) remove(i int) {
	j := int(x.pos[i])
	if j < 0 {
		return
	}
	last := len(x.heap) - 1
	x.swap(j, last)
	x.heap = x.heap[:last]
	x.pos[i] = -1
	if j < last && !x.down(j) {
		x.up(j)
	}
}

// pop removes and returns the resource that ranks first.
func (x *rankIndex) pop() (int, bool) {
	if len(x.heap) == 0 {
		return 0, false
	}
	i := int(x.heap[0].res)
	x.remove(i)
	return i, true
}

func (x *rankIndex) swap(a, b int) {
	x.heap[a], x.heap[b] = x.heap[b], x.heap[a]
	x.pos[x.heap[a].res] = int32(a)
	x.pos[x.heap[b].res] = int32(b)
}

func (x *rankIndex) up(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !x.heap[j].before(&x.heap[parent]) {
			return
		}
		x.swap(j, parent)
		j = parent
	}
}

// down sifts slot j towards the leaves and reports whether it moved.
func (x *rankIndex) down(j int) bool {
	start := j
	for {
		first := j
		if l := 2*j + 1; l < len(x.heap) && x.heap[l].before(&x.heap[first]) {
			first = l
		}
		if r := 2*j + 2; r < len(x.heap) && x.heap[r].before(&x.heap[first]) {
			first = r
		}
		if first == j {
			return j != start
		}
		x.swap(j, first)
		j = first
	}
}
