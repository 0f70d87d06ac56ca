package core

import (
	"slices"
	"sync/atomic"
)

// Stamp is what a read-side answer depended on: the write clocks of the
// state it read, each at the value it had no later than that read, and their
// sum. Every clock a Stamp may hold is monotone and advances only once the
// change it counts is visible — a table's store.Catalog.Clock after the
// store write, the service's run epoch after a run is installed or flips, an
// engine's per-resource and per-engine clocks inside the Engine.mu critical
// section that makes the change, a folded export row's clock under the row's
// mutex once the posts write is visible — so while the clocks still sum to
// the stamp none of them moved, and nothing the answer shows was written
// since. The encoded-response cache keeps one Stamp per entry and serves the
// entry, or a 304 for it, only while Current holds.
//
// The view methods that fill one (ProjectStamped, ResourceDetailStamped,
// ExportPageStamped) record each clock BEFORE reading what it guards; a nil
// *Stamp records nothing, which is how the unstamped wrappers call them.
type Stamp struct {
	clocks []*atomic.Uint64
	sum    uint64
}

// at records c as a dependency observed at value v. The caller guarantees
// the state c guards is read no earlier than v was: either v was loaded
// first, or both were read under the lock c is advanced under.
func (st *Stamp) at(c *atomic.Uint64, v uint64) {
	if st == nil {
		return
	}
	st.clocks = append(st.clocks, c)
	st.sum += v
}

// grow makes room for n more clocks, so a fill that knows its size records
// them without regrowing.
func (st *Stamp) grow(n int) {
	if st != nil {
		st.clocks = slices.Grow(st.clocks, n)
	}
}

// read records c at its current value; call it before reading what c guards.
func (st *Stamp) read(c *atomic.Uint64) { st.at(c, c.Load()) }

// Current reports whether no recorded clock has moved since it was recorded.
// It allocates nothing: one atomic load per dependency.
func (st *Stamp) Current() bool {
	var sum uint64
	for _, c := range st.clocks {
		sum += c.Load()
	}
	return sum == st.sum
}

// Len is the number of clocks recorded (what a holder accounts 8 bytes for).
func (st *Stamp) Len() int { return len(st.clocks) }
