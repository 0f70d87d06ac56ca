package rfd

import (
	"fmt"
	"slices"
	"sort"
)

// Interner is the tag↔ID mapping the interned rfd structures index by.
// vocab.Interner is the canonical implementation; the interface lives here
// so rfd does not import vocab (vocab already imports rfd).
type Interner interface {
	// ID interns a (normalized) tag and returns its dense uint32 ID.
	ID(tag string) uint32
	// Lookup returns the ID without interning; ok=false if unseen.
	Lookup(tag string) (uint32, bool)
	// Tag returns the string for an ID ("" if out of range).
	Tag(id uint32) string
	// Len returns how many tags are interned.
	Len() int
}

// ICounts is one resource's tag occurrence counts, held as a sparse
// ID-indexed vector. Tags map to dense *slots* in
// insertion order; slot indices are stable for the life of the accumulator,
// which lets IHistory reference slots from its snapshot ring and lets Ref
// cache a reference distribution aligned to the slot table.
//
// Alongside the counts it maintains the squared L2 norm Σ n² incrementally
// (counts are integers, so the norm stays exact in float64 until well past
// any realistic post volume), which is what makes cosine stability an
// O(tags-in-post) update instead of an O(vocab) recompute.
type ICounts struct {
	in     Interner
	ids    []uint32         // slot → global tag ID
	counts []int32          // slot → occurrence count
	local  map[uint32]int32 // global tag ID → slot
	total  int
	posts  int
	sumSq  float64 // Σ counts² (exact: integer-valued)

	touched []int32 // per-post scratch, reused across AddPost calls
}

// NewICounts returns an empty accumulator over the interner.
func NewICounts(in Interner) *ICounts {
	return &ICounts{in: in, local: make(map[uint32]int32)}
}

// Interner returns the interner this accumulator indexes by.
func (c *ICounts) Interner() Interner { return c.in }

// slot returns the slot for a global ID, allocating one if needed.
func (c *ICounts) slot(id uint32) int32 {
	if s, ok := c.local[id]; ok {
		return s
	}
	s := int32(len(c.ids))
	c.local[id] = s
	c.ids = append(c.ids, id)
	c.counts = append(c.counts, 0)
	return s
}

// AddPost records one post. A post is a *set* of tags (paper §II): tags are
// normalized, empties dropped, duplicates within the post counted once, and
// a post with no usable tags is an error.
func (c *ICounts) AddPost(tags []string) error {
	_, err := c.addPost(tags)
	return err
}

// addPost is AddPost returning the slots touched by the post (each exactly
// once); the returned slice is scratch owned by c, valid until the next
// addPost call.
func (c *ICounts) addPost(tags []string) ([]int32, error) {
	if len(tags) == 0 {
		return nil, fmt.Errorf("rfd: post must contain at least one tag")
	}
	touched := c.touched[:0]
	for _, t := range tags {
		t = Normalize(t)
		if t == "" {
			continue
		}
		s := c.slot(c.in.ID(t))
		dup := false
		for _, ts := range touched {
			if ts == s {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		touched = append(touched, s)
		n := float64(c.counts[s])
		c.counts[s]++
		c.total++
		c.sumSq += 2*n + 1 // (n+1)² − n²
	}
	c.touched = touched
	if len(touched) == 0 {
		return nil, fmt.Errorf("rfd: post contained no usable tags")
	}
	c.posts++
	return touched, nil
}

// Posts returns the number of posts recorded.
func (c *ICounts) Posts() int { return c.posts }

// Total returns the total number of tag occurrences recorded.
func (c *ICounts) Total() int { return c.total }

// Distinct returns the number of distinct tags seen.
func (c *ICounts) Distinct() int { return len(c.ids) }

// NormSq returns Σ n² over the count vector (exact).
func (c *ICounts) NormSq() float64 { return c.sumSq }

// Count returns the occurrence count for one tag.
func (c *ICounts) Count(tag string) int {
	id, ok := c.in.Lookup(Normalize(tag))
	if !ok {
		return 0
	}
	s, ok := c.local[id]
	if !ok {
		return 0
	}
	return int(c.counts[s])
}

// TopK returns the k most frequent tags with their relative frequencies,
// most frequent first, ties broken lexicographically (nil when there are
// none); tag strings are resolved at this boundary, and only for the tags
// that can still place. The best k are kept sorted in one k-slot slice, so a
// call costs O(n log k) over a vocabulary of n and one allocation, not a sort
// of the whole vocabulary.
func (c *ICounts) TopK(k int) []TagFreq {
	k = min(k, len(c.ids))
	if k <= 0 {
		return nil
	}
	out := make([]TagFreq, 0, k)
	for s, id := range c.ids {
		n := int(c.counts[s])
		if len(out) == k && n < out[k-1].Count {
			continue
		}
		tf := TagFreq{Tag: c.in.Tag(id), Count: n}
		at := sort.Search(len(out), func(i int) bool { return ranksAbove(tf, out[i]) })
		if at == k {
			continue
		}
		if len(out) == k {
			out = out[:k-1]
		}
		out = slices.Insert(out, at, tf)
	}
	if c.total > 0 {
		for i := range out {
			out[i].Freq = float64(out[i].Count) / float64(c.total)
		}
	}
	return out
}

// ranksAbove is TopK's order: count descending, then tag ascending.
func ranksAbove(a, b TagFreq) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Tag < b.Tag
}

// Clone deep-copies the accumulator (scratch excluded).
func (c *ICounts) Clone() *ICounts {
	n := &ICounts{
		in:     c.in,
		ids:    append([]uint32(nil), c.ids...),
		counts: append([]int32(nil), c.counts...),
		local:  make(map[uint32]int32, len(c.local)),
		total:  c.total,
		posts:  c.posts,
		sumSq:  c.sumSq,
	}
	for id, s := range c.local {
		n.local[id] = s
	}
	return n
}
