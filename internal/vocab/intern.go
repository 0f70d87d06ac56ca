package vocab

import "sync"

// Interner maps tag strings to dense uint32 IDs and back. One interner is
// shared by every resource of a project (and may be shared wider — the tag
// vocabulary of a tagging system is global), so the same tag always gets the
// same ID and per-resource structures can index by dense ID instead of
// hashing strings.
//
// It is safe for concurrent use. The fast path (tag already interned) takes
// only a read lock; self-organization results on tagging vocabularies show
// the per-resource tag core converges quickly, so after warm-up virtually
// every lookup is a read-lock hit.
type Interner struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	tags []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// ID returns the dense ID for tag, interning it on first sight. The caller
// is expected to pass normalized tags (rfd.Normalize); the interner does not
// canonicalize.
func (in *Interner) ID(tag string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[tag]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok = in.ids[tag]; ok {
		return id
	}
	id = uint32(len(in.tags))
	// Clone the key so the interner never pins a larger buffer the tag
	// string may be slicing (trace lines, request bodies).
	tag = string(append([]byte(nil), tag...))
	in.ids[tag] = id
	in.tags = append(in.tags, tag)
	return id
}

// Lookup returns the ID for tag without interning; ok=false if unseen.
func (in *Interner) Lookup(tag string) (uint32, bool) {
	in.mu.RLock()
	id, ok := in.ids[tag]
	in.mu.RUnlock()
	return id, ok
}

// Tag returns the string for an ID. IDs are dense, so any id < Len() is
// valid; out-of-range IDs return "".
func (in *Interner) Tag(id uint32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if int(id) >= len(in.tags) {
		return ""
	}
	return in.tags[id]
}

// Len returns how many distinct tags have been interned.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.tags)
}
