package core

import (
	"sync"
	"sync/atomic"

	"itag/internal/quality"
	"itag/internal/store"
	"itag/internal/vocab"
)

// foldedRows serves export rows for projects with no live run — every
// project on a cluster follower — from the catalog alone. A resource's
// stability and tag counts are a pure fold over its post sequence, and
// manual runs use the default quality config, so replaying the persisted
// posts in key order through a fresh tracker reproduces the numbers the
// leader's engine holds. Doing that replay per read costs O(posts ever
// received) per row; instead each resource that has been asked about keeps
// the tracker it folded and the last post sequence folded in, and a read
// range-scans only the post keys after that sequence: a steady-state row is
// one index seek.
//
// What makes the kept fold safe is the Catalog's invalidate point, which
// reports every posts-table write here (store.PostsObserver) strictly after
// the write is visible. Post sequence numbers are reserved when a write is
// staged, not when it commits, so posts can become visible out of key order
// — a follower can apply post 8 before post 7 — and a read in between has
// already folded 8. A write at or below an entry's folded sequence (such a
// late arrival, or a judge rewriting a post) therefore drops the entry, and
// the next read refolds from the first post in key order; a write above it
// needs nothing, the next read's scan finds it. A snapshot install drops
// every entry's fold.
//
// An entry's mutex is held across scan, fold and the sequence update, and by
// the invalidation across its check, so for any one write either the scan
// started after the write was visible or the check sees the sequence that
// scan left. A read that starts between a write becoming visible and its
// invalidation can still fold newer posts without a late one; that answer is
// given once — the entry is dropped when the invalidation lands, and the
// response cache's recheck keeps the answer from being revalidated against.
//
// That recheck is against the entry's clock, which is what a stamped export
// page records for each row it shows: every reported write of the resource —
// below or above the folded sequence — and every snapshot install advances
// it, under the entry's mutex, and a stamped read records it under the same
// mutex before its scan. The two critical sections are ordered, so a stamp
// either predates the advance (and stops being current) or was taken after
// the write was visible and the stale fold dropped. Entries are never
// replaced, so a clock a stamp holds is the clock later writes advance.
type foldedRows struct {
	cat    *store.Catalog
	intern *vocab.Interner

	mu   sync.Mutex
	rows map[string]*foldedRow
}

// foldedRow is one resource's fold so far. The zero value has folded
// nothing.
type foldedRow struct {
	clock atomic.Uint64 // writes reported for the resource; advanced under mu, never reset
	mu    sync.Mutex
	tr    *quality.Tracker
	seq   uint64           // last post sequence folded into tr
	posts int              // posts folded (those carrying tags)
	row   ExportedResource // tr's row, valid while fresh
	fresh bool
}

func newFoldedRows(cat *store.Catalog, intern *vocab.Interner) *foldedRows {
	return &foldedRows{cat: cat, intern: intern, rows: make(map[string]*foldedRow)}
}

// row returns the resource's export row (Name left for the caller), folding
// in whatever posts arrived since the last call, and records the row's clock
// into st before scanning for them.
func (f *foldedRows) row(resourceID string, st *Stamp) (ExportedResource, error) {
	f.mu.Lock()
	e := f.rows[resourceID]
	if e == nil {
		e = &foldedRow{}
		f.rows[resourceID] = e
	}
	f.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	st.read(&e.clock)
	if e.tr == nil {
		e.tr = quality.NewTrackerShared(quality.Config{}, f.intern)
	}
	var foldErr error
	err := f.cat.ScanPostsAfter(resourceID, e.seq, func(seq uint64, p store.PostRec) bool {
		if len(p.Tags) > 0 {
			if foldErr = e.tr.AddPost(p.Tags); foldErr != nil {
				return false
			}
			e.posts++
			e.fresh = false
		}
		e.seq = seq
		return true
	})
	if err == nil {
		err = foldErr
	}
	if err != nil {
		e.drop() // half a fold is no fold
		return ExportedResource{}, err
	}
	if !e.fresh {
		e.row = ExportedResource{ID: resourceID, Posts: e.posts, Stability: e.tr.Quality(), TopTags: e.tr.Counts().TopK(10)}
		e.fresh = true
	}
	return e.row, nil
}

// PostWritten advances the clock of the resource's entry, and drops its fold
// when the write is at or below what the entry has folded: key order can no
// longer be had by appending.
func (f *foldedRows) PostWritten(resourceID string, seq uint64) {
	f.mu.Lock()
	e := f.rows[resourceID]
	f.mu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	if seq <= e.seq {
		e.drop()
	}
	e.clock.Add(1)
	e.mu.Unlock()
}

// PostsReplaced drops every fold and advances every clock: the posts table
// they folded is gone. The entries stay — a page stamped after this holds
// the clock the new table's writes will advance.
func (f *foldedRows) PostsReplaced() {
	f.mu.Lock()
	rows := make([]*foldedRow, 0, len(f.rows))
	for _, e := range f.rows {
		rows = append(rows, e)
	}
	f.mu.Unlock()
	for _, e := range rows {
		e.mu.Lock()
		e.drop()
		e.clock.Add(1)
		e.mu.Unlock()
	}
}

// drop forgets the fold, not the clock; the next read starts from the first
// post. Caller holds e.mu.
func (e *foldedRow) drop() {
	e.tr, e.seq, e.posts, e.row, e.fresh = nil, 0, 0, ExportedResource{}, false
}
