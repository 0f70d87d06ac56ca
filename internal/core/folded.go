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
// replaced, so a clock a stamp holds is the clock later writes advance, until
// forget drops them after the runs epoch bump that retires every such stamp.
//
// The same clock lets a read skip the seek. A fold remembers the clock value
// it was last brought up to date at, and its encoded row (rowMemo) the value
// it was encoded at; a read that finds the clock where the fold left it
// answers from the fold, and the encoded read from the memo, without calling
// ScanPostsAfter. Every posts-table write advances the clock at the
// invalidate point, and on a follower that point comes before the replicate
// route fsyncs and acks the shipment, as on a leader it comes before Commit
// returns. So a skipped seek can miss only a write that is visible but not
// yet reported, which no writer has been told is done: the same window an
// uncached read racing that writer has, and the one a stamped page's recheck
// already accepts — the report moves the clock the page's stamp holds.
type foldedRows struct {
	cat    *store.Catalog
	intern *vocab.Interner

	mu   sync.Mutex
	rows map[string]*foldedRow
}

// foldedRow is one resource's fold so far. The zero value has folded
// nothing.
type foldedRow struct {
	clock  atomic.Uint64 // writes reported for the resource; advanced under mu, never reset
	mu     sync.Mutex
	tr     *quality.Tracker
	seq    uint64  // last post sequence folded into tr
	posts  int     // posts folded (those carrying tags)
	folded uint64  // the clock's value when tr was last brought up to date, plus one
	memo   rowMemo // the encoded row, kept at the clock value it was encoded at
}

func newFoldedRows(cat *store.Catalog, intern *vocab.Interner) *foldedRows {
	return &foldedRows{cat: cat, intern: intern, rows: make(map[string]*foldedRow)}
}

// entry is the resource's fold, made empty on first use.
func (f *foldedRows) entry(resourceID string) *foldedRow {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.rows[resourceID]
	if e == nil {
		e = &foldedRow{}
		f.rows[resourceID] = e
	}
	return e
}

// exportRow returns the resource's export row (Name left for the caller),
// folding in whatever posts arrived since the last call, and records the
// row's clock into st before scanning for them. A fold that fails leaves
// the resource without a row.
func (f *foldedRows) exportRow(resourceID string, st *Stamp) (ExportedResource, bool) {
	e := f.entry(resourceID)
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.clock.Load()
	st.at(&e.clock, v)
	if f.fold(e, resourceID, v) != nil {
		return ExportedResource{}, false
	}
	return e.row(resourceID), true
}

// exportJSON is exportRow named name and encoded (EncodeExportRow), from the
// entry's memo — without a seek — while the clock and name have not moved
// since the memo was made.
func (f *foldedRows) exportJSON(resourceID, name string, st *Stamp) ([]byte, bool, error) {
	e := f.entry(resourceID)
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.clock.Load()
	st.at(&e.clock, v)
	if b, ok := e.memo.lookup(v, name); ok {
		return b, true, nil
	}
	if f.fold(e, resourceID, v) != nil {
		return nil, false, nil
	}
	row := e.row(resourceID)
	row.Name = name
	b, err := e.memo.encode(v, row)
	return b, true, err
}

// fold brings e up to clock value v, read under e.mu: unless it already is,
// it folds in the posts after e.seq. Caller holds e.mu.
func (f *foldedRows) fold(e *foldedRow, resourceID string, v uint64) error {
	if e.folded == v+1 {
		return nil // no write reported since the last fold: nothing to seek
	}
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
		}
		e.seq = seq
		return true
	})
	if err == nil {
		err = foldErr
	}
	if err != nil {
		e.drop() // half a fold is no fold
		return err
	}
	e.folded = v + 1
	return nil
}

// row is the fold's export row, Name left for the caller. Caller holds e.mu.
func (e *foldedRow) row(resourceID string) ExportedResource {
	return ExportedResource{ID: resourceID, Posts: e.posts, Stability: e.tr.Quality(), TopTags: e.tr.Counts().TopK(10)}
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

// forget drops the entries of resources whose project now has a run, which
// is never removed: the engine serves their rows from then on.
func (f *foldedRows) forget(resources map[string]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id := range resources {
		delete(f.rows, id)
	}
}

// drop forgets the fold, not the clock or the memo (which is kept at a clock
// value); the next read starts from the first post. Caller holds e.mu.
func (e *foldedRow) drop() {
	e.tr, e.seq, e.posts, e.folded = nil, 0, 0, 0
}
