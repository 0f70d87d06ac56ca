package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itag/internal/quality"
	"itag/internal/store"
	"itag/internal/vocab"
)

// exportRowByFullReplay is the reference foldedRows is checked against — the
// read path it replaced: decode every post the resource has ever received,
// in key order, and replay them through a fresh tracker.
func exportRowByFullReplay(cat *store.Catalog, resourceID string) (ExportedResource, error) {
	posts, err := cat.PostsOf(resourceID)
	if err != nil {
		return ExportedResource{}, err
	}
	tr := quality.NewTrackerShared(quality.Config{}, vocab.NewInterner())
	n := 0
	for _, p := range posts {
		if len(p.Tags) == 0 {
			continue
		}
		if err := tr.AddPost(p.Tags); err != nil {
			return ExportedResource{}, err
		}
		n++
	}
	row := ExportedResource{ID: resourceID, Posts: n, Stability: tr.Quality()}
	for _, tf := range tr.Counts().TopK(10) {
		row.TopTags = append(row.TopTags, TagFreq{Tag: tf.Tag, Count: tf.Count, Freq: tf.Freq})
	}
	return row, nil
}

// replicaPair is a leader catalog written directly (the fold under test
// only ever sees what reaches the follower's catalog) and a follower whose
// runless Service serves export rows from shipped frames.
type replicaPair struct {
	t          testing.TB
	ldb, fdb   *store.DB
	lcat, fcat *store.Catalog
	fsvc       *Service
	project    string
	resources  []string
}

func newReplicaPair(t testing.TB, resources int) *replicaPair {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) *store.DB {
		db, err := store.Open(filepath.Join(dir, name), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
		return db
	}
	p := &replicaPair{t: t, ldb: open("leader.wal"), fdb: open("follower.wal"), project: "proj-1"}
	p.lcat, p.fcat = store.NewCatalog(p.ldb), store.NewCatalog(p.fdb)
	p.fsvc = NewService(p.fcat, 1)
	t.Cleanup(p.fsvc.Close)
	ws := p.lcat.Begin(resources + 1)
	_ = ws.PutProject(store.ProjectRec{ID: p.project, Name: "folded", Budget: 1, Status: store.ProjectActive})
	for i := 0; i < resources; i++ {
		id := fmt.Sprintf("res-%03d", i)
		p.resources = append(p.resources, id)
		_ = ws.PutResource(store.ResourceRec{ID: id, ProjectID: p.project, Name: "name of " + id})
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	p.ship(1 << 20)
	return p
}

// ship applies the leader's next frames to the follower through its Catalog
// (maxBytes 1 = exactly one WAL record) and reports whether there were any.
func (p *replicaPair) ship(maxBytes int) bool {
	p.t.Helper()
	data, _, err := p.ldb.ReplTail(p.fdb.AppliedSeq(), maxBytes, nil)
	if err != nil {
		p.t.Fatalf("ReplTail: %v", err)
	}
	if len(data) == 0 {
		return false
	}
	if _, err := p.fcat.ApplyReplicated(data); err != nil {
		p.t.Fatalf("ApplyReplicated: %v", err)
	}
	return true
}

// installSnapshot moves the follower to the leader's state in one image.
func (p *replicaPair) installSnapshot() {
	p.t.Helper()
	img, err := p.ldb.SnapshotExport()
	if err == nil {
		err = p.fcat.InstallSnapshot(img)
	}
	if err != nil {
		p.t.Fatalf("snapshot install: %v", err)
	}
}

// replay is the export row the full replay of the follower's catalog gives.
func (p *replicaPair) replay(resourceID string) (ExportedResource, error) {
	row, err := exportRowByFullReplay(p.fcat, resourceID)
	row.Name = "name of " + resourceID
	return row, err
}

// check compares the follower's export, as rows and as the encoded rows a
// stamped page holds, with the full replay of its catalog.
func (p *replicaPair) check(when string) {
	p.t.Helper()
	ctx := context.Background()
	rows, next, err := p.fsvc.ExportPage(ctx, p.project, "", 0)
	if err != nil || next != "" || len(rows) != len(p.resources) {
		p.t.Fatalf("%s: ExportPage = %d rows, next %q, %v", when, len(rows), next, err)
	}
	encoded, next, err := p.fsvc.ExportPageStamped(ctx, p.project, "", 0, new(Stamp))
	if err != nil || next != "" || len(encoded) != len(p.resources) {
		p.t.Fatalf("%s: ExportPageStamped = %d rows, next %q, %v", when, len(encoded), next, err)
	}
	for i, got := range rows {
		want, err := p.replay(got.ID)
		if err != nil {
			p.t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			p.t.Fatalf("%s: folded row differs from the full replay\n got %+v\nwant %+v", when, got, want)
		}
		if wantJSON := encodeRow(p.t, want); !bytes.Equal(encoded[i], wantJSON) {
			p.t.Fatalf("%s: encoded folded row differs from the full replay's\n got %s\nwant %s", when, encoded[i], wantJSON)
		}
	}
}

// encodeRow is EncodeExportRow's bytes for row.
func encodeRow(t testing.TB, row ExportedResource) []byte {
	t.Helper()
	b, err := EncodeExportRow(row)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeRows decodes a stamped page's encoded rows, checking each is one
// JSON object and a comma.
func decodeRows(t testing.TB, page [][]byte) ([]ExportedResource, error) {
	rows := make([]ExportedResource, len(page))
	for i, b := range page {
		if len(b) == 0 || b[len(b)-1] != ',' {
			return nil, fmt.Errorf("row %d does not end in a comma: %q", i, b)
		}
		if err := json.Unmarshal(b[:len(b)-1], &rows[i]); err != nil {
			return nil, fmt.Errorf("row %d: %v", i, err)
		}
	}
	return rows, nil
}

func (p *replicaPair) post(ws *store.WriteSet, resourceID string, tags ...string) uint64 {
	p.t.Helper()
	seq, err := ws.AppendPost(store.PostRec{ResourceID: resourceID, TaggerID: "tag-1", Tags: tags, Time: time.Unix(0, 0).UTC()})
	if err != nil {
		p.t.Fatal(err)
	}
	return seq
}

// TestFoldedRowEqualsFullReplay checks, read by read, that the runless
// export path's kept folds answer what a full key-order replay of the
// follower's catalog answers — first on the one interleaving that forces
// the invalidate hook (a post applied after a later post of the same
// resource was already folded), then over seeded random streams of posts,
// batches, inverted commits, judge rewrites, partial shipments and snapshot
// installs. Ignoring writes at or below an entry's folded sequence
// (foldedRows.PostWritten) fails both halves.
func TestFoldedRowEqualsFullReplay(t *testing.T) {
	t.Run("inverted arrival", func(t *testing.T) {
		p := newReplicaPair(t, 2)
		res := p.resources[0]
		for i := 0; i < 6; i++ {
			ws := p.lcat.Begin(1)
			p.post(ws, res, "go", fmt.Sprintf("t%d", i))
			if err := ws.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for p.ship(1 << 20) {
		}
		p.check("six posts in order")
		// Sequence 7 is staged first and committed last.
		late, early := p.lcat.Begin(1), p.lcat.Begin(1)
		if seq := p.post(late, res, "late", "arrival"); seq != 7 {
			t.Fatalf("staged seq %d, want 7", seq)
		}
		if seq := p.post(early, res, "go", "early"); seq != 8 {
			t.Fatalf("staged seq %d, want 8", seq)
		}
		if err := early.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := late.Commit(); err != nil {
			t.Fatal(err)
		}
		p.ship(1)
		if posts, _ := p.fcat.PostsOf(res); len(posts) != 7 {
			t.Fatalf("follower holds %d posts after shipping one record, want 7 (seq 8 before seq 7)", len(posts))
		}
		p.check("post 8 applied, post 7 not yet")
		p.ship(1)
		p.check("post 7 applied after post 8 was folded")

		// A judge's rewrite of a folded post changes no tag, and must not
		// leave the fold ahead of or behind the replay either.
		judged, _ := p.lcat.GetPost(res, 3)
		ok := true
		judged.Approved = &ok
		if err := p.lcat.UpdatePost(res, 3, judged); err != nil {
			t.Fatal(err)
		}
		p.ship(1)
		p.check("post 3 judged")
	})

	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := newReplicaPair(t, 5)
			vocabulary := []string{"go", "db", "wal", "tag", "crowd", "pay", "rank", "heap", "tree", "seed"}
			tags := func() []string {
				out := make([]string, 1+rng.Intn(3))
				for i := range out {
					out[i] = vocabulary[rng.Intn(len(vocabulary))]
				}
				return out
			}
			posted := make(map[string]uint64)
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(12); {
				case op < 5: // one paid post, one commit
					ws := p.lcat.Begin(1)
					res := p.resources[rng.Intn(len(p.resources))]
					posted[res] = p.post(ws, res, tags()...)
					if err := ws.Commit(); err != nil {
						t.Fatal(err)
					}
				case op < 7: // a tasks:batch call: several posts, one record
					ws := p.lcat.Begin(4)
					for i := 0; i < 2+rng.Intn(4); i++ {
						res := p.resources[rng.Intn(len(p.resources))]
						posted[res] = p.post(ws, res, tags()...)
					}
					if err := ws.Commit(); err != nil {
						t.Fatal(err)
					}
				case op < 9: // concurrent submitters: staged in one order, committed in another
					sets := make([]*store.WriteSet, 2+rng.Intn(3))
					for i := range sets {
						sets[i] = p.lcat.Begin(1)
						res := p.resources[rng.Intn(2)] // collide on purpose
						posted[res] = p.post(sets[i], res, tags()...)
					}
					for _, i := range rng.Perm(len(sets)) {
						if err := sets[i].Commit(); err != nil {
							t.Fatal(err)
						}
					}
				case op < 10: // a judge rewrites a stored post
					res := p.resources[rng.Intn(len(p.resources))]
					if posted[res] == 0 {
						continue
					}
					seq := 1 + uint64(rng.Int63n(int64(posted[res])))
					rec, err := p.lcat.GetPost(res, seq)
					if err != nil {
						continue // a gap: that write set is still to commit
					}
					verdict := rng.Intn(2) == 0
					rec.Approved = &verdict
					if err := p.lcat.UpdatePost(res, seq, rec); err != nil {
						t.Fatal(err)
					}
				case op < 11: // ship some records, one at a time, reading in between
					for i := 0; i < 1+rng.Intn(4) && p.ship(1); i++ {
						p.check(fmt.Sprintf("step %d, record %d shipped", step, i))
					}
				default:
					if p.ldb.AppliedSeq() > p.fdb.AppliedSeq() && rng.Intn(3) == 0 {
						p.installSnapshot()
					} else {
						p.ship(1 << 20)
					}
				}
				p.check(fmt.Sprintf("step %d", step))
			}
			for p.ship(1 << 20) {
			}
			p.check("caught up")
		})
	}
}

// TestFoldedRowsUnderRace reads stamped export pages from 8 goroutines while
// replicated batches — in-order posts, inverted arrivals, a snapshot install
// — land on the same replica. A reader may answer from before or after any
// write still in flight, but what it sees of a resource only ever grows;
// whenever a shipment has been applied, a reader's latest stamp that is
// still current certifies a page equal to the full replay's (a row clock
// recorded after its scan, outside the entry's mutex, loses this: a write
// can land in between); and once the writer is done every reader's next
// page is the full replay's. Run under -race at GOMAXPROCS 1, 2 and 4.
func TestFoldedRowsUnderRace(t *testing.T) {
	p := newReplicaPair(t, 6)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	type stamped struct {
		st      *Stamp
		rows    []ExportedResource
		encoded [][]byte
	}
	last := make([]atomic.Pointer[stamped], 8) // each reader's latest page
	// certified runs between writes: nothing is in flight, so a stamp that is
	// current was taken after every write so far was visible and reported.
	certified := func(when string) {
		t.Helper()
		if t.Failed() {
			return // said once; the readers are still running, so no Fatal here
		}
		for g := range last {
			page := last[g].Load()
			if page == nil || !page.st.Current() {
				continue
			}
			for i, got := range page.rows {
				want, err := p.replay(got.ID)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: reader %d holds a current stamp over a stale row (%v)\n got %+v\nwant %+v", when, g, err, got, want)
					return
				}
				if wantJSON := encodeRow(t, want); !bytes.Equal(page.encoded[i], wantJSON) {
					t.Errorf("%s: reader %d holds a current stamp over stale row bytes\n got %s\nwant %s", when, g, page.encoded[i], wantJSON)
					return
				}
			}
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[string]int)
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := new(Stamp)
				encoded, _, err := p.fsvc.ExportPageStamped(ctx, p.project, "", 3, st)
				var rows []ExportedResource
				if err == nil {
					rows, err = decodeRows(t, encoded)
				}
				if err != nil {
					t.Errorf("ExportPage: %v", err)
					return
				}
				last[g].Store(&stamped{st, rows, encoded})
				for _, row := range rows {
					if row.Posts < seen[row.ID] {
						t.Errorf("%s went from %d posts back to %d", row.ID, seen[row.ID], row.Posts)
						return
					}
					seen[row.ID] = row.Posts
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 300; round++ {
		sets := make([]*store.WriteSet, 1+rng.Intn(3))
		for i := range sets {
			sets[i] = p.lcat.Begin(2)
			for j := 0; j <= rng.Intn(2); j++ {
				p.post(sets[i], p.resources[rng.Intn(3)], "go", fmt.Sprintf("t%d", rng.Intn(8)))
			}
		}
		for _, i := range rng.Perm(len(sets)) {
			if err := sets[i].Commit(); err != nil {
				t.Fatal(err)
			}
		}
		switch {
		case round == 150:
			p.installSnapshot()
		case rng.Intn(2) == 0:
			p.ship(1)
		default:
			p.ship(1 << 20)
		}
		certified(fmt.Sprintf("round %d", round))
	}
	for p.ship(1 << 20) {
	}
	close(stop)
	wg.Wait()
	certified("after the writer finished")
	p.check("after the writer finished")
}

// TestFoldedRowClockCoversRow is the folded twin of
// TestResourceClockCoversStatus, the contract a follower's export stamps
// stand on: whatever a replicated write changes in a resource's folded row,
// it moves that row's clock, and whatever it changes on a page, the stamp
// taken for that page stops being current — while the stamps of the pages it
// did not touch hold (the grain is the row, not the posts table). Seeded
// random sequences of posts shipped in and out of key order, batches, judge
// rewrites (a verdict, which changes no row, and a rewrite that strips a
// post's tags, which does), partial shipments and snapshot installs over
// three pages are checked write by write against the full replay.
//
// Mutation checks: without the clock bump in PostWritten every seed fails on
// its first shipped post (seed 1 at step 0); without the one in PostsReplaced
// every seed fails on its first snapshot install over a changed row (seed 5
// at step 0, seed 1 at step 23). Where inside row()'s critical section the
// clock is recorded cannot matter — both bumps take the same mutex — and
// recording it once row() has returned is a race no sequential test can
// lose; TestFoldedRowsUnderRace is the one that loses it.
func TestFoldedRowClockCoversRow(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { foldedClockCoversRow(t, seed) })
	}
}

func foldedClockCoversRow(t *testing.T, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	p := newReplicaPair(t, 7)
	const perPage = 3

	type page struct {
		cursor  string
		st      *Stamp
		rows    []ExportedResource
		encoded [][]byte
	}
	var pages []*page
	read := func(pg *page) string {
		t.Helper()
		pg.st = new(Stamp)
		encoded, next, err := p.fsvc.ExportPageStamped(ctx, p.project, pg.cursor, perPage, pg.st)
		if err == nil {
			pg.rows, err = decodeRows(t, encoded)
		}
		if err != nil {
			t.Fatal(err)
		}
		pg.encoded = encoded
		return next
	}
	for cursor := ""; ; {
		pg := &page{cursor: cursor}
		pages = append(pages, pg)
		if cursor = read(pg); cursor == "" {
			break
		}
	}
	if len(pages) != 3 {
		t.Fatalf("%d pages, want 3", len(pages))
	}
	replay := func(id string) ExportedResource {
		t.Helper()
		row, err := p.replay(id)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	type snapshot struct {
		rows   map[string]ExportedResource
		clocks map[string]uint64
	}
	snap := func() snapshot {
		sn := snapshot{rows: make(map[string]ExportedResource), clocks: make(map[string]uint64)}
		for _, id := range p.resources {
			sn.rows[id] = replay(id)
			sn.clocks[id] = p.fsvc.folded.rows[id].clock.Load() // every row has been read: the entry exists
		}
		return sn
	}
	before := snap()
	held, retired := 0, 0
	// check runs after everything that changes the follower's catalog.
	// installed says table clocks moved too, so no stamp is expected to hold.
	check := func(op string, installed bool) {
		t.Helper()
		after := snap()
		for _, id := range p.resources {
			if !reflect.DeepEqual(before.rows[id], after.rows[id]) && after.clocks[id] == before.clocks[id] {
				t.Fatalf("%s changed %s's row without moving its clock:\n before %+v\n after  %+v", op, id, before.rows[id], after.rows[id])
			}
			if after.clocks[id] < before.clocks[id] {
				t.Fatalf("%s moved %s's clock backwards", op, id)
			}
		}
		for i, pg := range pages {
			changed, touched := false, installed
			for j, row := range pg.rows {
				changed = changed || !reflect.DeepEqual(row, after.rows[row.ID]) || !bytes.Equal(pg.encoded[j], encodeRow(t, after.rows[row.ID]))
				touched = touched || after.clocks[row.ID] != before.clocks[row.ID]
			}
			switch current := pg.st.Current(); {
			case changed && current:
				t.Fatalf("%s changed page %d and its stamp is still current:\n held %+v", op, i, pg.rows)
			case !touched && !current:
				t.Fatalf("%s wrote to no row of page %d and retired its stamp", op, i)
			case current:
				held++
				continue
			}
			retired++
			read(pg) // what the response cache does next
			for j, row := range pg.rows {
				if !reflect.DeepEqual(row, after.rows[row.ID]) {
					t.Fatalf("%s: page %d re-read differs from the full replay\n got %+v\nwant %+v", op, i, row, after.rows[row.ID])
				}
				if want := encodeRow(t, after.rows[row.ID]); !bytes.Equal(pg.encoded[j], want) {
					t.Fatalf("%s: page %d re-read bytes differ from the full replay's\n got %s\nwant %s", op, i, pg.encoded[j], want)
				}
			}
		}
		before = after
	}

	vocabulary := []string{"go", "db", "wal", "tag", "crowd", "pay", "rank", "heap"}
	tags := func() []string {
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = vocabulary[rng.Intn(len(vocabulary))]
		}
		return out
	}
	posted := make(map[string]uint64)
	rewrite := func(edit func(*store.PostRec)) {
		res := p.resources[rng.Intn(len(p.resources))]
		if posted[res] == 0 {
			return
		}
		seq := 1 + uint64(rng.Int63n(int64(posted[res])))
		rec, err := p.lcat.GetPost(res, seq)
		if err != nil {
			return // a gap: that write set is still to commit
		}
		edit(&rec)
		if err := p.lcat.UpdatePost(res, seq, rec); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 120; step++ {
		switch op := rng.Intn(12); {
		case op < 4: // one post, one commit
			ws := p.lcat.Begin(1)
			res := p.resources[rng.Intn(len(p.resources))]
			posted[res] = p.post(ws, res, tags()...)
			if err := ws.Commit(); err != nil {
				t.Fatal(err)
			}
		case op < 6: // a tasks:batch call: several posts, one record
			ws := p.lcat.Begin(4)
			for i := 0; i < 2+rng.Intn(3); i++ {
				res := p.resources[rng.Intn(len(p.resources))]
				posted[res] = p.post(ws, res, tags()...)
			}
			if err := ws.Commit(); err != nil {
				t.Fatal(err)
			}
		case op < 8: // staged in one order, committed in another: arrivals below the fold
			sets := make([]*store.WriteSet, 2+rng.Intn(2))
			for i := range sets {
				sets[i] = p.lcat.Begin(1)
				res := p.resources[rng.Intn(2)] // collide on purpose
				posted[res] = p.post(sets[i], res, tags()...)
			}
			for _, i := range rng.Perm(len(sets)) {
				if err := sets[i].Commit(); err != nil {
					t.Fatal(err)
				}
			}
		case op < 9: // a judge's verdict: the row does not change
			verdict := rng.Intn(2) == 0
			rewrite(func(rec *store.PostRec) { rec.Approved = &verdict })
		case op < 10: // a rewrite that leaves the post without tags: the row loses it
			rewrite(func(rec *store.PostRec) { rec.Tags = nil })
		}
		// Ship: record by record with a check after each, or, now and then,
		// everything outstanding as one snapshot image.
		if p.ldb.AppliedSeq() > p.fdb.AppliedSeq() && rng.Intn(8) == 0 {
			p.installSnapshot()
			check(fmt.Sprintf("step %d: snapshot install", step), true)
			continue
		}
		for i := 0; i < rng.Intn(4) && p.ship(1); i++ {
			check(fmt.Sprintf("step %d: record %d shipped", step, i), false)
		}
	}
	for p.ship(1) {
		check("catching up", false)
	}
	if held == 0 || retired == 0 {
		t.Fatalf("%d stamps held across a write, %d retired: want both", held, retired)
	}
}
