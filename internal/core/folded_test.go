package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
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

// check compares the follower's export with the full replay of its catalog.
func (p *replicaPair) check(when string) {
	p.t.Helper()
	rows, next, err := p.fsvc.ExportPage(context.Background(), p.project, "", 0)
	if err != nil || next != "" || len(rows) != len(p.resources) {
		p.t.Fatalf("%s: ExportPage = %d rows, next %q, %v", when, len(rows), next, err)
	}
	for _, got := range rows {
		want, err := exportRowByFullReplay(p.fcat, got.ID)
		if err != nil {
			p.t.Fatal(err)
		}
		want.Name = "name of " + got.ID
		if !reflect.DeepEqual(got, want) {
			p.t.Fatalf("%s: folded row differs from the full replay\n got %+v\nwant %+v", when, got, want)
		}
	}
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

// TestFoldedRowsUnderRace reads export pages from 8 goroutines while
// replicated batches — in-order posts, inverted arrivals, a snapshot install
// — land on the same replica. A reader may answer from before or after any
// write still in flight, but what it sees of a resource only ever grows, and
// once the writer is done every reader's next page is the full replay's.
// Run under -race at GOMAXPROCS 1, 2 and 4.
func TestFoldedRowsUnderRace(t *testing.T) {
	p := newReplicaPair(t, 6)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				rows, _, err := p.fsvc.ExportPage(ctx, p.project, "", 3)
				if err != nil {
					t.Errorf("ExportPage: %v", err)
					return
				}
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
	}
	for p.ship(1 << 20) {
	}
	close(stop)
	wg.Wait()
	p.check("after the writer finished")
}
