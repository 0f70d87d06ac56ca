package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"itag/internal/dataset"
	"itag/internal/store"
)

// sameSlice reports whether a and b are the same bytes in memory, not only
// equal ones: a kept row handed out again, not re-encoded.
func sameSlice(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// fillRows is one stamped fill of the whole project's export.
func fillRows(t *testing.T, s *Service, proj string) [][]byte {
	t.Helper()
	rows, next, err := s.ExportPageStamped(context.Background(), proj, "", 0, new(Stamp))
	if err != nil || next != "" {
		t.Fatalf("ExportPageStamped: next %q, %v", next, err)
	}
	return rows
}

// checkReencoded fails unless exactly the rows at moved are new slices
// between two fills, and every row of now is EncodeExportRow of the row
// ExportPage answers.
func checkReencoded(t *testing.T, s *Service, proj, op string, was, now [][]byte, moved ...int) {
	t.Helper()
	rows, _, err := s.ExportPage(context.Background(), proj, "", 0)
	if err != nil || len(rows) != len(now) || len(was) != len(now) {
		t.Fatalf("%s: %d rows, then %d, ExportPage %d, %v", op, len(was), len(now), len(rows), err)
	}
	for i := range now {
		want := slices.Contains(moved, i)
		if same := sameSlice(was[i], now[i]); same == want {
			t.Errorf("%s: row %d (%s) re-encoded = %v, want %v", op, i, rows[i].ID, !same, want)
		}
		if enc := encodeRow(t, rows[i]); !bytes.Equal(now[i], enc) {
			t.Errorf("%s: row %d bytes\n got %s\nwant %s", op, i, now[i], enc)
		}
	}
}

// TestExportMemoReencodesOnlyMovedRows checks the export row memo on both
// sources. On a live run a lease or a post on resource R re-encodes R's row
// and hands out every other row's kept bytes, the same slices as the fill
// before; renaming R shows the new name on the next page. On a runless
// replica a replicated post re-encodes only its row, and a fill with
// nothing written since re-encodes none. A memo that ignores the clock
// serves a stale row after the post; one that ignores the name, the old
// name after the rename.
func TestExportMemoReencodesOnlyMovedRows(t *testing.T) {
	t.Run("live run", func(t *testing.T) {
		s := newService(t)
		ctx := context.Background()
		prov, _ := s.RegisterProvider(ctx, "bob")
		tagger, _ := s.RegisterTagger(ctx, "carol")
		spec := ProjectSpec{ProviderID: prov, Name: "memo", Budget: 100, PayPerTask: 0.1, Strategy: "fp"}
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("r%d", i)
			spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Kind: dataset.KindURL, Name: "name of " + id, Popularity: 1})
		}
		proj, err := s.CreateProject(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		first := fillRows(t, s, proj)
		again := fillRows(t, s, proj)
		checkReencoded(t, s, proj, "a fill with nothing written", first, again)

		if err := s.Promote(ctx, proj, "r3"); err != nil {
			t.Fatal(err)
		}
		task, err := s.RequestTask(ctx, proj, tagger)
		if err != nil || task.ResourceID != "r3" {
			t.Fatalf("lease: %+v, %v; want one on r3", task, err)
		}
		leased := fillRows(t, s, proj)
		checkReencoded(t, s, proj, "promote and lease on r3", again, leased, 3)

		if err := s.SubmitTask(ctx, proj, task.ID, []string{"go", "db"}); err != nil {
			t.Fatal(err)
		}
		posted := fillRows(t, s, proj)
		checkReencoded(t, s, proj, "post on r3", leased, posted, 3)
		if bytes.Equal(leased[3], posted[3]) {
			t.Fatalf("the post left r3's row bytes as they were: %s", posted[3])
		}

		rec, err := s.Catalog().GetResource("r1")
		if err != nil {
			t.Fatal(err)
		}
		rec.Name = "renamed <r1> & co"
		if err := s.Catalog().PutResource(rec); err != nil {
			t.Fatal(err)
		}
		renamed := fillRows(t, s, proj)
		checkReencoded(t, s, proj, "rename of r1", posted, renamed, 1)
		if !bytes.Contains(renamed[1], []byte(`"name":"renamed \u003cr1\u003e \u0026 co"`)) {
			t.Fatalf("renamed row: %s", renamed[1])
		}
	})

	t.Run("replica", func(t *testing.T) {
		p := newReplicaPair(t, 4)
		post := func(res string) {
			ws := p.lcat.Begin(1)
			if _, err := ws.AppendPost(store.PostRec{ResourceID: res, TaggerID: "tag-1", Tags: []string{"go", res}, Time: time.Unix(0, 0).UTC()}); err != nil {
				t.Fatal(err)
			}
			if err := ws.Commit(); err != nil {
				t.Fatal(err)
			}
			p.ship(1 << 20)
		}
		for _, res := range p.resources {
			post(res)
		}
		first := fillRows(t, p.fsvc, p.project)
		again := fillRows(t, p.fsvc, p.project)
		checkReencoded(t, p.fsvc, p.project, "a fill with nothing shipped", first, again)
		post(p.resources[2])
		posted := fillRows(t, p.fsvc, p.project)
		checkReencoded(t, p.fsvc, p.project, "a replicated post on res-002", again, posted, 2)
		p.check("after the post")
	})
}

// TestRowMemoKeepsNoRefusedRow: a row json.Marshal refuses is an error and
// leaves the memo as it was, so the next fill tries the encode again.
func TestRowMemoKeepsNoRefusedRow(t *testing.T) {
	var m rowMemo
	if _, err := m.encode(4, ExportedResource{ID: "r", Name: "n", Stability: math.Inf(1)}); err == nil {
		t.Fatal("an infinite stability encoded")
	}
	if _, ok := m.lookup(4, "n"); ok || m.json != nil {
		t.Fatalf("a refused row was kept: %+v", m)
	}
}
