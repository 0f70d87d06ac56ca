package store

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testdata/golden-wal holds a store written by goldenHistory: a segment
// tail written by the parent of PR 25, whose frames were json.Marshal(Record)
// behind a fmt.Sprintf CRC, and a v2 snapshot (a header frame, then one put
// frame per entry), regenerated once when the snapshot format went from one
// JSON object to frames; the v1 image it replaced is kept apart, in
// testdata/snapshot-v1, where -write-golden does not reach it. Regenerate
// the directory only from a checkout whose encoding is the reference: go
// test ./internal/store -run TestGoldenWAL -write-golden.
var writeGolden = flag.Bool("write-golden", false, "rewrite testdata/golden-wal with this checkout's encoding")

const goldenDir = "testdata/golden-wal"

// goldenHistory writes a fixed history through the Catalog and the DB:
// every record type with escaping-heavy strings, zoned and nanosecond
// times, single writes, write sets and deletes, and, when compact is set, a
// compaction in the middle so the image is a snapshot plus a tail.
func goldenHistory(t *testing.T, path string, compact bool) {
	t.Helper()
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(db)
	at := time.Date(2026, 10, 15, 9, 30, 1, 123456789, time.FixedZone("", 5*3600+30*60))
	yes, no := true, false
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.PutUser(UserRec{ID: "prov-1", Role: RoleProvider, Name: "Ann <&> \u2028 \xff", Earned: 12.5}))
	must(c.PutUser(UserRec{ID: "tag-1", Role: RoleTagger, Judged: 3, JudgedOK: 2, Earned: 1e-7}))
	must(c.PutProject(ProjectRec{ID: "p1", ProviderID: "prov-1", Name: "demo \"q\" \\ \t", Description: "<b>", Budget: 100,
		PayPerTask: 0.05, Strategy: "fp-mu", Platform: "sim", Status: ProjectActive, CreatedAt: at}))
	w := c.Begin(4)
	must(w.PutResource(ResourceRec{ID: "r1", ProjectID: "p1", Kind: "url", Name: "a&b", Topic: 3, Popularity: 1e21, Promoted: true}))
	must(w.PutResource(ResourceRec{ID: "r2", ProjectID: "p1", Kind: "url", Name: "\x01\x7f", Popularity: -0.25, Stopped: true}))
	_, err = w.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"go", "<db>", "é世"}, Time: at})
	must(err)
	must(w.Commit())
	must(c.PutTask(TaskRec{ID: "t1", ProjectID: "p1", ResourceID: "r1", WorkerID: "tag-1", Status: TaskAssigned, Reward: 0.05, CreatedAt: at}))
	if compact {
		must(db.Compact())
	}
	w = c.Begin(2)
	_, err = w.AppendPost(PostRec{ResourceID: "r1", TaggerID: "tag-1", TaskID: "t1", Tags: []string{"x"}, Time: at.UTC()})
	must(err)
	must(w.PutTask(TaskRec{ID: "t1", ProjectID: "p1", ResourceID: "r1", WorkerID: "tag-1", Status: TaskCompleted, Reward: 0.05,
		CreatedAt: at, DoneAt: at.Add(time.Second)}))
	must(w.Commit())
	must(c.UpdatePost("r1", 1, PostRec{ResourceID: "r1", Tags: []string{"go", "<db>", "é世"}, Time: at, Approved: &yes}))
	must(c.UpdatePost("r1", 2, PostRec{ResourceID: "r1", TaggerID: "tag-1", Tags: []string{}, Time: time.Time{}, Approved: &no}))
	must(db.Put("misc", "k<1>", map[string]any{"n": 1, "s": "\u2029"}))
	must(db.Put("misc", "k2", []int{1, 2}))
	must(db.Delete("misc", "k2"))
	must(db.Delete(TableResources, "r2"))
	must(db.Close())
}

// TestGoldenWALReplays: the golden store opens here to the state this
// checkout builds from the same history, and this checkout writes it byte
// for byte: every segment line is what json.Marshal framing made of the same
// commits, and the snapshot is the golden v2 image.
func TestGoldenWALReplays(t *testing.T) {
	if *writeGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		goldenHistory(t, filepath.Join(goldenDir, "itag.wal"), true)
		return
	}
	golden, err := filepath.Glob(filepath.Join(goldenDir, "itag.wal*"))
	if err != nil || len(golden) < 2 {
		t.Fatalf("golden store: %v, %v; want a snapshot and a segment", golden, err)
	}
	here := t.TempDir()
	goldenHistory(t, filepath.Join(here, "itag.wal"), true)
	written, err := filepath.Glob(filepath.Join(here, "itag.wal*"))
	if err != nil || len(written) != len(golden) {
		t.Fatalf("this checkout wrote %v (%v), the parent %v", written, err, golden)
	}
	replay := t.TempDir()
	for i, g := range golden {
		want, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(written[i])
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(g) != filepath.Base(written[i]) || !bytes.Equal(got, want) {
			t.Errorf("%s differs from the parent's %s:\nhere   %q\nparent %q", written[i], g, got, want)
		}
		if err := os.WriteFile(filepath.Join(replay, filepath.Base(g)), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db := mustOpen(t, filepath.Join(here, "itag.wal"), Options{})
	want := modelOf(db.loadIndex())
	db.Close()
	if len(want[TablePosts]) != 2 || len(want[TableTasks]) != 1 || len(want[TableResources]) != 1 || len(want["misc"]) != 1 {
		t.Fatalf("replayed state %v is not the whole history", want)
	}
	db = mustOpen(t, filepath.Join(replay, "itag.wal"), Options{})
	defer db.Close()
	want.check(t, "the parent's store", db, nil)
}
