package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"itag/internal/errs"
)

type kv struct {
	V string `json:"v"`
	N int    `json:"n"`
}

func openTemp(t *testing.T) (*DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db, path
}

func TestOpenRequiresPath(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("empty path must be rejected")
	}
}

func TestPutGetDelete(t *testing.T) {
	db := OpenMemory()
	if err := db.Put("t", "k1", kv{V: "hello", N: 7}); err != nil {
		t.Fatal(err)
	}
	var got kv
	if err := db.Get("t", "k1", &got); err != nil {
		t.Fatal(err)
	}
	if got.V != "hello" || got.N != 7 {
		t.Errorf("got %+v", got)
	}
	if !db.Has("t", "k1") || db.Has("t", "nope") {
		t.Error("Has misbehaving")
	}
	if err := db.Delete("t", "k1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Get("t", "k1", &got); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
	if err := db.Delete("t", "never-existed"); err != nil {
		t.Errorf("deleting missing key must be a no-op: %v", err)
	}
}

func TestOverwrite(t *testing.T) {
	db := OpenMemory()
	_ = db.Put("t", "k", kv{N: 1})
	_ = db.Put("t", "k", kv{N: 2})
	var got kv
	if err := db.Get("t", "k", &got); err != nil || got.N != 2 {
		t.Errorf("got %+v, %v", got, err)
	}
	if db.Count("t") != 1 {
		t.Errorf("count = %d", db.Count("t"))
	}
}

func TestScanOrderAndPrefix(t *testing.T) {
	db := OpenMemory()
	for _, k := range []string{"b/2", "a/1", "b/1", "c"} {
		if err := db.Put("t", k, kv{V: k}); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	db.Scan("t", func(k string, _ []byte) bool {
		keys = append(keys, k)
		return true
	})
	want := []string{"a/1", "b/1", "b/2", "c"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("scan order = %v, want %v", keys, want)
	}
	keys = nil
	db.ScanPrefix("t", "b/", func(k string, _ []byte) bool {
		keys = append(keys, k)
		return true
	})
	if !reflect.DeepEqual(keys, []string{"b/1", "b/2"}) {
		t.Errorf("prefix scan = %v", keys)
	}
	// Early stop.
	n := 0
	db.Scan("t", func(string, []byte) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestWALRecovery(t *testing.T) {
	db, path := openTemp(t)
	for i := 0; i < 50; i++ {
		if err := db.Put("posts", fmt.Sprintf("r1/%03d", i), kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	_ = db.Delete("posts", "r1/010")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Count("posts"); got != 49 {
		t.Errorf("recovered count = %d, want 49", got)
	}
	var v kv
	if err := db2.Get("posts", "r1/042", &v); err != nil || v.N != 42 {
		t.Errorf("recovered value: %+v, %v", v, err)
	}
	if db2.Has("posts", "r1/010") {
		t.Error("deleted key resurrected after recovery")
	}
	if db2.Seq() == 0 {
		t.Error("sequence must be recovered")
	}
}

// activeSegment returns the path of the base path's highest-index segment.
func activeSegment(t *testing.T, base string) string {
	t.Helper()
	segs, err := listSegments(base)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments under %s: %v", base, err)
	}
	return segs[len(segs)-1].path
}

// walDiskSize sums the on-disk bytes of every file in a WAL layout.
func walDiskSize(t *testing.T, base string) int64 {
	t.Helper()
	var total int64
	for _, p := range append([]string{base, base + snapSuffix}, func() []string {
		segs, _ := listSegments(base)
		out := make([]string, len(segs))
		for i, s := range segs {
			out[i] = s.path
		}
		return out
	}()...) {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

func TestWALTornFinalRecordTolerated(t *testing.T) {
	db, path := openTemp(t)
	_ = db.Put("t", "a", kv{N: 1})
	_ = db.Put("t", "b", kv{N: 2})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial frame with no trailing newline
	// at the end of the active segment.
	f, err := os.OpenFile(activeSegment(t, path), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0badc0de {"seq":3,"op":"put","table":"t","key":"c","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("torn final record must be tolerated: %v", err)
	}
	defer db2.Close()
	if db2.Count("t") != 2 {
		t.Errorf("count = %d, want 2", db2.Count("t"))
	}
	if db2.Has("t", "c") {
		t.Error("torn record must not be applied")
	}
	// The DB must still accept writes after recovery.
	if err := db2.Put("t", "c", kv{N: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestWALMidLogCorruptionReported(t *testing.T) {
	db, path := openTemp(t)
	_ = db.Put("t", "a", kv{N: 1})
	_ = db.Put("t", "b", kv{N: 2})
	_ = db.Close()
	// Corrupt the first record while a valid one still follows it.
	seg := activeSegment(t, path)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte("XX"), data...)
	if err := os.WriteFile(seg, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Error("mid-log corruption must be reported, not silently dropped")
	}
}

// TestApplyRefusesNonUTF8Names: a table or key name that is not valid UTF-8
// is refused by Apply — a Put, a Delete, one mutation of a batch — as a
// validation error, before anything is framed: a frame carries names as JSON
// strings, so the log would read "b\xff" back as "b\ufffd", and a delete of
// "a\xff", a no-op in memory, would delete "a\ufffd" at the next open. A
// reopen holds exactly what was acknowledged.
func TestApplyRefusesNonUTF8Names(t *testing.T) {
	path := filepath.Join(t.TempDir(), "itag.wal")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "a\ufffd"} {
		if err := db.Put("t", key, 1); err != nil {
			t.Fatal(err)
		}
	}
	for what, err := range map[string]error{
		"Put of a key":     db.Put("t", "b\xff", 1),
		"Put to a table":   db.Put("t\xff", "b", 1),
		"Delete of a key":  db.Delete("t", "a\xff"),
		"batch of a key":   db.Apply([]Mutation{{Op: OpPut, Table: "t", Key: "c", Value: jsonOf(2)}, {Op: OpPut, Table: "t", Key: "b\xff", Value: jsonOf(2)}}),
		"batch to a table": db.Apply([]Mutation{{Op: OpDelete, Table: "\xc3", Key: "a"}}),
	} {
		if errs.CategoryOf(err) != errs.CategoryValidation {
			t.Errorf("%s: %v, want a validation error", what, err)
		}
	}
	if seq := db.AppliedSeq(); seq != 2 {
		t.Fatalf("applied seq %d after the refusals, want the 2 acknowledged puts", seq)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if tables := re.Tables(); len(tables) != 1 || re.Count("t") != 2 || !re.Has("t", "a") || !re.Has("t", "a\ufffd") {
		t.Fatalf("reopened: tables %q, %d keys in t; want t holding a and a\ufffd alone", tables, re.Count("t"))
	}
	for _, key := range []string{"b\xff", "b\ufffd", "c"} {
		if re.Has("t", key) {
			t.Errorf("reopened store holds %q", key)
		}
	}
}

// jsonOf is a test value as a Mutation carries it: encoded.
func jsonOf(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

func TestBatchAtomicVisible(t *testing.T) {
	db, path := openTemp(t)
	err := db.Apply([]Mutation{
		{Op: OpPut, Table: "a", Key: "x", Value: jsonOf(kv{N: 1})},
		{Op: OpPut, Table: "b", Key: "y", Value: jsonOf(kv{N: 2})},
		{Op: OpDelete, Table: "a", Key: "never"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = db.Close()
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Has("a", "x") || !db2.Has("b", "y") {
		t.Error("batch mutations lost on recovery")
	}
}

func TestBatchValidation(t *testing.T) {
	db := OpenMemory()
	if err := db.Apply(nil); err != nil {
		t.Errorf("empty batch must be a no-op: %v", err)
	}
	ok := Mutation{Op: OpPut, Table: "a", Key: "ok", Value: jsonOf(1)}
	for name, bad := range map[string]Mutation{
		"invalid op":          {Op: Op("wat"), Table: "a", Key: "x"},
		"put without a value": {Op: OpPut, Table: "a", Key: "x"},
		"delete with a value": {Op: OpDelete, Table: "a", Key: "x", Value: jsonOf(1)},
		"sequence set":        {Op: OpPut, Table: "a", Key: "x", Value: jsonOf(1), Seq: 9},
		"sub-records":         {Op: OpPut, Table: "a", Key: "x", Value: jsonOf(1), Batch: []Record{ok}},
	} {
		if err := db.Apply([]Mutation{ok, bad}); errs.CategoryOf(err) != errs.CategoryValidation {
			t.Errorf("%s: Apply = %v, want a validation error", name, err)
		}
	}
	if db.Count("a") != 0 {
		t.Error("rejected batch must not apply")
	}
}

func TestClosedDBErrors(t *testing.T) {
	db, _ := openTemp(t)
	_ = db.Close()
	if err := db.Put("t", "k", kv{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Put on closed: %v", err)
	}
	if err := db.Get("t", "k", &kv{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed: %v", err)
	}
	if err := db.Delete("t", "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete on closed: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close must be fine: %v", err)
	}
}

func TestCompactShrinksAndPreserves(t *testing.T) {
	db, path := openTemp(t)
	for i := 0; i < 200; i++ {
		_ = db.Put("t", "hot", kv{N: i}) // same key overwritten
	}
	_ = db.Put("t", "cold", kv{N: -1})
	before := walDiskSize(t, path)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := walDiskSize(t, path)
	if after >= before {
		t.Errorf("compact did not shrink: %d -> %d", before, after)
	}
	var got kv
	if err := db.Get("t", "hot", &got); err != nil || got.N != 199 {
		t.Errorf("after compact: %+v, %v", got, err)
	}
	// Writes after compaction must persist.
	if err := db.Put("t", "post-compact", kv{N: 5}); err != nil {
		t.Fatal(err)
	}
	_ = db.Close()
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Has("t", "post-compact") || !db2.Has("t", "cold") {
		t.Error("state lost across compact+reopen")
	}
}

func TestInMemoryNoFiles(t *testing.T) {
	db := OpenMemory()
	if db.Path() != "" {
		t.Error("memory DB must have empty path")
	}
	if err := db.Compact(); err != nil {
		t.Errorf("compact on memory DB must be no-op: %v", err)
	}
	if err := db.Sync(); err != nil {
		t.Errorf("sync on memory DB must be no-op: %v", err)
	}
}

func TestTablesList(t *testing.T) {
	db := OpenMemory()
	_ = db.Put("zeta", "k", kv{})
	_ = db.Put("alpha", "k", kv{})
	if got := db.Tables(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("tables = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := OpenMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d/%d", g, i)
				if err := db.Put("t", key, kv{N: i}); err != nil {
					t.Error(err)
					return
				}
				var v kv
				if err := db.Get("t", key, &v); err != nil {
					t.Error(err)
					return
				}
				db.Scan("t", func(string, []byte) bool { return false })
			}
		}(g)
	}
	wg.Wait()
	if db.Count("t") != 1600 {
		t.Errorf("count = %d", db.Count("t"))
	}
}

func TestPropertyWALReplayEquivalence(t *testing.T) {
	// Any sequence of puts/deletes applied through the WAL must recover to
	// the model of the same sequence.
	f := func(ops []struct {
		Del bool
		Key uint8
		Val int
	}) bool {
		path := filepath.Join(t.TempDir(), "wal.jsonl")
		db := mustOpen(t, path, Options{})
		m := model{}
		for _, op := range ops {
			mu := putRec("t", fmt.Sprintf("k%d", op.Key%16), strconv.Itoa(op.Val))
			if op.Del {
				mu = delRec("t", mu.Key)
			}
			if err := db.Apply([]Mutation{mu}); err != nil {
				t.Fatal(err)
			}
			m.apply(mu)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = mustOpen(t, path, Options{})
		defer db.Close()
		m.check(t, "replayed", db, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSyncEveryOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Put("t", fmt.Sprintf("k%d", i), kv{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	db := OpenMemory()
	v := kv{V: "benchmark-value", N: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Put("t", fmt.Sprintf("k%d", i%100000), v)
	}
}

func BenchmarkPutWAL(b *testing.B) {
	path := filepath.Join(b.TempDir(), "wal.jsonl")
	db, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	v := kv{V: "benchmark-value", N: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Put("t", fmt.Sprintf("k%d", i%100000), v)
	}
}

func BenchmarkGet(b *testing.B) {
	db := OpenMemory()
	for i := 0; i < 10000; i++ {
		_ = db.Put("t", fmt.Sprintf("k%d", i), kv{N: i})
	}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	var v kv
	for i := 0; i < b.N; i++ {
		_ = db.Get("t", fmt.Sprintf("k%d", r.Intn(10000)), &v)
	}
}
