package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"itag/internal/errs"
)

// encodeParity holds appendValue — and a task record's AppendJSON, which the
// task routes answer with, and the WriteSet method that stages a catalog
// record — to json.Marshal for one value: the same bytes, or json.Marshal's
// own error.
func encodeParity(t *testing.T, v any) {
	t.Helper()
	stagedParity(t, v)
	want, wantErr := json.Marshal(v)
	got, err := appendValue([]byte("prefix"), v)
	if wantErr != nil {
		if err == nil || errors.Unwrap(err) == nil || errors.Unwrap(err).Error() != wantErr.Error() {
			t.Fatalf("%#v: appendValue error %v, json.Marshal error %v", v, err, wantErr)
		}
		if task, ok := v.(TaskRec); ok {
			if _, ok := task.AppendJSON(nil); ok {
				t.Fatalf("%#v: AppendJSON encodes what json.Marshal refuses (%v)", v, wantErr)
			}
		}
		return
	}
	if err != nil {
		t.Fatalf("%#v: appendValue error %v, json.Marshal succeeds", v, err)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%#v:\nappendValue  %s\njson.Marshal %s", v, got, want)
	}
	switch v.(type) {
	case PostRec:
		decodeParity[PostRec](t, want)
	case TaskRec:
		decodeParity[TaskRec](t, want)
	case ResourceRec:
		decodeParity[ResourceRec](t, want)
	case ProjectRec:
		decodeParity[ProjectRec](t, want)
	case UserRec:
		decodeParity[UserRec](t, want)
	}
	if task, ok := v.(TaskRec); ok {
		if got, ok := task.AppendJSON([]byte("prefix")); !ok || string(got) != "prefix"+string(want) {
			t.Fatalf("%#v: AppendJSON %s, %v; json.Marshal %s", v, got, ok, want)
		}
	}
}

// decodeParity holds a record type's cursor decoder, and decodeRec around
// it, to json.Unmarshal for raw, that type's encoding: the cursor decodes to
// json.Unmarshal's value or declines, and it declines nothing that has no
// escape in it, so the parity is not bought by declining.
func decodeParity[T any](t *testing.T, raw []byte) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(raw, &want)
	var got T
	scratch := bytes.Clone(raw) // overwritten once decoded: nothing may alias it
	took := intoRec(scratch, &got)
	for i := range scratch {
		scratch[i] = 'x'
	}
	switch {
	case took && (wantErr != nil || !reflect.DeepEqual(got, want)):
		t.Fatalf("%s: cursor decodes %#v; json.Unmarshal %#v, %v", raw, got, want, wantErr)
	case !took && !bytes.ContainsRune(raw, '\\'):
		t.Fatalf("%s: the cursor declines what its encoder wrote", raw)
	}
	dec, err := decodeRec[T](raw)
	if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(dec, want) {
		t.Fatalf("%s: decodeRec %#v, %v; json.Unmarshal %#v, %v", raw, dec, err, want, wantErr)
	}
}

// stagedParity stages a catalog record through its WriteSet method — with
// the IDs and tags staging requires filled in where v lacks them — and
// commits it to a memory catalog: the stored bytes are json.Marshal's, or,
// for a record json.Marshal refuses, staging and Commit both return
// json.Marshal's error and nothing is stored.
func stagedParity(t *testing.T, v any) {
	t.Helper()
	orID := func(s string) string {
		if s == "" {
			return "id"
		}
		return s
	}
	db := OpenMemory()
	w := NewCatalog(db).Begin(1)
	var table, key string
	var err error
	switch r := v.(type) {
	case PostRec:
		r.ResourceID = orID(r.ResourceID)
		if len(r.Tags) == 0 {
			r.Tags = []string{"t"}
		}
		v, table = r, TablePosts
		var seq uint64
		seq, err = w.AppendPost(r)
		key = postKey(r.ResourceID, seq)
	case TaskRec:
		r.ID, r.ProjectID = orID(r.ID), orID(r.ProjectID)
		v, table, key, err = r, TableTasks, taskKey(r.ProjectID, r.ID), w.PutTask(r)
	case ResourceRec:
		r.ID = orID(r.ID)
		v, table, key, err = r, TableResources, r.ID, w.PutResource(r)
	case ProjectRec:
		r.ID = orID(r.ID)
		v, table, key, err = r, TableProjects, r.ID, w.PutProject(r)
	case UserRec:
		r.ID = orID(r.ID)
		v, table, key, err = r, TableUsers, r.ID, w.PutUser(r)
	default:
		return
	}
	want, wantErr := json.Marshal(v)
	commitErr := w.Commit()
	if wantErr != nil {
		for _, err := range []error{err, commitErr} {
			if err == nil || errors.Unwrap(err) == nil || errors.Unwrap(err).Error() != wantErr.Error() {
				t.Fatalf("%#v: staged error %v, commit error %v; json.Marshal error %v", v, err, commitErr, wantErr)
			}
		}
		if n := len(db.Tables()); n != 0 {
			t.Fatalf("%#v: a refused commit wrote %d tables", v, n)
		}
		return
	}
	if !utf8.ValidString(key) {
		// The log carries names as JSON strings: Apply refuses a key it
		// would read back as another one, and writes nothing.
		if err != nil || errs.CategoryOf(commitErr) != errs.CategoryValidation || len(db.Tables()) != 0 {
			t.Fatalf("%#v under key %q: staged error %v, commit error %v, %d tables; want a validation refusal writing nothing",
				v, key, err, commitErr, len(db.Tables()))
		}
		return
	}
	if err != nil || commitErr != nil {
		t.Fatalf("%#v: staged error %v, commit error %v; json.Marshal succeeds", v, err, commitErr)
	}
	var got rawValue
	if err := db.Get(table, key, &got); err != nil || !bytes.Equal(got.RawMessage, want) {
		t.Fatalf("%#v:\nstored       %s (%v)\njson.Marshal %s", v, got.RawMessage, err, want)
	}
}

// trickyPieces are the inputs where an encoder can part from encoding/json.
var trickyPieces = []string{
	"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "/", "\x00", "\x01", "\b", "\f",
	"\n", "\r", "\t", "\x1f", "\x7f", "\u2028", "\u2029", "\u2027", "\u202a", "é",
	"世", "😀", "\ufffd", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e21, 1e20, 1e-6, 0.05, 0.1 + 0.2, 123.456, -1,
	1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 999999999999999999999.0, 12e-9,
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		b.WriteString(trickyPieces[r.Intn(len(trickyPieces))])
	}
	return b.String()
}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return trickyFloats[r.Intn(len(trickyFloats))]
	case 1:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	}
	for {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

var trickyZones = []*time.Location{
	time.UTC, time.FixedZone("", 0), time.FixedZone("IST", 5*3600+30*60),
	time.FixedZone("odd", -(3*3600 + 25*60 + 17)), time.FixedZone("edge", 23*3600+59*60+59),
}

func randTime(r *rand.Rand) time.Time {
	switch r.Intn(4) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date(2026, 10, 15, 12, 30, 0, 0, time.UTC)
	}
	min, max := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC).Unix()
	nanos := int64(0)
	if r.Intn(2) == 0 {
		nanos = r.Int63n(1e9)
	}
	return time.Unix(min+r.Int63n(max-min), nanos).In(trickyZones[r.Intn(len(trickyZones))])
}

func randBool(r *rand.Rand) *bool {
	switch r.Intn(3) {
	case 0:
		return nil
	case 1:
		return new(bool)
	}
	yes := true
	return &yes
}

func randRecords(r *rand.Rand) []any {
	var tags []string
	switch r.Intn(3) {
	case 0: // nil: "tags":null
	case 1:
		tags = []string{}
	default:
		for n := 1 + r.Intn(4); n > 0; n-- {
			tags = append(tags, randString(r))
		}
	}
	return []any{
		ResourceRec{ID: randString(r), ProjectID: randString(r), Kind: randString(r), Name: randString(r),
			Topic: r.Intn(2000) - 1000, Popularity: randFloat(r), Promoted: r.Intn(2) == 0, Stopped: r.Intn(2) == 0},
		PostRec{ResourceID: randString(r), TaggerID: randString(r), TaskID: randString(r), Tags: tags,
			Time: randTime(r), Approved: randBool(r)},
		ProjectRec{ID: randString(r), ProviderID: randString(r), Name: randString(r), Description: randString(r),
			Kind: randString(r), Budget: int(r.Int63()) - math.MaxInt64/2, Spent: r.Intn(100), PayPerTask: randFloat(r),
			Strategy: randString(r), Platform: randString(r), Status: ProjectStatus(randString(r)), CreatedAt: randTime(r)},
		TaskRec{ID: randString(r), ProjectID: randString(r), ResourceID: randString(r), WorkerID: randString(r),
			Status: TaskStatus(randString(r)), Reward: randFloat(r), CreatedAt: randTime(r), DoneAt: randTime(r)},
		UserRec{ID: randString(r), Role: Role(randString(r)), Name: randString(r), Judged: r.Intn(1 << 20),
			JudgedOK: -r.Intn(5), Earned: randFloat(r)},
	}
}

// TestRecordEncodingMatchesEncodingJSON runs seeded random records of all
// five catalog types — strings built from HTML characters, quotes,
// backslashes, control bytes, U+2028/2029 and invalid UTF-8; nil and empty
// Tags; nil, false and true Approved; zero, zoned and nanosecond times;
// floats across every exponent — through the append encoders and
// json.Marshal, and requires the same bytes, which the record's cursor
// decoder then decodes to json.Unmarshal's value (decodeParity). A NaN or ±Inf anywhere, and a
// time json.Marshal refuses (year outside [0, 9999], a zone offset of a day),
// must return json.Marshal's own error.
func TestRecordEncodingMatchesEncodingJSON(t *testing.T) {
	for _, f := range trickyFloats {
		encodeParity(t, UserRec{ID: "u", Earned: f})
	}
	for _, s := range trickyPieces {
		encodeParity(t, PostRec{ResourceID: s, Tags: []string{s + s, "<" + s + ">"}})
	}
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, v := range randRecords(r) {
			encodeParity(t, v)
		}
	}

	bad := []any{
		UserRec{ID: "u", Earned: math.NaN()},
		ResourceRec{ID: "r", Popularity: math.Inf(1)},
		ProjectRec{ID: "p", PayPerTask: math.Inf(-1)},
		TaskRec{ID: "t", Reward: math.NaN()},
		PostRec{ResourceID: "r", Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		PostRec{ResourceID: "r", Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		TaskRec{ID: "t", DoneAt: time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))},
		ProjectRec{ID: "p", CreatedAt: time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600))},
	}
	for _, v := range bad {
		if _, err := json.Marshal(v); err == nil {
			t.Fatalf("%#v: json.Marshal accepts it; the case tests nothing", v)
		}
		encodeParity(t, v)
	}
	// Any other type goes through json.Marshal.
	for _, v := range []any{1, "x<y", map[string]int{"b": 1, "a": 2}, &UserRec{ID: "p"}, json.RawMessage(`{ "a" : 1 }`), nil} {
		encodeParity(t, v)
	}
}

// TestWriteSetKeepsFirstEncodeError: a post staged, then a task whose
// reward json.Marshal refuses, then a good user — the paid post without its
// task must never be written. Staging the task returns json.Marshal's error,
// Commit returns that same error and writes nothing, and the emptied set
// commits again afterwards.
func TestWriteSetKeepsFirstEncodeError(t *testing.T) {
	db := OpenMemory()
	c := NewCatalog(db)
	w := c.Begin(3)
	if _, err := w.AppendPost(PostRec{ResourceID: "r", TaskID: "t", Tags: []string{"go"}}); err != nil {
		t.Fatal(err)
	}
	stageErr := w.PutTask(TaskRec{ID: "t", ProjectID: "p", ResourceID: "r", Reward: math.NaN()})
	if stageErr == nil {
		t.Fatal("staging a NaN reward succeeded")
	}
	if err := w.PutUser(UserRec{ID: "u", Role: RoleTagger}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != stageErr {
		t.Fatalf("Commit = %v, want the staging error %v", err, stageErr)
	}
	if tables := db.Tables(); len(tables) != 0 {
		t.Fatalf("a refused commit wrote tables %v", tables)
	}
	if err := w.PutUser(UserRec{ID: "u", Role: RoleTagger}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("the emptied set does not commit: %v", err)
	}
	if _, err := c.GetUser("u"); err != nil || db.Count(TablePosts) != 0 {
		t.Fatalf("after the second commit: user %v, %d posts", err, db.Count(TablePosts))
	}
}

func FuzzRecordEncoding(f *testing.F) {
	f.Add("id", "<a&b>", 0.05, int64(3), int64(1760531400), int64(500), true)
	f.Add("\xff\u2028", "\x00\"\\", 1e21, int64(-1), int64(0), int64(0), false)
	f.Add("", "", 1e-7, int64(0), int64(-62135596800), int64(0), true)
	f.Fuzz(func(t *testing.T, a, b string, x float64, n, sec, nsec int64, flag bool) {
		tm := time.Unix(sec, nsec%1e9)
		if flag {
			tm = tm.In(time.FixedZone("", int(n%(30*3600))))
		}
		approved := &flag
		if n%3 == 0 {
			approved = nil
		}
		var tags []string
		if n%2 == 0 {
			tags = []string{a, b}
		}
		for _, v := range []any{
			ResourceRec{ID: a, ProjectID: b, Kind: a, Name: b, Topic: int(n), Popularity: x, Promoted: flag, Stopped: !flag},
			PostRec{ResourceID: a, TaggerID: b, TaskID: a, Tags: tags, Time: tm, Approved: approved},
			ProjectRec{ID: a, ProviderID: b, Name: a, Description: b, Kind: a, Budget: int(n), Spent: int(sec),
				PayPerTask: x, Strategy: b, Platform: a, Status: ProjectStatus(b), CreatedAt: tm},
			TaskRec{ID: a, ProjectID: b, ResourceID: a, WorkerID: b, Status: TaskStatus(a), Reward: x, CreatedAt: tm, DoneAt: tm},
			UserRec{ID: a, Role: Role(b), Name: a, Judged: int(n), JudgedOK: int(nsec), Earned: x},
		} {
			encodeParity(t, v)
		}
	})
}

// parentFrame is the frame encoder as it was before one-pass framing:
// json.Marshal of the Record, then the CRC prefix through fmt.Sprintf.
func parentFrame(t *testing.T, rec Record) []byte {
	t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(body))
	return append(append(line, body...), '\n')
}

// TestFrameMatchesParent: appendFrame writes, byte for byte, the line the
// json.Marshal-then-Sprintf framing wrote, for put, delete and batch records
// whose values come from appendValue (records and other types alike) and
// whose tables and keys need escaping — each alone, and each appended to one
// buffer after the others, as a batch leader frames them.
func TestFrameMatchesParent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	value := func(v any) json.RawMessage {
		raw, err := appendValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var recs []Record
	for i := 0; i < 200; i++ {
		var subs []Record
		for _, v := range append(randRecords(r), i, "s<&>", map[string]any{"k": []int{1, 2}}, nil) {
			subs = append(subs, Record{Op: OpPut, Table: randString(r), Key: randString(r), Value: value(v)})
		}
		subs = append(subs, Record{Op: OpDelete, Table: TablePosts, Key: randString(r)})
		recs = append(recs, subs[0], subs[len(subs)-1], Record{Op: OpBatch, Batch: subs})
	}
	recs = append(recs, Record{Op: "nope"}, Record{Op: OpPut, Table: "t", Key: "k"}, Record{Op: OpDelete})
	var buf []byte
	for i, rec := range recs {
		rec.Seq = uint64(i) * 1e15
		want := parentFrame(t, rec)
		if got := appendFrame(nil, rec); !bytes.Equal(got, want) {
			t.Fatalf("record %d:\nappendFrame %q\nparent      %q", i, got, want)
		}
		start := len(buf)
		if buf = appendFrame(buf, rec); !bytes.Equal(buf[start:], want) {
			t.Fatalf("record %d after %d bytes:\nappendFrame %q\nparent      %q", i, start, buf[start:], want)
		}
	}
}

// frameSeeds are frame bodies for the frame decoder's parity checks: every
// record of testdata/golden-wal, and appendFrame of random records — puts,
// deletes and batches whose tables, keys and values hold <>&, U+2028,
// non-ASCII, escapes and invalid UTF-8 — plus the shapes checkRecord refuses.
func frameSeeds(t testing.TB) [][]byte {
	var bodies [][]byte
	golden, err := os.ReadFile(filepath.Join(goldenDir, "itag.wal.seg-00000002"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		if len(line) > 10 {
			bodies = append(bodies, line[9:len(line)-1])
		}
	}
	r := rand.New(rand.NewSource(11))
	key := func() string {
		if r.Intn(2) == 0 {
			return fmt.Sprintf("res-%04d/%012d", r.Intn(1e4), r.Intn(1e6))
		}
		return randString(r)
	}
	for i := 0; i < 60; i++ {
		var subs []Record
		for _, v := range append(randRecords(r), i, "s<&>\u2028", map[string]any{"k": []int{1, 2}}) {
			raw, err := appendValue(nil, v)
			if err != nil {
				continue // a record json.Marshal refuses is never staged
			}
			subs = append(subs, Record{Op: OpPut, Table: TablePosts, Key: key(), Value: raw})
		}
		subs[0].Table = randString(r)
		subs = append(subs, Record{Op: OpDelete, Table: TableTasks, Key: key()})
		for _, rec := range []Record{subs[0], subs[len(subs)-1], {Op: OpBatch, Batch: subs}} {
			rec.Seq = uint64(r.Int63())
			frame := appendFrame(nil, rec)
			bodies = append(bodies, frame[9:len(frame)-1])
		}
	}
	for _, tc := range refusedRecords {
		frame := appendFrame(nil, tc.rec)
		bodies = append(bodies, frame[9:len(frame)-1])
	}
	return bodies
}

// frameParity: the frame cursor decodes body to json.Unmarshal's Record or
// declines, and decodeRecord, the cursor with its fallback, decodes to
// json.Unmarshal's Record or fails where it fails.
func frameParity(t *testing.T, body []byte) (took bool) {
	t.Helper()
	var want Record
	wantErr := json.Unmarshal(body, &want)
	// The cursor decodes a copy that is then overwritten, as a reader's
	// buffer is: nothing it returns may alias the bytes it read.
	var got Record
	scratch := bytes.Clone(body)
	took = intoRecord(scratch, &got)
	for i := range scratch {
		scratch[i] = 'x'
	}
	if took && (wantErr != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("%q: cursor decodes %#v; json.Unmarshal %#v, %v", body, got, want, wantErr)
	}
	dec, err := decodeRecord(body)
	if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(dec, want) {
		t.Fatalf("%q: decodeRecord %#v, %v; json.Unmarshal %#v, %v", body, dec, err, want, wantErr)
	}
	return took
}

// TestFrameDecodeMatchesEncodingJSON runs frameSeeds through frameParity,
// and requires the cursor to take every frame with no escape in it: a frame
// as appendRecord writes it is never left to json.Unmarshal.
func TestFrameDecodeMatchesEncodingJSON(t *testing.T) {
	took := 0
	for _, body := range frameSeeds(t) {
		if frameParity(t, body) {
			took++
		} else if !bytes.ContainsRune(body, '\\') {
			t.Fatalf("%s: the cursor declines a frame with no escape", body)
		}
	}
	if took < 50 {
		t.Fatalf("the cursor took %d frames of the seeds", took)
	}
}

// FuzzFrameDecode: for any frame body, the cursor decodes the Record
// json.Unmarshal decodes (reflect.DeepEqual), aliasing none of the body, or
// declines.
func FuzzFrameDecode(f *testing.F) {
	for _, body := range frameSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		frameParity(t, body)
	})
}
