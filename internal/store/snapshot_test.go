package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"itag/internal/errs"
)

// v1Snapshot is the retired snapshot image, kept where -write-golden does
// not reach it: goldenHistory's compaction as the v1 writer rendered it.
const v1Snapshot = "testdata/snapshot-v1/itag.wal.snapshot"

const snapMagicV1 = "itag-snapshot v1 "

// parseSnapshotV1 is the retired v1 reader, kept as the oracle the v2 format
// is held to: a header line "itag-snapshot v1 <crc32 hex>", then one JSON
// object {"seq": N, "tables": {"<table>": {"<key>": <raw value>}}} whose
// CRC the header carries. It reads the image into a model.
func parseSnapshotV1(data []byte) (uint64, model, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data, []byte(snapMagicV1)) || nl != len(snapMagicV1)+8 {
		return 0, nil, errors.New("bad v1 header")
	}
	want, err := strconv.ParseUint(string(data[len(snapMagicV1):nl]), 16, 32)
	if err != nil {
		return 0, nil, err
	}
	body := data[nl+1:]
	if crc32.ChecksumIEEE(body) != uint32(want) {
		return 0, nil, errors.New("v1 checksum mismatch")
	}
	var snap struct {
		Seq    uint64                                `json:"seq"`
		Tables map[string]map[string]json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, nil, err
	}
	m := model{}
	for name, t := range snap.Tables {
		for k, v := range t {
			m.apply(Mutation{Op: OpPut, Table: name, Key: k, Value: v})
		}
	}
	return snap.Seq, m, nil
}

// TestSnapshotV1OracleMatchesV2: the v1 image of goldenHistory's compaction,
// decoded by the retired reader, is the state and sequence this checkout's
// v2 snapshot of the same history loads to.
func TestSnapshotV1OracleMatchesV2(t *testing.T) {
	v1, err := os.ReadFile(v1Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	seq1, want, err := parseSnapshotV1(v1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "itag.wal")
	goldenHistory(t, path, true)
	v2, err := os.ReadFile(path + snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	seq2, idx, err := readSnapshotBytes(v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range idx {
		checkTree(t, "v2 snapshot table "+tr.name, tr.tree)
	}
	if d := want.diff(idx); seq1 != seq2 || d != "" {
		t.Fatalf("v2 snapshot loads seq %d, the v1 oracle seq %d: %s", seq2, seq1, d)
	}
}

// TestV1SnapshotRefused: a store holding a v1 snapshot does not open, with a
// corruption error that names the format and the last release that reads
// it, and a v1 image shipped to a follower changes nothing there.
func TestV1SnapshotRefused(t *testing.T) {
	v1, err := os.ReadFile(v1Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "itag.wal")
	if err := os.WriteFile(path+snapSuffix, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, Options{})
	if errs.CategoryOf(err) != errs.CategoryCorruption || !strings.Contains(fmt.Sprint(err), "v1") ||
		!strings.Contains(fmt.Sprint(err), "PR 49") || !strings.Contains(fmt.Sprint(err), "itag.wal.snapshot") {
		t.Fatalf("Open over a v1 snapshot = %v, want a corruption error naming the file, v1 and PR 49", err)
	}

	follower := mustOpen(t, filepath.Join(t.TempDir(), "f.wal"), Options{SyncEvery: 1})
	defer follower.Close()
	if err := follower.Put("t", "k", 1); err != nil {
		t.Fatal(err)
	}
	before, seq := modelOf(follower.loadIndex()), follower.Seq()
	if err := follower.InstallSnapshot(v1); errs.CategoryOf(err) != errs.CategoryCorruption || !strings.Contains(fmt.Sprint(err), "v1") {
		t.Fatalf("InstallSnapshot of a v1 image = %v, want a corruption error naming v1", err)
	}
	before.check(t, "after a refused v1 install", follower, nil)
	if follower.Seq() != seq {
		t.Fatalf("a refused v1 install moved the follower to seq %d, was %d", follower.Seq(), seq)
	}
}

// snapshotFixture is a leader with three tables and its SnapshotExport,
// split into the header line and the entry lines (newlines kept).
func snapshotFixture(t *testing.T) (img []byte, header []byte, entries [][]byte) {
	t.Helper()
	db := mustOpen(t, filepath.Join(t.TempDir(), "fixture.wal"), Options{})
	defer db.Close()
	for _, table := range []string{"a", "b", "c"} {
		for i := 0; i < 4; i++ {
			if err := db.Put(table, fmt.Sprintf("k%02d", i), map[string]int{"n": i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	img, err := db.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(img, []byte{'\n'})
	return img, lines[0], lines[1 : len(lines)-1]
}

// snapshotOf joins a header for count entries at seq with entry lines.
func snapshotOf(seq, count uint64, entries ...[]byte) []byte {
	header := fmt.Appendf(nil, "%s%d %d", snapMagic, seq, count)
	header = fmt.Appendf(header, " %08x\n", crc32.ChecksumIEEE(header))
	return bytes.Join(append([][]byte{header}, entries...), nil)
}

// TestSnapshotReaderRefusesMalformed: every malformed image, shipped to a
// follower or lying on disk as P.snapshot, is a corruption error that names
// the replicated snapshot or the file, and nothing of it is applied: a
// flipped byte anywhere, a frame that is not a put, entries out of (table,
// key) order or repeated, fewer or more entries than the header counts, a
// torn last line.
func TestSnapshotReaderRefusesMalformed(t *testing.T) {
	img, header, ents := snapshotFixture(t)
	if len(ents) != 12 || !bytes.HasPrefix(header, []byte(snapMagic+"12 12 ")) {
		t.Fatalf("fixture image:\n%s", img)
	}
	seq, n := uint64(12), uint64(len(ents))
	frame := func(rec Record) []byte { return appendFrame(nil, rec) }
	at := func(i int, line []byte) [][]byte {
		out := append([][]byte{}, ents...)
		out[i] = line
		return out
	}
	swapped := func(i, j int) [][]byte {
		out := append([][]byte{}, ents...)
		out[i], out[j] = out[j], out[i]
		return out
	}
	cases := map[string][]byte{
		"empty":           nil,
		"header only":     header,
		"torn last line":  img[:len(img)-1],
		"torn mid-frame":  img[:len(img)-20],
		"delete frame":    snapshotOf(seq, n, at(5, frame(Record{Op: OpDelete, Table: "b", Key: "k01"}))...),
		"batch frame":     snapshotOf(seq, n, at(5, frame(Record{Op: OpBatch, Batch: []Record{{Op: OpPut, Table: "b", Key: "k01", Value: []byte("1")}}}))...),
		"put with a seq":  snapshotOf(seq, n, at(5, frame(Record{Seq: 3, Op: OpPut, Table: "b", Key: "k01", Value: []byte("1")}))...),
		"keys swapped":    snapshotOf(seq, n, swapped(5, 6)...),
		"tables swapped":  snapshotOf(seq, n, swapped(3, 4)...),
		"key repeated":    snapshotOf(seq, n+1, append(append(append([][]byte{}, ents[:6]...), ents[5]), ents[6:]...)...),
		"too few entries": snapshotOf(seq, n, ents[:11]...),
		"too many":        snapshotOf(seq, n, append(append([][]byte{}, ents...), frame(Record{Op: OpPut, Table: "c", Key: "k99", Value: []byte("1")}))...),
		"count too high":  snapshotOf(seq, n+1, ents...),
	}
	for i := range img {
		bad := bytes.Clone(img)
		bad[i] ^= 0xFF
		cases[fmt.Sprintf("byte %d flipped", i)] = bad
	}

	follower := mustOpen(t, filepath.Join(t.TempDir(), "f.wal"), Options{SyncEvery: 1})
	defer follower.Close()
	if err := follower.Put("t", "mine", 1); err != nil {
		t.Fatal(err)
	}
	before, fseq := modelOf(follower.loadIndex()), follower.Seq()
	dir := t.TempDir()
	path := filepath.Join(dir, "itag.wal")
	for name, bad := range cases {
		err := follower.InstallSnapshot(bad)
		if errs.CategoryOf(err) != errs.CategoryCorruption || !strings.Contains(err.Error(), "replicated snapshot") {
			t.Fatalf("%s: InstallSnapshot = %v, want a corruption error naming the replicated snapshot", name, err)
		}
		before.check(t, name+": after a refused install", follower, nil)
		if follower.Seq() != fseq {
			t.Fatalf("%s: a refused install moved the follower to seq %d", name, follower.Seq())
		}
		if err := os.WriteFile(path+snapSuffix, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path, Options{})
		if db != nil || errs.CategoryOf(err) != errs.CategoryCorruption || !strings.Contains(err.Error(), "itag.wal.snapshot") {
			t.Fatalf("%s: Open = %v, want a corruption error naming the file", name, err)
		}
	}
	if err := follower.InstallSnapshot(img); err != nil {
		t.Fatalf("the intact image: %v", err)
	}
}

// TestCompactionWritesSnapshotExport: compaction and SnapshotExport are one
// writer: the file a compaction leaves is byte for byte the image exported
// from the same state, and that image loads back to the state.
func TestCompactionWritesSnapshotExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "itag.wal")
	goldenHistory(t, path, false)
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path + snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	img, err := db.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, img) {
		t.Fatalf("compaction wrote\n%s\nSnapshotExport gives\n%s", file, img)
	}
	seq, idx, err := readSnapshotBytes(img)
	if err != nil || seq != db.Seq() {
		t.Fatalf("the image loads to seq %d (%v), the store is at %d", seq, err, db.Seq())
	}
	modelOf(idx).check(t, "the store its image loads to", db, nil)
}

// readSnapshotBytes is InstallSnapshot's read of an image.
func readSnapshotBytes(img []byte) (uint64, dbIndex, error) {
	return readSnapshot(bufio.NewReader(bytes.NewReader(img)), "replicated snapshot")
}

// compactAllocBytes fills a fresh store with n entries of about 100 bytes
// each and returns what one Compact of it allocates.
func compactAllocBytes(t *testing.T, n int) uint64 {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "itag.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const batch = 1000
	for i := 0; i < n; i += batch {
		muts := make([]Mutation, 0, batch)
		for j := i; j < i+batch && j < n; j++ {
			muts = append(muts, Mutation{Op: OpPut, Table: TablePosts, Key: fmt.Sprintf("res-%06d/%012d", j%977, j),
				Value: fmt.Appendf(nil, `{"resource_id":"res-%06d","tags":["go","db","streaming"],"time":"2026-10-18T05:00:00Z","n":%d}`, j%977, j)})
		}
		if err := db.Apply(muts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompactionStreams: a compaction walks the cut's trees into the file,
// so what it allocates does not grow with the state: ten times the entries
// (an image of about 14 MB against 1.4 MB) cost at most 1 MiB more. Encoding
// the image into one buffer before writing it fails this.
func TestCompactionStreams(t *testing.T) {
	small, large := compactAllocBytes(t, 1e4), compactAllocBytes(t, 1e5)
	t.Logf("Compact allocates %d B at 1e4 entries, %d B at 1e5", small, large)
	if large > small+1<<20 {
		t.Fatalf("Compact allocates %d B at 1e5 entries, %d B at 1e4: it grows with the state", large, small)
	}
}

// TestInterruptedSnapshotWrite cuts goldenHistory's snapshot image at every
// byte offset. Left as P.snapshot.tmp (the compactor died before its
// rename), the prefix is dropped and Open recovers the whole history from
// the segments; renamed into place as P.snapshot (a damaged file), it is
// refused as corruption, and no partial state is ever loaded.
func TestInterruptedSnapshotWrite(t *testing.T) {
	compacted := filepath.Join(t.TempDir(), "itag.wal")
	goldenHistory(t, compacted, true)
	img, err := os.ReadFile(compacted + snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	db := mustOpen(t, compacted, Options{})
	want := modelOf(db.loadIndex())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(t.TempDir(), "itag.wal")
	goldenHistory(t, full, false)
	for cut := 0; cut <= len(img); cut++ {
		if err := os.WriteFile(full+snapTmpSuffix, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(full, Options{})
		if err != nil {
			t.Fatalf("%d-byte snapshot.tmp: Open = %v", cut, err)
		}
		if cut == 0 {
			want.check(t, "the uncompacted history", db, nil)
		}
		d := want.diff(db.loadIndex())
		loaded := db.Stats().SnapshotsLoaded
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if d != "" || loaded != 0 {
			t.Fatalf("%d-byte snapshot.tmp: %s (snapshots loaded %d); want the state from the segments", cut, d, loaded)
		}
		if _, err := os.Stat(full + snapTmpSuffix); !os.IsNotExist(err) {
			t.Fatalf("%d-byte snapshot.tmp survived Open: %v", cut, err)
		}
	}
	for cut := 0; cut < len(img); cut++ {
		if err := os.WriteFile(compacted+snapSuffix, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(compacted, Options{})
		if db != nil || errs.CategoryOf(err) != errs.CategoryCorruption {
			t.Fatalf("%d of the snapshot's %d bytes: Open = %v, want a corruption error", cut, len(img), err)
		}
	}
}

// TestSnapshotRefusesNonUTF8Names: a key that is not valid UTF-8 cannot be
// framed and read back as itself, so compaction and SnapshotExport refuse
// the state with a validation error instead of writing a snapshot no reader
// accepts, and the store keeps opening from its segments. Apply refuses such
// a key (TestApplyRefusesNonUTF8Names); this is the backstop for one that
// reaches the tables below it, and the key is committed that way here.
func TestSnapshotRefusesNonUTF8Names(t *testing.T) {
	path := filepath.Join(t.TempDir(), "itag.wal")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("t", "a", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.commitRecord(OpPut, "t", "b\xff", jsonOf(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); errs.CategoryOf(err) != errs.CategoryValidation {
		t.Fatalf("Compact = %v, want a validation error", err)
	}
	if _, err := db.SnapshotExport(); errs.CategoryOf(err) != errs.CategoryValidation {
		t.Fatalf("SnapshotExport = %v, want a validation error", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + snapSuffix); !os.IsNotExist(err) {
		t.Fatalf("a refused compaction left a snapshot: %v", err)
	}
	re, err := Open(path, Options{})
	if err != nil || re.Count("t") != 2 {
		t.Fatalf("reopen after the refused compaction: %v", err)
	}
	re.Close()
}
