package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"itag/internal/errs"
)

// shipOnce ships one ReplTail batch from leader to follower, transparently
// falling back to a snapshot install — what one round of the cluster's
// replication stream does. Returns false once the follower is caught up.
func shipOnce(t *testing.T, leader, follower *DB, maxBytes int) bool {
	t.Helper()
	from := follower.AppliedSeq()
	data, last, err := leader.ReplTail(from, maxBytes, nil)
	if errors.Is(err, ErrSnapshotNeeded) {
		img, serr := leader.SnapshotExport()
		if serr != nil {
			t.Fatalf("SnapshotExport: %v", serr)
		}
		if ierr := follower.InstallSnapshot(img); ierr != nil {
			t.Fatalf("InstallSnapshot: %v", ierr)
		}
		return true
	}
	if err != nil {
		t.Fatalf("ReplTail(%d): %v", from, err)
	}
	if len(data) == 0 {
		return false
	}
	applied, err := follower.ApplyReplicated(data)
	if err != nil {
		t.Fatalf("ApplyReplicated after %d: %v", from, err)
	}
	if applied != last {
		t.Fatalf("ApplyReplicated reached seq %d, tail said %d", applied, last)
	}
	return true
}

func catchUp(t *testing.T, leader, follower *DB, maxBytes int) {
	t.Helper()
	for i := 0; shipOnce(t, leader, follower, maxBytes); i++ {
		if i > 10000 {
			t.Fatal("replication did not converge")
		}
	}
	if lw, fw := leader.AppliedSeq(), follower.AppliedSeq(); fw != lw {
		t.Fatalf("follower watermark %d, leader %d", fw, lw)
	}
}

func TestReplicationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SyncEvery: 1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 60; i++ {
		if err := leader.Put("res", fmt.Sprintf("res-%04d", i), map[string]int{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Apply([]Mutation{
		{Op: OpPut, Table: "res", Key: "res-0000", Value: jsonOf("rewritten")},
		{Op: OpDelete, Table: "res", Key: "res-0001"},
		{Op: OpPut, Table: "proj", Key: "proj-000001", Value: jsonOf(7)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete("res", "res-0002"); err != nil {
		t.Fatal(err)
	}

	// Small maxBytes forces many polls and record-boundary chunking across
	// the rotated segment files.
	catchUp(t, leader, follower, 256)
	want := modelOf(leader.loadIndex())
	want.check(t, "follower", follower, nil)

	// The follower's own WAL must be a valid standalone store: reopen it
	// cold and recover the same state and watermark.
	seq := follower.AppliedSeq()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err = Open(filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer follower.Close()
	if got := follower.AppliedSeq(); got != seq {
		t.Fatalf("recovered watermark %d, want %d", got, seq)
	}
	want.check(t, "follower", follower, nil)

	// And it keeps replicating from where it recovered.
	if err := leader.Put("res", "res-after-reopen", 1); err != nil {
		t.Fatal(err)
	}
	catchUp(t, leader, follower, 1<<20)
	modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
}

// TestReplTailBudgetBoundary pins the budget contract the cluster's follower
// sizes its reads on: a frames shipment stops at a record boundary at or
// below maxBytes, and only ever exceeds the budget when its single first
// record does. A multi-record overshoot would be read truncated mid-frame
// by the follower, rejected by ApplyReplicated, and retried identically —
// replication wedged until an unrelated compaction forced a snapshot.
func TestReplTailBudgetBoundary(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	const budget = 512
	for i := 0; i < 30; i++ {
		if err := leader.Put("res", fmt.Sprintf("res-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	// One record far larger than the whole budget, surrounded by small ones.
	if err := leader.Put("res", "big", bytes.Repeat([]byte("x"), 4*budget)); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 60; i++ {
		if err := leader.Put("res", fmt.Sprintf("res-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}

	follower := mustOpen(t, filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1})
	defer follower.Close()
	sawOversized := false
	for rounds := 0; ; rounds++ {
		if rounds > 1000 {
			t.Fatal("replication did not converge")
		}
		data, last, err := leader.ReplTail(follower.AppliedSeq(), budget, nil)
		if err != nil {
			t.Fatalf("ReplTail: %v", err)
		}
		if len(data) == 0 {
			break
		}
		if len(data) > budget {
			sawOversized = true
			if n := bytes.Count(data, []byte("\n")); n != 1 {
				t.Fatalf("over-budget response carries %d records (%d bytes > %d)", n, len(data), budget)
			}
		}
		applied, err := follower.ApplyReplicated(data)
		if err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
		if applied != last {
			t.Fatalf("applied to seq %d, tail said %d", applied, last)
		}
	}
	if !sawOversized {
		t.Fatal("the oversized record never forced an over-budget single-record response")
	}
	modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
}

// TestReplTailFileScanAllocs: a reader trailing past the tail window is
// answered from the segment files on every call. With its cursor, a call
// reuses the cursor's 64 KiB file reader and its answer buffer, and
// allocates what opening the file and checking each record it reads cost:
// ≈ 41 KB for an 8 KiB page of 600-byte records, 105 KB with a reader
// made per call.
func TestReplTailFileScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the product's")
	}
	db, err := Open(filepath.Join(t.TempDir(), "leader.wal"), Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pad := strings.Repeat("x", 600)
	const records = 1200 // ≈ 800 KB: the first records are far behind the window
	for i := 0; i < records; i++ {
		if err := db.Put("res", fmt.Sprintf("res-%04d", i), pad); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 8 << 10
	var cur TailCursor
	at := uint64(0)
	page := func() {
		data, last, err := db.ReplTail(at, budget, &cur)
		if err != nil || len(data) == 0 {
			t.Fatalf("ReplTail(%d) = %d bytes, %v", at, len(data), err)
		}
		at = last
	}
	page() // the cursor's reader and buffer are made here
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		page()
	}
	runtime.ReadMemStats(&after)
	if at >= records/2 {
		t.Fatalf("the reader reached seq %d: not behind the window all along", at)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / calls
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("a file-path call allocates %.1f times and %.0f B", allocs, bytes)
	if bytes > 48<<10 {
		t.Errorf("a file-path call allocates %.1f times and %.0f B, want at most 48 KiB", allocs, bytes)
	}
}

// TestTailCursorsAreTheirReaders: two readers paging the same WAL from
// different places, turn about, each with its own cursor. Every page equals
// the stateless read of the same (from, budget); each reader's second page
// onward in the active segment resumes at its cursor (the cursor is its own:
// the other reader's calls in between did not move or evict it); and a
// cursor that does not match the call's from is ignored, not trusted.
func TestTailCursorsAreTheirReaders(t *testing.T) {
	// One segment, larger than the tail window reaches back, so both readers
	// are on the file path and in the same file.
	db, err := Open(filepath.Join(t.TempDir(), "leader.wal"), Options{SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pad := strings.Repeat("x", 600)
	const records = 1200
	for i := 0; i < records; i++ {
		if err := db.Put("res", fmt.Sprintf("res-%04d", i), pad); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 8 << 10
	type reader struct {
		at    uint64
		cur   TailCursor
		pages int
	}
	readers := []*reader{{at: 0}, {at: 300}}
	for step := 0; step < 40; step++ {
		r := readers[step%2]
		if r.pages > 0 && (r.cur.seq != r.at || r.cur.off == 0) {
			t.Fatalf("reader at seq %d holds cursor {seq %d, off %d} after %d pages: not where it stopped",
				r.at, r.cur.seq, r.cur.off, r.pages)
		}
		got, last, err := db.ReplTail(r.at, budget, &r.cur)
		if err != nil {
			t.Fatal(err)
		}
		want, wantLast, err := db.ReplTail(r.at, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || last != wantLast {
			t.Fatalf("ReplTail(%d) with the reader's cursor = %d bytes to seq %d, stateless = %d bytes to seq %d",
				r.at, len(got), last, len(want), wantLast)
		}
		r.at, r.pages = last, r.pages+1
	}
	// Someone else's cursor (right file, wrong sequence) changes nothing.
	stale := readers[0].cur
	got, _, err := db.ReplTail(readers[1].at, budget, &stale)
	want, _, _ := db.ReplTail(readers[1].at, budget, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReplTail(%d) handed a cursor for seq %d = %d bytes (%v), stateless = %d bytes",
			readers[1].at, readers[0].cur.seq, len(got), err, len(want))
	}
}

// TestReplTailOpensOnlyWhatItShips: a sealed segment records the applied
// watermark it was sealed at, so a read positioned past it skips the file
// without opening it — shown by deleting the early segments behind the
// store's back: the late read still answers, the read from the start cannot.
// Recovery restores the same knowledge from what it replayed.
func TestReplTailOpensOnlyWhatItShips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "leader.wal")
	opts := Options{SegmentBytes: 512}
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	const records = 200
	for i := 0; i < records; i++ {
		if err := db.Put("res", fmt.Sprintf("res-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *DB, when string) {
		t.Helper()
		segs, err := listSegments(path)
		if err != nil || len(segs) < 6 {
			t.Fatalf("%s: %d segments (%v), want several", when, len(segs), err)
		}
		late := uint64(records - 3)
		want, _, err := db.readTail(nil, late, 1<<20, nil)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: the file scan from %d = %d bytes, %v", when, late, len(want), err)
		}
		for _, s := range segs[:3] {
			if err := os.Rename(s.path, s.path+".hidden"); err != nil {
				t.Fatal(err)
			}
		}
		got, last, err := db.readTail(nil, late, 1<<20, nil)
		if err != nil || !bytes.Equal(got, want) || last != records {
			t.Errorf("%s: the file scan from %d with the early segments gone = %d bytes to seq %d, %v; want %d bytes to %d",
				when, late, len(got), last, err, len(want), records)
		}
		if _, _, err := db.readTail(nil, 0, 1<<20, nil); err == nil {
			t.Errorf("%s: the file scan from 0 answered with the segments it needs gone: the test hides nothing", when)
		}
		for _, s := range segs[:3] {
			if err := os.Rename(s.path+".hidden", s.path); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(db, "sealed by rotation")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "sealed by recovery")
}

func TestReplicationSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SyncEvery: 1, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 40; i++ {
		if err := leader.Put("res", fmt.Sprintf("res-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Delete("res", "res-0005"); err != nil {
		t.Fatal(err)
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}

	// A fresh follower's tail starts below the compaction cut: the leader
	// must demand a snapshot install, not invent the compacted records.
	if _, _, err := leader.ReplTail(0, 1<<20, nil); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("ReplTail(0) after compaction: %v, want ErrSnapshotNeeded", err)
	}

	follower, err := Open(filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	catchUp(t, leader, follower, 1<<20)
	modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
	if got := follower.Stats().SnapshotSeq; got == 0 {
		t.Fatal("installed snapshot did not set the follower's snapshot seq")
	}

	// Deleted-key resurrection check across the snapshot: res-0005 must not
	// come back after the follower recovers from its own files.
	for i := 40; i < 50; i++ {
		if err := leader.Put("res", fmt.Sprintf("res-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, leader, follower, 1<<20)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err = Open(filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer follower.Close()
	if follower.Has("res", "res-0005") {
		t.Fatal("deleted key resurrected through snapshot install + recovery")
	}
	modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
}

// TestReplTailRequiresWAL: only a WAL store replicates. On a memory store
// every replication call answers a validation error and changes nothing.
func TestReplTailRequiresWAL(t *testing.T) {
	leader := mustOpen(t, filepath.Join(t.TempDir(), "leader.wal"), Options{SyncEvery: 1})
	defer leader.Close()
	if err := leader.Put("t", "k", 1); err != nil {
		t.Fatal(err)
	}
	frames, _, err := leader.ReplTail(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, err := leader.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	db := OpenMemory()
	defer db.Close()
	if err := db.Put("t", "mine", 2); err != nil {
		t.Fatal(err)
	}
	want := modelOf(db.loadIndex())
	_, _, tailErr := db.ReplTail(0, 0, nil)
	_, exportErr := db.SnapshotExport()
	_, applyErr := db.ApplyReplicated(frames)
	_, emptyErr := db.ApplyReplicated(nil)
	for name, err := range map[string]error{
		"ReplTail": tailErr, "SnapshotExport": exportErr, "ApplyReplicated": applyErr,
		"an empty ApplyReplicated": emptyErr, "InstallSnapshot": db.InstallSnapshot(img),
	} {
		if errs.CategoryOf(err) != errs.CategoryValidation {
			t.Errorf("%s on a memory store: %v, want a validation error", name, err)
		}
	}
	want.check(t, "memory store", db, nil)
	if db.Seq() != 1 {
		t.Fatalf("the memory store moved to seq %d", db.Seq())
	}
}

// TestApplyReplicatedRejectsBadBatches is the follower-ingest corruption
// suite: corrupt, truncated, gapped and malformed shipped batches must be
// rejected whole with an io/corruption taxonomy error — never a panic,
// never a partial apply, never a silent gap.
func TestApplyReplicatedRejectsBadBatches(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 8; i++ {
		if err := leader.Put("res", fmt.Sprintf("res-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	pristine, last, err := leader.ReplTail(0, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(data []byte) []byte {
		c := bytes.Clone(data)
		c[len(c)/2] ^= 0xFF
		return c
	}
	truncate := func(data []byte) []byte { return bytes.Clone(data)[:len(data)-3] }
	gapped := func(data []byte) []byte {
		nl := bytes.IndexByte(data, '\n')
		return bytes.Clone(data[nl+1:]) // starts at seq 2 against a seq-0 follower
	}
	badOp := func([]byte) []byte {
		return appendFrame(nil, Record{Seq: 1, Op: "nope", Table: "res", Key: "x"})
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"flipped byte", corrupt},
		{"truncated tail", truncate},
		{"sequence gap", gapped},
		{"invalid op", badOp},
		{"garbage", func([]byte) []byte { return []byte("not a frame\n") }},
	}
	for _, tc := range refusedRecords {
		frame := appendFrame(nil, tc.rec)
		cases = append(cases, struct {
			name   string
			mangle func([]byte) []byte
		}{tc.name, func([]byte) []byte { return frame }})
	}
	follower := mustOpen(t, filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1})
	defer follower.Close()
	for _, tc := range cases {
		if _, aerr := follower.ApplyReplicated(tc.mangle(pristine)); errs.CategoryOf(aerr) != errs.CategoryCorruption {
			t.Fatalf("%s: ApplyReplicated = %v, want corruption taxonomy error", tc.name, aerr)
		}
		if got := follower.AppliedSeq(); got != 0 {
			t.Fatalf("%s: follower advanced to seq %d on a rejected batch", tc.name, got)
		}
		if n := follower.Count("res"); n != 0 {
			t.Fatalf("%s: partial apply left %d keys", tc.name, n)
		}
	}
	// The rejected attempts must not have poisoned the follower: the
	// pristine batch still applies cleanly afterwards.
	applied, aerr := follower.ApplyReplicated(pristine)
	if aerr != nil || applied != last {
		t.Fatalf("pristine batch after rejections: seq %d, err %v", applied, aerr)
	}
	modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
}

// refusedRecords are CRC-valid frames, at sequence 1, of records DB.Apply
// never writes. A follower that took one would log a record it does not
// apply, or apply one its leader could not have committed.
var refusedRecords = []struct {
	name string
	rec  Record
}{
	{"sub-op frob", Record{Seq: 1, Op: OpBatch, Batch: []Record{
		{Op: OpPut, Table: "res", Key: "a", Value: json.RawMessage(`1`)},
		{Op: "frob", Table: "res", Key: "b", Value: json.RawMessage(`2`)},
	}}},
	{"nested batch", Record{Seq: 1, Op: OpBatch, Batch: []Record{
		{Op: OpPut, Table: "res", Key: "a", Value: json.RawMessage(`1`)},
		{Op: OpBatch, Batch: []Record{{Op: OpPut, Table: "res", Key: "b", Value: json.RawMessage(`2`)}}},
	}}},
	{"sub-record with a seq", Record{Seq: 1, Op: OpBatch, Batch: []Record{
		{Seq: 1, Op: OpPut, Table: "res", Key: "a", Value: json.RawMessage(`1`)},
	}}},
	{"sub-put with no value", Record{Seq: 1, Op: OpBatch, Batch: []Record{
		{Op: OpPut, Table: "res", Key: "a", Value: json.RawMessage(`1`)},
		{Op: OpPut, Table: "res", Key: "b"},
	}}},
	{"put with no value", Record{Seq: 1, Op: OpPut, Table: "res", Key: "a"}},
	{"delete with a value", Record{Seq: 1, Op: OpDelete, Table: "res", Key: "a", Value: json.RawMessage(`1`)}},
}

// TestReplayRefusesRecordsApplyRefuses: a segment holding one of
// refusedRecords does not open; recovery reports corruption instead of
// replaying a record Apply would not have written.
func TestReplayRefusesRecordsApplyRefuses(t *testing.T) {
	for _, tc := range refusedRecords {
		path := filepath.Join(t.TempDir(), "itag.wal")
		if err := os.WriteFile(segPath(path, 1), appendFrame(nil, tc.rec), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path, Options{})
		if err == nil {
			db.Close()
		}
		if errs.CategoryOf(err) != errs.CategoryCorruption {
			t.Fatalf("%s: Open = %v, want a corruption error", tc.name, err)
		}
	}
}

func TestInstallSnapshotValidation(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 5; i++ {
		if err := leader.Put("res", fmt.Sprintf("res-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	img, err := leader.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt image: flip a body byte.
	bad := bytes.Clone(img)
	bad[len(bad)-2] ^= 0xFF
	follower := mustOpen(t, filepath.Join(dir, "f.wal"), Options{SyncEvery: 1})
	defer follower.Close()
	if ierr := follower.InstallSnapshot(bad); errs.CategoryOf(ierr) != errs.CategoryCorruption {
		t.Fatalf("corrupt snapshot install = %v, want corruption error", ierr)
	}

	// Valid install, then a stale re-install (same seq) must be refused —
	// going backwards could resurrect later-deleted keys.
	if ierr := follower.InstallSnapshot(img); ierr != nil {
		t.Fatal(ierr)
	}
	if ierr := follower.InstallSnapshot(img); errs.CategoryOf(ierr) != errs.CategoryConflict {
		t.Fatalf("stale snapshot install = %v, want conflict error", ierr)
	}
	modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
}

// TestReplicationConcurrentWriters streams the tail while writers are still
// appending and segments rotate underneath — the capture-under-smu path.
func TestReplicationConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower := mustOpen(t, filepath.Join(dir, "follower.wal"), Options{SyncEvery: 1})
	defer follower.Close()

	const writers, each = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := leader.Put("res", fmt.Sprintf("w%d-%04d", w, i), i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		shipOnce(t, leader, follower, 4096)
		select {
		case <-done:
			catchUp(t, leader, follower, 1<<20)
			modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
			return
		default:
		}
	}
}

// TestReplTailRotationHammer rotates on nearly every commit batch while
// several readers re-capture the whole tail from seq 0. A capture that lands
// between sealing a segment and opening its successor used to list that file
// twice (sealed and active) and report its second copy as a sequence gap —
// spurious corruption that trips the stream's backoff on a live cluster.
func TestReplTailRotationHammer(t *testing.T) {
	leader, err := Open(filepath.Join(t.TempDir(), "leader.wal"), Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	const writers, each, readers = 4, 120, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := leader.Put("res", fmt.Sprintf("w%d-%04d", w, i), i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				if _, _, err := leader.ReplTail(0, 1<<20, nil); err != nil {
					t.Errorf("ReplTail(0) during rotation: %v", err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if _, last, err := leader.ReplTail(0, 1<<20, nil); err != nil || last != writers*each {
		t.Fatalf("final tail: last=%d err=%v, want %d", last, err, writers*each)
	}
	if rot := leader.Stats().Rotations; rot < 50 {
		t.Fatalf("only %d rotations; the hammer did not hammer", rot)
	}
}

// TestTornShipment tears a follower's shipment halfway through its write: a
// shipment is a commit batch like any other, so the tear of a segment write
// takes it,
// the follower wedges, and recovery keeps a prefix of the shipment that
// matches the leader at the recovered sequence. Shipping again from there
// converges.
func TestTornShipment(t *testing.T) {
	dir := t.TempDir()
	leader, err := Open(filepath.Join(dir, "leader.wal"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	fpath := filepath.Join(dir, "follower.wal")
	var hook crashHook
	follower, err := Open(fpath, Options{SyncEvery: 1, Fault: hook.fault})
	if err != nil {
		t.Fatal(err)
	}
	// states[s] is the model at sequence s; the leader commits one record
	// at a time, so every sequence has one.
	m := model{}
	states := map[uint64]model{0: m.clone()}
	write := func(from, to int) {
		for i := from; i < to; i++ {
			mu := delRec("res", fmt.Sprintf("res-%04d", i-3))
			if i%7 != 6 {
				mu = putRec("res", fmt.Sprintf("res-%04d", i), fmt.Sprintf(`{"v":"v","n":%d}`, i))
			}
			if err := leader.Apply([]Mutation{mu}); err != nil {
				t.Fatal(err)
			}
			m.apply(mu)
			states[leader.AppliedSeq()] = m.clone()
		}
	}
	write(0, 10)
	catchUp(t, leader, follower, 1<<20)
	before := follower.AppliedSeq()
	write(10, 40)
	data, last, err := leader.ReplTail(before, 1<<20, nil)
	if err != nil || last <= before+1 {
		t.Fatalf("ReplTail(%d) = %d bytes up to %d, %v; want several records", before, len(data), last, err)
	}

	hook.arm(tearAppend, 0)
	if _, err := follower.ApplyReplicated(data); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn shipment: ApplyReplicated = %v, want ErrCrashed", err)
	}
	hook.arm(nil, 0)
	if err := follower.Put("res", "after-crash", 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("wedged follower accepted a write: %v", err)
	}
	if _, err := follower.ApplyReplicated(data); !errors.Is(err, ErrCrashed) {
		t.Fatalf("wedged follower accepted a shipment: %v", err)
	}
	_ = follower.Close()

	follower, err = Open(fpath, Options{SyncEvery: 1})
	if err != nil {
		t.Fatalf("reopen after torn shipment: %v", err)
	}
	defer follower.Close()
	got := follower.AppliedSeq()
	if got < before || got > last {
		t.Fatalf("recovered watermark %d outside [%d, %d]", got, before, last)
	}
	states[got].check(t, "recovered follower", follower, nil)
	catchUp(t, leader, follower, 1<<20)
	modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
}

// TestOneFsyncPerShipment pins a shipment's durability to the shipment, not
// to Options.SyncEvery: at 0 and at 1 alike, N non-empty shipments cost
// exactly N fsyncs and N commit batches, and an empty one costs nothing.
func TestOneFsyncPerShipment(t *testing.T) {
	for _, every := range []int{0, 1} {
		t.Run(fmt.Sprintf("SyncEvery=%d", every), func(t *testing.T) {
			dir := t.TempDir()
			leader, err := Open(filepath.Join(dir, "leader.wal"), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			follower, err := Open(filepath.Join(dir, "follower.wal"), Options{SyncEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			start := follower.Stats()
			const shipments = 5
			for s := 0; s < shipments; s++ {
				for i := 0; i < 3; i++ {
					if err := leader.Put("res", fmt.Sprintf("res-%d-%d", s, i), i); err != nil {
						t.Fatal(err)
					}
				}
				if !shipOnce(t, leader, follower, 1<<20) {
					t.Fatal("nothing to ship")
				}
				if _, err := follower.ApplyReplicated(nil); err != nil {
					t.Fatalf("empty shipment: %v", err)
				}
			}
			st := follower.Stats()
			if st.Fsyncs-start.Fsyncs != shipments || st.CommitBatches-start.CommitBatches != shipments {
				t.Fatalf("%d shipments cost %d fsyncs and %d batches, want %d each",
					shipments, st.Fsyncs-start.Fsyncs, st.CommitBatches-start.CommitBatches, shipments)
			}
			modelOf(leader.loadIndex()).check(t, "follower", follower, nil)
		})
	}
}
