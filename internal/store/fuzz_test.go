package store

// Fuzz targets over WAL recovery: arbitrary byte corruption and truncation
// of segment and snapshot files must never panic and never produce a state
// that does not read as the model of a prefix of the committed history — in
// particular a delete must never be silently dropped while later records
// survive (resurrection). Seed corpus lives in testdata/fuzz/<FuzzName>/.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"itag/internal/errs"
)

// fuzzHistory is the canonical history the fuzz targets corrupt, one Apply
// a step: puts, overwrites, deletes and a batch, so every recovery prefix
// is distinguishable and deletions can "resurrect".
var fuzzHistory = [][]Mutation{
	{putRec("t", "a", "1")},
	{putRec("t", "b", "2")},
	{putRec("t", "c", "3")},
	{delRec("t", "a")},
	{putRec("t", "d", "4"), delRec("t", "c")},
	{putRec("t", "b", "9")},
	{delRec("t", "d")},
	{putRec("t", "e", "5")},
}

// applyFuzzHistory drives the steps [from, to) into the store.
func applyFuzzHistory(s Store, from, to int) error {
	for _, muts := range fuzzHistory[from:to] {
		if err := s.Apply(muts); err != nil {
			return err
		}
	}
	return nil
}

// requirePrefixState fails unless a recovered store reads as the model of
// some prefix of the history at or past minPrefix, through every read the
// model's reader makes — anything else means recovery invented, reordered
// or resurrected records.
func requirePrefixState(t *testing.T, db *DB, minPrefix int, label string) {
	t.Helper()
	prefix := model{}
	for i := 0; i <= len(fuzzHistory); i++ {
		if i >= minPrefix && prefix.diff(db.loadIndex()) == "" {
			prefix.check(t, fmt.Sprintf("%s (prefix %d)", label, i), db, nil)
			return
		}
		if i < len(fuzzHistory) {
			prefix.apply(fuzzHistory[i]...)
		}
	}
	t.Fatalf("%s: recovered state %q is not a committed-history prefix (>= %d): corruption was silently misapplied", label, modelOf(db.loadIndex()), minPrefix)
}

// corrupt applies the fuzzed mutation to a file: XOR one byte, then drop a
// tail. Returns false if the file is empty (nothing to corrupt).
func corrupt(t *testing.T, path string, pos uint32, xor byte, trunc uint16) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		return false
	}
	data[int(pos)%len(data)] ^= xor
	data = data[:len(data)-int(trunc)%len(data)]
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return true
}

// postRecoveryWriteCycle checks a successfully recovered store still
// accepts a write and survives one more reopen.
func postRecoveryWriteCycle(t *testing.T, path string, opts Options, db *DB) {
	t.Helper()
	if err := db.Put("t", "post-recovery", 77); err != nil {
		t.Fatalf("recovered store rejected write: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	db2, err := Open(path, opts)
	if err != nil {
		t.Fatalf("reopen after recovered write failed: %v", err)
	}
	var v int
	if err := db2.Get("t", "post-recovery", &v); err != nil || v != 77 {
		t.Fatalf("post-recovery write lost: %v (v=%d)", err, v)
	}
	_ = db2.Close()
}

func FuzzReplay(f *testing.F) {
	f.Add(uint32(0), byte(0), uint16(0))     // pristine log
	f.Add(uint32(40), byte(0xff), uint16(0)) // flip mid-record
	f.Add(uint32(3), byte('Z'), uint16(0))   // flip inside a CRC prefix
	f.Add(uint32(0), byte(0), uint16(17))    // torn tail
	f.Add(uint32(120), byte(1), uint16(9))   // flip + torn tail
	f.Add(uint32(9999), byte(0x80), uint16(1))

	f.Fuzz(func(t *testing.T, pos uint32, xor byte, trunc uint16) {
		path := filepath.Join(t.TempDir(), "wal")
		db, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := applyFuzzHistory(db, 0, len(fuzzHistory)); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(path)
		if err != nil || len(segs) != 1 {
			t.Fatalf("want exactly one segment, got %d (%v)", len(segs), err)
		}
		if !corrupt(t, segs[0].path, pos, xor, trunc) {
			return
		}

		db2, err := Open(path, Options{})
		if err != nil {
			return // corruption detected and reported: always acceptable
		}
		requirePrefixState(t, db2, 0, "FuzzReplay")
		postRecoveryWriteCycle(t, path, Options{}, db2)
	})
}

func FuzzSegmentRecovery(f *testing.F) {
	// The snapshot is 154 bytes: a 30-byte header line, then two 62-byte
	// put frames.
	f.Add(uint8(0), uint32(10), byte(0xff), uint16(0))  // snapshot header magic
	f.Add(uint8(0), uint32(28), byte(1), uint16(0))     // snapshot header count
	f.Add(uint8(0), uint32(80), byte(3), uint16(0))     // first snapshot frame
	f.Add(uint8(0), uint32(130), byte(0x20), uint16(0)) // last snapshot frame
	f.Add(uint8(0), uint32(0), byte(0), uint16(1))      // last frame torn
	f.Add(uint8(0), uint32(0), byte(0), uint16(62))     // last frame dropped
	f.Add(uint8(1), uint32(5), byte(0x10), uint16(0))   // first tail segment
	f.Add(uint8(9), uint32(30), byte(0), uint16(12))    // truncate last segment
	f.Add(uint8(3), uint32(64), byte('x'), uint16(2))
	f.Add(uint8(2), uint32(0), byte(1), uint16(0))

	f.Fuzz(func(t *testing.T, fileSel uint8, pos uint32, xor byte, trunc uint16) {
		path := filepath.Join(t.TempDir(), "wal")
		// Tiny segments force one record per segment; compacting halfway
		// leaves a snapshot plus a multi-segment tail.
		opts := Options{SegmentBytes: 16}
		db, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		mid := len(fuzzHistory) / 2
		if err := applyFuzzHistory(db, 0, mid); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := applyFuzzHistory(db, mid, len(fuzzHistory)); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(path)
		if err != nil || len(segs) < 2 {
			t.Fatalf("want snapshot + several segments, got %d segments (%v)", len(segs), err)
		}
		files := []string{path + snapSuffix}
		for _, s := range segs {
			files = append(files, s.path)
		}
		target := files[int(fileSel)%len(files)]
		if !corrupt(t, target, pos, xor, trunc) {
			return
		}

		db2, err := Open(path, opts)
		if err != nil {
			return // corruption detected and reported: always acceptable
		}
		// A recovered state must still be a history prefix; if the snapshot
		// loaded intact it can't be older than the snapshot cut.
		minPrefix := 0
		if target != files[0] && db2.Stats().SnapshotsLoaded == 1 {
			minPrefix = mid
		}
		requirePrefixState(t, db2, minPrefix, "FuzzSegmentRecovery")
		postRecoveryWriteCycle(t, path, opts, db2)
	})
}

// FuzzSnapshotLoad writes arbitrary bytes as P.snapshot and opens the
// store: Open either refuses them as corruption or loads a state whose
// SnapshotExport, loaded again, reads as the same model at the same seq.
func FuzzSnapshotLoad(f *testing.F) {
	db := mustOpen(f, filepath.Join(f.TempDir(), "wal"), Options{})
	if err := applyFuzzHistory(db, 0, len(fuzzHistory)); err != nil {
		f.Fatal(err)
	}
	img, err := db.SnapshotExport()
	if err != nil {
		f.Fatal(err)
	}
	db.Close()
	v1, err := os.ReadFile(v1Snapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(v1)
	f.Add(img[:len(img)-5]) // the last line torn
	f.Fuzz(func(t *testing.T, data []byte) {
		load := func(data []byte) *DB {
			path := filepath.Join(t.TempDir(), "wal")
			if err := os.WriteFile(path+snapSuffix, data, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(path, Options{})
			if err != nil && errs.CategoryOf(err) != errs.CategoryCorruption {
				t.Fatalf("Open refused a snapshot with %v, not a corruption error", err)
			}
			return db
		}
		db := load(data)
		if db == nil {
			return
		}
		defer db.Close()
		state := modelOf(db.loadIndex())
		state.check(t, "loaded snapshot", db, nil)
		again, err := db.SnapshotExport()
		if err != nil {
			t.Fatal(err)
		}
		db2 := load(again)
		if db2 == nil {
			t.Fatalf("the export of a loaded snapshot does not load:\n%q", again)
		}
		defer db2.Close()
		state.check(t, "the loaded snapshot's export", db2, nil)
		if db.Seq() != db2.Seq() {
			t.Fatalf("snapshot loads at seq %d, its export at %d", db.Seq(), db2.Seq())
		}
	})
}

// FuzzApply decodes bytes into a sequence of multi-record applies onto two
// tables — puts, overwrites, deletes, keys repeated within an apply, runs of
// up to 60 consecutive keys onto one leaf — and holds the index to the
// model and the tree invariants after every apply (indexModel.apply). Each
// byte pair is one step: the first byte's low three bits pick apply-now,
// delete, run or put, its top bit the table, its middle bits a run's length;
// the second byte picks the key.
func FuzzApply(f *testing.F) {
	f.Add([]byte{3, 0, 4, 1, 1, 1, 0, 0, 4, 1, 0x83, 7})
	f.Add([]byte{0x7b, 200, 0, 0, 0x7b, 200, 4, 5, 1, 5, 0, 0, 1, 5, 4, 5})
	f.Add([]byte{4, 9, 1, 9, 4, 9, 0x84, 9, 0x81, 9, 0, 0, 0x3b, 255, 0x3b, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		im := newIndexModel()
		var recs []Record
		flush := func(i int) {
			if len(recs) > 0 {
				im.apply(t, fmt.Sprintf("apply ending at byte %d", i), recs...)
				recs = recs[:0]
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			c, key := data[i], fmt.Sprintf("k%03d", data[i+1])
			tab := "t"
			if c&0x80 != 0 {
				tab = "u"
			}
			switch c & 7 {
			case 0:
				flush(i)
			case 1, 2:
				recs = append(recs, delRec(tab, key))
			case 3:
				for j := 0; j < int(c>>3&15)*4; j++ {
					recs = append(recs, putRec(tab, fmt.Sprintf("%s/%02d", key, j), strconv.Itoa(i)))
				}
			default:
				recs = append(recs, putRec(tab, key, strconv.Itoa(i)))
			}
		}
		flush(len(data))
	})
}
