package store

// Snapshot files make recovery incremental: instead of replaying the full
// WAL history, Open loads the snapshot (a checksummed JSON image of every
// table at a cut sequence number) and replays only the segments written
// after it. Format:
//
//	itag-snapshot v1 <crc32 hex>\n
//	{"seq": N, "tables": {"<table>": {"<key>": <raw value>, ...}, ...}}
//
// The CRC covers the JSON body; a snapshot that fails its checksum or does
// not parse fails Open outright — falling back to older state could
// silently resurrect keys deleted after that state was written.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"itag/internal/errs"
)

const snapMagic = "itag-snapshot v1 "

// writeSnapshotFile encodes, writes and fsyncs a snapshot of idx at path.
func writeSnapshotFile(path string, seq uint64, idx dbIndex) error {
	data, err := encodeSnapshot(seq, idx)
	if err != nil {
		return err
	}
	return writeSnapshotBytes(path, data)
}

// writeSnapshotBytes writes a pre-encoded snapshot image to path and fsyncs
// it.
func writeSnapshotBytes(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "create snapshot")
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "write snapshot")
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "close snapshot")
	}
	return nil
}

// loadSnapshotFile reads, verifies and decodes a snapshot.
func loadSnapshotFile(path string) (uint64, dbIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "read snapshot")
	}
	return parseSnapshot(data, filepath.Base(path))
}

// parseSnapshot verifies and decodes a snapshot image (file contents or a
// replicated SnapshotExport); name labels corruption errors.
func parseSnapshot(data []byte, name string) (uint64, dbIndex, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data, []byte(snapMagic)) || nl != len(snapMagic)+8 {
		return 0, nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "snapshot %s: bad header", name)
	}
	want, err := strconv.ParseUint(string(data[len(snapMagic):nl]), 16, 32)
	if err != nil {
		return 0, nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "snapshot %s: bad checksum field", name)
	}
	body := data[nl+1:]
	if crc32.ChecksumIEEE(body) != uint32(want) {
		return 0, nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "snapshot %s: checksum mismatch", name)
	}
	var snap struct {
		Seq    uint64                                `json:"seq"`
		Tables map[string]map[string]json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "snapshot %s: %v", name, err)
	}
	idx := make(dbIndex, 0, len(snap.Tables))
	for name, t := range snap.Tables {
		ents := make([]entry, 0, len(t))
		for k, v := range t {
			ents = append(ents, entry{k, v})
		}
		slices.SortFunc(ents, func(a, b entry) int { return strings.Compare(a.key, b.key) })
		idx = append(idx, namedTree{name, buildTree(ents)})
	}
	slices.SortFunc(idx, func(a, b namedTree) int { return strings.Compare(a.name, b.name) })
	return snap.Seq, idx, nil
}

// encodeSnapshot renders a snapshot image (header line + checksummed JSON
// body) of idx: what compaction writes to disk and SnapshotExport ships to
// followers.
func encodeSnapshot(seq uint64, idx dbIndex) ([]byte, error) {
	tables := make(map[string]tree, len(idx))
	for _, t := range idx {
		tables[t.name] = t.tree
	}
	body, err := json.Marshal(struct {
		Seq    uint64          `json:"seq"`
		Tables map[string]tree `json:"tables"`
	}{seq, tables})
	if err != nil {
		return nil, errs.Wrap(err, errs.ComponentStore, errs.CategoryInternal, "encode snapshot")
	}
	out := make([]byte, 0, len(snapMagic)+9+len(body))
	out = fmt.Appendf(out, "%s%08x\n", snapMagic, crc32.ChecksumIEEE(body))
	return append(out, body...), nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable (best effort; some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
