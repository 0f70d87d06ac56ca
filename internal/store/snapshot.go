package store

// Snapshot files make recovery incremental: Open loads the snapshot (every
// table's entries at a cut sequence number) and replays only the segments
// written after it. A snapshot is a header line that ends in the CRC of its
// own text, then the put frame of every entry, as a segment frames it:
//
//	itag-snapshot v2 <seq> <entries> <crc32 hex>\n
//	<crc32 hex> {"seq":0,"op":"put","table":"<table>","key":"<key>","value":<raw>}\n
//	...
//
// one frame (appendFrame's bytes) per entry, in (table, key) order, so a
// table that deletes emptied does not outlive a compaction. writeSnapshot is
// the one writer (compaction, SnapshotExport, an installed image's file) and
// readSnapshot the one reader (Open, InstallSnapshot). A snapshot that fails
// any of the reader's checks fails outright — falling back to older state
// could silently resurrect keys deleted after that state was written.

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unicode/utf8"

	"itag/internal/errs"
)

const snapMagic = "itag-snapshot v2 "

// writeSnapshot writes the snapshot of idx at seq to w, framing each line
// into one reused buffer, so it allocates the same whatever the tables hold.
func writeSnapshot(w io.Writer, seq uint64, idx dbIndex) error {
	count := 0
	for _, t := range idx {
		count += t.n
	}
	line := fmt.Appendf(make([]byte, 0, 512), "%s%d %d", snapMagic, seq, count)
	line = fmt.Appendf(line, " %08x\n", crc32.ChecksumIEEE(line))
	_, err := w.Write(line)
	for _, t := range idx {
		for it := t.iter("", ""); it.ok && err == nil; it.advance() {
			if !utf8.ValidString(t.name) || !utf8.ValidString(it.key) {
				// A JSON string carries only UTF-8: the name would be read
				// back as another one, out of order, and the file refused.
				return errs.New(errs.ComponentStore, errs.CategoryValidation, "snapshot: table %q key %q is not valid UTF-8", t.name, it.key)
			}
			line = appendFrame(line[:0], Record{Op: OpPut, Table: t.name, Key: it.key, Value: it.val})
			_, err = w.Write(line)
		}
	}
	return err
}

// writeSnapshotFile writes and fsyncs a snapshot of idx at path through a
// buffered writer; on failure the file is removed.
func (d *disk) writeSnapshotFile(path string, seq uint64, idx dbIndex) error {
	f, err := d.create(path, os.O_TRUNC)
	if err != nil {
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "create snapshot")
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err = writeSnapshot(bw, seq, idx); err == nil {
		if err = bw.Flush(); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		d.remove(path)
		if errs.Find(err) != nil {
			return err // writeSnapshot's refusal of a name, not the disk
		}
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "write snapshot")
	}
	return nil
}

// readSnapshot reads a snapshot from r; name labels its errors. Each frame
// is checked as replay checks a segment's, and must also be a put that
// follows the one before in (table, key) order, one of exactly as many as
// the header counts. Each table's entries are built into its tree once.
func readSnapshot(r *bufio.Reader, name string) (uint64, dbIndex, error) {
	bad := func(format string, args ...any) (uint64, dbIndex, error) {
		return 0, nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "snapshot %s: "+format, append([]any{name}, args...)...)
	}
	var long []byte
	var seq, count uint64
	var sum uint32
	line, err := readLine(r, &long)
	if bytes.HasPrefix(line, []byte("itag-snapshot v1 ")) {
		return bad("format v1 (one checksummed JSON object) is not read by this release; PR 49 was the last release that reads it")
	}
	if _, serr := fmt.Sscanf(string(line), snapMagic+"%d %d %x\n", &seq, &count, &sum); err != nil || serr != nil ||
		crc32.ChecksumIEEE(line[:bytes.LastIndexByte(line, ' ')]) != sum {
		return bad("bad header")
	}
	var idx dbIndex
	var table string
	ents := make([]entry, 0, min(count, 1<<16))
	for n := uint64(1); n <= count; n++ {
		line, err := readLine(r, &long)
		if err != nil && err != io.EOF {
			return 0, nil, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "read snapshot %s", name)
		}
		if err != nil {
			return bad("entry %d of %d is missing or torn", n, count)
		}
		rec, err := parseFramed(line[:len(line)-1])
		switch {
		case err != nil:
			return bad("entry %d: %v", n, err)
		case rec.Op != OpPut || rec.Seq != 0:
			return bad("entry %d is not a put", n)
		case n > 1 && (rec.Table < table || rec.Table == table && rec.Key <= ents[len(ents)-1].key):
			return bad("entry %d (%s/%s) is out of order", n, rec.Table, rec.Key)
		case n > 1 && rec.Table != table:
			idx = append(idx, namedTree{table, buildTree(ents)}) // buildTree copies
			ents = ents[:0]
		}
		table = rec.Table
		ents = append(ents, entry{rec.Key, valueOf(rec.Value)})
	}
	if line, err := readLine(r, &long); len(line) > 0 || err != io.EOF {
		return bad("holds more than its header's %d entries", count)
	}
	if len(ents) > 0 {
		idx = append(idx, namedTree{table, buildTree(ents)})
	}
	return seq, idx, nil
}
