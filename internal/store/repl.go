package store

// Replication primitives for the cluster layer (internal/cluster): a leader
// ships its WAL tail — the same CRC-framed lines wal.go appends to segments —
// and followers ingest those frames through the replay validation path into
// their own WAL, byte for byte. A follower's on-disk layout is therefore a
// valid standalone store at all times: recovery, compaction and the ordered
// read path work unchanged, and promotion is just "start writing".
//
// Leader side:
//
//	AppliedSeq      lock-free watermark: the highest sequence applied to
//	                memory AND present in the OS file (a commit batch is
//	                flushed before it is applied)
//	ReplTail        frames for (from, last]: copied out of the tail window
//	                commit batches fill when from+1 lies inside it, read from
//	                the segment files otherwise, or ErrSnapshotNeeded once
//	                compaction has swallowed the requested tail
//	SnapshotExport  the snapshot-file image (a header line, then one put
//	                frame per entry in key order) of the current applied
//	                state, for bootstrapping followers
//
// Follower side:
//
//	ApplyReplicated validates every frame (checksum, Apply's rules for every
//	                record, contiguity) and only then appends the raw bytes
//	                to its own WAL and applies them — a corrupt or gapped
//	                batch is rejected whole, surfacing a taxonomy error,
//	                never a partial apply
//	InstallSnapshot replaces the follower's state with a shipped snapshot
//	                image and resets its WAL to a fresh segment
//
// Each of these needs a WAL store: on one opened by OpenMemory every call
// answers a validation error (errNeedsWAL).
//
// The tail window (tailWindow) is the steady-state path: a follower one
// commit behind is answered by one copy of bytes its commit already framed —
// no open, no reader, no decode. The file scan is the cold path: catch-up
// from further back than the window reaches, sealed segments, the first
// shipments after a restart, records larger than the window. Which one answers
// is decided by where from lies, and both return the same bytes.
//
// The file scan runs without holding the file lock (fmu): it captures the
// file list and sizes under wal.smu, then reads each file up to its captured
// size. Sealed segments are immutable; the active segment only grows, and
// its captured size never includes a torn in-flight append (sizes are bumped
// after a successful flush). A compaction deleting a captured file between
// capture and read surfaces as a retry, then as ErrSnapshotNeeded.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"

	"itag/internal/errs"
)

// ErrSnapshotNeeded is returned by ReplTail when the requested tail has been
// compacted away; the follower must install a snapshot and resume from its
// sequence.
var ErrSnapshotNeeded error = errs.New(errs.ComponentStore, errs.CategoryConflict, "wal tail compacted away; snapshot install required")

// errNeedsWAL answers every replication call on a store opened by
// OpenMemory: only a WAL store ships, takes a shipment or installs a
// snapshot, since only its state is frames it can hand on.
var errNeedsWAL error = errs.New(errs.ComponentStore, errs.CategoryValidation, "replication requires a WAL-backed store")

// errTailRaced is the internal signal that a captured WAL file vanished
// (compaction won the race); the caller retries with a fresh capture.
var errTailRaced = errors.New("wal tail capture raced a compaction")

// TailCursor is one reader's place in the segment files: where the ReplTail
// that shipped up to seq stopped, so that reader's next call resumes by seek
// instead of scanning the active segment from its top. It belongs to the one
// sender that advances it — two followers catching up at different points
// each keep their own — and is only a hint: a cursor that does not match the
// call's from is ignored. It also keeps that reader's buffers: the file
// reader a scan resets instead of allocating, and the bytes a call returns,
// which the next call with the cursor overwrites. The zero value is ready to
// use.
type TailCursor struct {
	seq  uint64
	path string
	off  int64

	out []byte // what the last call returned, kept up to keptFrameBytes
	lim io.LimitedReader
	r   *bufio.Reader
}

// tailWindowBytes is how much of the WAL's tail the store keeps framed in
// memory for ReplTail: a few hundred paid posts, far more than a follower
// that is keeping up ever trails by.
const tailWindowBytes = 256 << 10

// tailWindow retains the framed bytes of the most recent commits, record
// boundaries included, so ReplTail can ship a caught-up follower's next
// records by copy. It holds a contiguous run of sequences ending at the
// applied watermark, or nothing.
//
// Publication rule (the one AppliedSeq obeys): a batch leader pushes a
// record only after the batch holding it is flushed, fsynced per
// Options.SyncEvery and applied — under wal.fmu, so pushes arrive in sequence order — and a
// torn or failed batch is never pushed. A record larger than the window is
// not kept (the window restarts after it), InstallSnapshot empties it, and
// so does a shipment's batch: a store being fed a leader's frames has nobody
// to ship to until it is reopened as a leader.
//
// mu is a leaf lock: a batch leader holds fmu → mu for a push, readers take
// mu alone for the copy, so a ReplTail never waits behind an fsync.
type tailWindow struct {
	mu    sync.Mutex
	buf   []byte // frames of sequences first .. first+len(ends)-1, back to back
	ends  []int  // ends[i] is where record first+i stops in buf
	first uint64
}

// push appends one committed record's frame. When the buffer is full the
// older half is dropped and the rest moved down, so a byte is moved at most
// once on average and a steady stream of commits allocates nothing.
func (t *tailWindow) push(seq uint64, frame []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ends) > 0 && seq != t.first+uint64(len(t.ends)) {
		t.resetLocked() // not the successor of what is held: start over
	}
	if len(frame) > tailWindowBytes {
		t.resetLocked()
		return
	}
	if t.buf == nil {
		t.buf = make([]byte, 0, tailWindowBytes)
	}
	if len(t.buf)+len(frame) > tailWindowBytes {
		// Drop whole records from the front until at most half the window
		// is in use and the new frame fits.
		drop := 1
		for ; drop < len(t.ends); drop++ {
			if rest := len(t.buf) - t.ends[drop-1]; rest <= tailWindowBytes/2 && rest+len(frame) <= tailWindowBytes {
				break
			}
		}
		cut := t.ends[drop-1]
		t.buf = t.buf[:copy(t.buf, t.buf[cut:])]
		kept := t.ends[:copy(t.ends, t.ends[drop:])]
		for i := range kept {
			kept[i] -= cut
		}
		t.ends = kept
		t.first += uint64(drop)
	}
	if len(t.ends) == 0 {
		t.first = seq
	}
	t.buf = append(t.buf, frame...)
	t.ends = append(t.ends, len(t.buf))
}

// reset empties the window; what it held is served from the files again.
func (t *tailWindow) reset() {
	t.mu.Lock()
	t.resetLocked()
	t.mu.Unlock()
}

func (t *tailWindow) resetLocked() {
	t.buf, t.ends, t.first = t.buf[:0], t.ends[:0], 0
}

// read appends the records after from to dst under ReplTail's budget
// contract: at least one, then as many more as end at or under maxBytes.
// ok=false when record from+1 is not held.
func (t *tailWindow) read(dst []byte, from uint64, maxBytes int) (out []byte, last uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ends) == 0 || from+1 < t.first || from+1 >= t.first+uint64(len(t.ends)) {
		return dst, 0, false
	}
	i := int(from + 1 - t.first)
	start := 0
	if i > 0 {
		start = t.ends[i-1]
	}
	// The first record always ships; j then walks to the last record that
	// still ends within the budget.
	j := i
	for j+1 < len(t.ends) && t.ends[j+1]-start <= maxBytes {
		j++
	}
	return append(dst, t.buf[start:t.ends[j]]...), t.first + uint64(j), true
}

// AppliedSeq returns the highest sequence number that is both applied to
// memory and flushed to the WAL file — the replication watermark. Lock-free.
func (db *DB) AppliedSeq() uint64 { return db.st.appliedSeq.Load() }

// ReplTail returns the WAL tail after sequence from as concatenated
// CRC-framed lines, plus the last sequence included. It ships at least one
// record when one is available and stops at a record boundary at or below
// maxBytes (default 1 MiB when <= 0) — a response exceeds the budget only
// when its first record alone does. Followers size their read buffers by
// the budget plus that single-record allowance; an overshooting
// multi-record response would be read truncated mid-frame and rejected,
// wedging replication on the identical retry. An empty result means the
// follower is caught up. ErrSnapshotNeeded means compaction has swallowed the
// requested tail and the follower must InstallSnapshot first.
//
// When record from+1 is in the tail window the answer is one copy out of it;
// otherwise the segment files are scanned, resuming at cur when it is this
// reader's. With a cursor the answer is built in the cursor's buffer and is
// valid until the next call with it; nil reads statelessly into a new slice.
// The window never holds a record that is not flushed and applied, so the
// memory path ships nothing beyond AppliedSeq.
func (db *DB) ReplTail(from uint64, maxBytes int, cur *TailCursor) ([]byte, uint64, error) {
	if db.wal == nil {
		return nil, 0, errNeedsWAL
	}
	if db.closed.Load() {
		return nil, 0, ErrClosed
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	var dst []byte
	if cur != nil {
		dst = cur.out[:0]
	}
	for attempt := 0; attempt < 3; attempt++ {
		if from >= db.AppliedSeq() {
			return nil, from, nil
		}
		if from < db.st.snapshotSeq.Load() {
			return nil, 0, ErrSnapshotNeeded
		}
		out, last, ok := db.wal.tail.read(dst, from, maxBytes)
		var err error
		if !ok {
			out, last, err = db.readTail(dst, from, maxBytes, cur)
		}
		if err == nil {
			if cur != nil {
				// A buffer a catch-up grew past keptFrameBytes is not kept:
				// the caller holds it until its next call, nobody after.
				cur.out = kept(out)[:0]
			}
			return out, last, nil
		}
		if !errors.Is(err, errTailRaced) {
			return nil, 0, err
		}
	}
	// Three captures in a row raced compactions; the snapshot is current by
	// construction, so hand the follower that instead of spinning.
	return nil, 0, ErrSnapshotNeeded
}

// replFile is one captured WAL segment: a sealed one (immutable, its
// sequences bounded by last) or the active one.
type replFile struct {
	path   string
	size   int64
	sealed bool
	last   uint64
}

// readTail performs one capture + read pass for ReplTail, appending to out.
func (db *DB) readTail(out []byte, from uint64, maxBytes int, cur *TailCursor) ([]byte, uint64, error) {
	w := db.wal
	w.smu.Lock()
	files := make([]replFile, 0, len(w.sealed)+1)
	for _, s := range w.sealed {
		files = append(files, replFile{path: s.path, size: s.size, sealed: true, last: s.last})
	}
	files = append(files, replFile{path: w.activePath, size: w.activeSize})
	w.smu.Unlock()

	next := from + 1
	for _, f := range files {
		if f.size == 0 || f.sealed && f.last <= from {
			continue // nothing in it past the reader's position
		}
		done, err := readTailFile(f, &out, &next, from, maxBytes, cur)
		if err != nil {
			return nil, 0, err
		}
		if done {
			break
		}
	}
	if next == from+1 {
		// Captured applied > from but no record surfaced: the files changed
		// under us (e.g. compaction replaced them mid-iteration).
		return nil, 0, errTailRaced
	}
	return out, next - 1, nil
}

// readTailFile appends the frames of one captured file to *out, advancing
// *next, and leaves cur (when given) where the read stopped. Returns
// done=true once maxBytes is reached.
func readTailFile(f replFile, out *[]byte, next *uint64, from uint64, maxBytes int, cur *TailCursor) (bool, error) {
	start := int64(0)
	if cur != nil && cur.seq == from && cur.path == f.path && cur.off > 0 && cur.off <= f.size {
		start = cur.off
	}
	stopAt := func(seq uint64, off int64) {
		if cur != nil {
			cur.seq, cur.path, cur.off = seq, f.path, off
		}
	}
	fh, err := os.Open(f.path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, errTailRaced
		}
		return false, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "open wal tail")
	}
	defer fh.Close()
	if start > 0 {
		if _, err := fh.Seek(start, io.SeekStart); err != nil {
			return false, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "seek wal tail")
		}
	}
	var r *bufio.Reader
	if cur != nil {
		// The cursor's reader, reset: a reader trailing past the tail window
		// scans on every call.
		cur.lim = io.LimitedReader{R: fh, N: f.size - start}
		if cur.r == nil {
			cur.r = bufio.NewReaderSize(&cur.lim, 1<<16)
		} else {
			cur.r.Reset(&cur.lim)
		}
		r = cur.r
	} else {
		r = bufio.NewReaderSize(io.LimitReader(fh, f.size-start), 1<<16)
	}
	var long []byte
	off := start
	for {
		line, rerr := readLine(r, &long)
		if rerr != nil && rerr != io.EOF {
			return false, errs.Wrap(rerr, errs.ComponentStore, errs.CategoryIO, "read wal tail")
		}
		if rerr == io.EOF && len(line) > 0 {
			// Unterminated final chunk: bytes beyond the capture boundary of
			// a concurrently-growing file; the next call picks them up.
			break
		}
		if len(line) == 0 {
			break
		}
		rec, perr := parseFramed(line[:len(line)-1])
		if perr != nil {
			return false, errs.New(errs.ComponentStore, errs.CategoryCorruption, "wal tail %s: %v", f.path, perr)
		}
		seq := rec.Seq
		off += int64(len(line))
		if seq <= from {
			continue
		}
		if seq != *next {
			return false, errs.New(errs.ComponentStore, errs.CategoryCorruption, "wal tail %s: have seq %d, want %d", f.path, seq, *next)
		}
		if len(*out) > 0 && len(*out)+len(line) > maxBytes {
			// Shipping this record would overshoot the budget the follower
			// sized its read by; stop at the boundary and let the next call
			// resume here. Only the batch's first record may exceed maxBytes
			// (one record must always ship, however large).
			stopAt(*next-1, off-int64(len(line)))
			return true, nil
		}
		*out = append(*out, line...)
		*next = seq + 1
		if len(*out) >= maxBytes {
			stopAt(seq, off)
			return true, nil
		}
	}
	if !f.sealed && *next > from+1 {
		stopAt(*next-1, off)
	}
	return false, nil
}

// SnapshotExport returns a snapshot-file image of the applied state,
// suitable for InstallSnapshot on a follower: the bytes compaction would
// write for it, by the same writer. Holding the lock
// that serializes applies just long enough to pair the sequence with the
// published index is all the capture costs.
func (db *DB) SnapshotExport() ([]byte, error) {
	w := db.wal
	if w == nil {
		return nil, errNeedsWAL
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	w.fmu.Lock()
	seq, idx := w.lastApplied, db.loadIndex()
	w.fmu.Unlock()
	var buf bytes.Buffer
	err := writeSnapshot(&buf, seq, idx) // a bytes.Buffer takes every write
	return buf.Bytes(), err
}

// ApplyReplicated ingests a batch of framed WAL lines shipped from a
// leader. Every frame is checksum-verified, decoded, held to the rules
// DB.Apply writes by (checkRecord: every sub-record of a batch, and a put or
// delete itself) and contiguity-checked against the follower's sequence
// BEFORE anything is written: a corrupt, truncated or gapped batch, or one
// holding a record Apply would not have written, is rejected whole with a
// corruption error and the follower state is untouched — never a partial
// apply, never a silent gap, never a logged record that is not applied. On
// success the raw bytes go through the commit queue like any other entry:
// appended to the follower's own WAL, flushed, fsynced with their batch
// whatever Options.SyncEvery says, and applied, so a nil return means the
// shipment is on this disk. It returns the new applied sequence. A store
// read through a Catalog must be fed through Catalog.ApplyReplicated
// instead, which runs this and then invalidates what the batch wrote.
func (db *DB) ApplyReplicated(data []byte) (uint64, error) {
	_, applied, err := db.applyReplicated(data)
	return applied, err
}

// applyReplicated is ApplyReplicated also returning the records it applied
// (none for an empty shipment), which is what Catalog.ApplyReplicated
// invalidates.
func (db *DB) applyReplicated(data []byte) ([]Record, uint64, error) {
	if db.wal == nil {
		return nil, 0, errNeedsWAL
	}
	if len(data) == 0 {
		return nil, db.AppliedSeq(), nil
	}
	c := pendingCommits.Get().(*pendingCommit)
	defer c.release()
	c.enc = data
	if err := db.commit(c); err != nil {
		return nil, 0, err
	}
	return c.shipped, c.shipped[len(c.shipped)-1].Seq, nil
}

// parseReplicated decodes and validates a shipped frame batch against the
// follower's current sequence. All-or-nothing: any bad line rejects the
// whole batch.
func parseReplicated(data []byte, seq uint64) ([]Record, error) {
	if data[len(data)-1] != '\n' {
		return nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "replicated batch is truncated (no trailing newline)")
	}
	recs := make([]Record, 0, bytes.Count(data, []byte{'\n'}))
	next := seq + 1
	for lineNo := 1; len(data) > 0; lineNo++ {
		nl := bytes.IndexByte(data, '\n')
		line := data[:nl]
		data = data[nl+1:]
		rec, err := parseFramed(line)
		if err != nil {
			return nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "replicated record %d: %v", lineNo, err)
		}
		if rec.Seq != next {
			return nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "replication gap at record %d: have seq %d, want %d", lineNo, rec.Seq, next)
		}
		recs = append(recs, rec)
		next++
	}
	if len(recs) == 0 {
		return nil, errs.New(errs.ComponentStore, errs.CategoryCorruption, "replicated batch holds no records")
	}
	return recs, nil
}

// InstallSnapshot replaces the follower's entire state with a shipped
// snapshot image (the SnapshotExport format), persists it as the local
// snapshot file and resets the WAL to a fresh segment. The snapshot must be
// ahead of the follower's current sequence.
//
// It takes fmu itself instead of queueing: fmu orders it against any batch
// in flight, and a follower's sender ships one request at a time, so an
// install never overlaps a queued shipment.
func (db *DB) InstallSnapshot(data []byte) error {
	w := db.wal
	if w == nil {
		return errNeedsWAL
	}
	seq, idx, err := readSnapshot(bufio.NewReaderSize(bytes.NewReader(data), 1<<16), "replicated snapshot")
	if err != nil {
		return err
	}
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if err := db.Err(); err != nil {
		return err
	}
	if db.closed.Load() {
		return ErrClosed
	}
	db.mu.RLock()
	cur := db.seq
	db.mu.RUnlock()
	if seq <= cur {
		return errs.New(errs.ComponentStore, errs.CategoryConflict, "snapshot seq %d is not ahead of local seq %d", seq, cur)
	}
	// Persist the state first, written and renamed as compaction writes
	// its own: after the rename, recovery starts from the shipped state
	// even if we crash before the old segments are cleaned up (their
	// records are all <= seq and are skipped by the replay).
	tmp := db.path + installTmpSuffix
	if werr := w.disk.writeSnapshotFile(tmp, seq, idx); werr != nil {
		return db.fail(werr)
	}
	if rerr := w.disk.rename(tmp, db.path+snapSuffix); rerr != nil {
		w.disk.remove(tmp)
		return db.fail(errs.Wrap(rerr, errs.ComponentStore, errs.CategoryIO, "rename replicated snapshot"))
	}
	w.disk.syncDir(filepath.Dir(db.path))
	// Retire the superseded WAL files: close the active segment, drop every
	// sealed file, open a fresh segment for the post-snapshot tail.
	if w.file != nil {
		_ = w.flush()
		_ = w.file.Close()
		w.file = nil
	}
	w.smu.Lock()
	old := make([]string, 0, len(w.sealed)+1)
	for _, s := range w.sealed {
		old = append(old, s.path)
	}
	old = append(old, w.activePath)
	w.sealed, w.sealedSize = nil, 0
	w.smu.Unlock()
	for _, p := range old {
		_ = w.disk.remove(p) // best effort; leftovers are skipped by seq on replay
	}
	if oerr := w.openSegment(db.path, w.nextIdx, nil); oerr != nil {
		return db.fail(oerr)
	}
	db.mu.Lock()
	db.idx.Store(&idx)
	db.seq = seq
	db.mu.Unlock()
	w.lastApplied = seq
	w.sinceSync = 0
	w.tail.reset()
	db.st.appliedSeq.Store(seq)
	db.st.snapshotSeq.Store(seq)
	return nil
}
