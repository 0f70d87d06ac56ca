package store

// This file implements the on-disk write-ahead-log layout behind DB: a
// snapshot plus numbered live segments, and the commit queue whose batches
// the committing goroutines write themselves (group commit). Every file the
// store creates, writes, syncs, renames, removes or truncates goes through
// its disk (disk.go), which first consults Options.Fault, the one hook tests
// and chaos schedules stall or crash a store through (nil in production). An
// injected crash is an I/O error, handled like a real one.
//
// Layout for a DB opened at path P:
//
//	P.snapshot       state snapshot: header line, then a put frame per entry
//	P.snapshot.tmp   in-flight compaction snapshot (removed at open)
//	P.snapshot.install.tmp
//	                 in-flight replicated snapshot (removed at open)
//	P.seg-NNNNNNNN   WAL segments, replayed in index order after the snapshot
//
// Segment record framing: every line is "%08x <json>\n" where the hex prefix
// is the IEEE CRC-32 of the JSON body — encoding/json's rendering of the
// Record. A commit batch's leader frames its local records with appendFrame
// (encode.go); a follower appends a shipment's lines as the leader framed
// them. Recovery verifies the checksum of every line, requires sequence
// numbers to be contiguous, tolerates exactly one torn tail (an unterminated
// final line with no records after it), and truncates that tail so new
// appends start on a clean record boundary.
//
// Lock ordering: wal.fmu (file state) is always acquired before DB.mu
// (sequence, queue and publication of the index). Readers take neither:
// they load the published index (index.go).

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"

	"itag/internal/errs"
)

// DefaultSegmentBytes is the WAL segment rotation threshold used when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

const (
	segPrefix     = ".seg-"
	snapSuffix    = ".snapshot"
	snapTmpSuffix = ".snapshot.tmp"
	// installTmpSuffix keeps InstallSnapshot's temp file apart from the
	// compactor's: the compactor writes its own without holding fmu.
	installTmpSuffix = ".snapshot.install.tmp"
)

// wal is the file-side state of a durable DB. Every field is guarded by fmu;
// fmu is held by the batch leader during writes, so rotation and the
// compaction cut cannot interleave with an append.
//
// The size/layout fields (activeSize, sealed, sealedSize) are additionally
// guarded by smu: mutators hold fmu AND take smu for the brief field update,
// so Stats can read them under smu alone without stalling behind an
// in-flight write or fsync (fmu is held across disk I/O). Lock order: fmu → DB.mu, fmu → smu; smu is a leaf.
type wal struct {
	disk disk

	fmu  sync.Mutex
	file *diskFile // active segment; nil once closed
	// bw buffers the active segment's appends: made at the first append
	// (a store fed only InstallSnapshot holds none), Reset onto each new one.
	bw         *bufio.Writer
	activePath string
	activeIdx  uint64
	nextIdx    uint64
	sinceSync  int
	// lastApplied is the highest sequence number actually written to the
	// WAL and applied to memory. It trails DB.seq (the assignment counter)
	// by whatever is still in the commit queue; a compaction cut must cover
	// exactly lastApplied — covering DB.seq would make recovery skip queued
	// records that land after the cut.
	lastApplied uint64
	// tail retains the frames of the latest commits for ReplTail; it has its
	// own lock (see tailWindow).
	tail tailWindow
	// frames is the buffer a batch leader frames its local records into,
	// kept for the next batch unless a large one grew it past
	// keptFrameBytes.
	frames []byte

	smu        sync.Mutex
	activeSize int64
	sealed     []sealedFile // older live segments, oldest first
	sealedSize int64
}

// addActiveSize bumps the active segment's size. Caller holds fmu.
func (w *wal) addActiveSize(n int64) {
	w.smu.Lock()
	w.activeSize += n
	w.smu.Unlock()
}

// sealActive is openSegment's retire step for a rotation or a compaction
// cut: the outgoing active segment joins the sealed list. Caller holds smu.
func (w *wal) sealActive() {
	w.sealed = append(w.sealed, sealedFile{path: w.activePath, size: w.activeSize, last: w.lastApplied})
	w.sealedSize += w.activeSize
}

// replayBytes returns the bytes recovery would have to replay right now
// (everything not covered by the snapshot).
func (w *wal) replayBytes() int64 {
	w.smu.Lock()
	defer w.smu.Unlock()
	return w.sealedSize + w.activeSize
}

type sealedFile struct {
	path string
	size int64
	// last bounds the file's sequences from above: the applied watermark when
	// it was sealed (or replayed). ReplTail skips a file whose last is at or
	// below the reader's position without opening it.
	last uint64
}

func segPath(base string, idx uint64) string {
	return fmt.Sprintf("%s%s%08d", base, segPrefix, idx)
}

// openSegment creates (or opens for append) the segment with the given
// index and makes it active. retire, when non-nil, runs in the same smu
// section that installs the new active path and decides what becomes of the
// previous one (rotation seals it, a compaction cut drops the sealed list);
// a ReplTail capture therefore never sees one file as both sealed and
// active. Caller holds fmu.
func (w *wal) openSegment(base string, idx uint64, retire func()) error {
	path := segPath(base, idx)
	f, err := w.disk.create(path, os.O_APPEND)
	if err != nil {
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "open segment")
	}
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	w.file = f
	if w.bw != nil {
		w.bw.Reset(f)
	}
	w.activeIdx = idx
	// activePath moves under smu together with activeSize so ReplTail can
	// capture a consistent (path, size) pair without taking fmu.
	w.smu.Lock()
	if retire != nil {
		retire()
	}
	w.activePath = path
	w.activeSize = size
	w.smu.Unlock()
	if idx >= w.nextIdx {
		w.nextIdx = idx + 1
	}
	return nil
}

type segInfo struct {
	idx  uint64
	path string
	size int64
}

// listSegments returns the base path's WAL segments sorted by index.
func listSegments(base string) ([]segInfo, error) {
	matches, err := filepath.Glob(base + segPrefix + "*")
	if err != nil {
		return nil, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "list segments")
	}
	segs := make([]segInfo, 0, len(matches))
	for _, m := range matches {
		idx, perr := strconv.ParseUint(m[len(base)+len(segPrefix):], 10, 64)
		if perr != nil {
			continue // not a segment (e.g. a stray editor backup)
		}
		fi, serr := os.Stat(m)
		if serr != nil {
			return nil, errs.Wrap(serr, errs.ComponentStore, errs.CategoryIO, "stat segment")
		}
		segs = append(segs, segInfo{idx: idx, path: m, size: fi.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// parseFramed decodes one segment line (without its trailing newline),
// verifying the CRC frame, and holds the record to the rules a commit writes
// by (checkRecord). Lines are framed by appendFrame (encode.go).
func parseFramed(data []byte) (Record, error) {
	if len(data) < 10 || data[8] != ' ' {
		return Record{}, errors.New("bad record frame")
	}
	var want [4]byte
	if _, err := hex.Decode(want[:], data[:8]); err != nil {
		return Record{}, errors.New("bad record checksum field")
	}
	body := data[9:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(want[:]) {
		return Record{}, errors.New("record checksum mismatch")
	}
	rec, err := decodeRecord(body)
	if err != nil {
		return Record{}, err
	}
	return rec, checkRecord(&rec)
}

// readLine returns the next line of r, newline included, as ReadBytes would,
// but in r's own buffer when it fits there, so it is valid only until the
// next read; a longer line is gathered in *long, which is reused. Frames are
// decoded into copies (decodeRecord), so nothing keeps the slice.
func readLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		*long = append(*long, line...)
	}
	return *long, err
}

// flush writes out bw, if an append made it. Caller holds fmu.
func (w *wal) flush() error {
	if w.bw == nil {
		return nil
	}
	return w.bw.Flush()
}

// pendingCommit is one entry of the commit queue (DB.pend): a local commit's
// record, a follower's shipment, a durability barrier (Sync), or a
// compaction cut. Records get their sequence numbers when they are queued,
// so queue order is sequence order.
type pendingCommit struct {
	rec Record
	// shipped holds a shipment's records, validated against the sequence
	// when it was queued; rec is unused then. A shipment always fsyncs
	// with its batch.
	shipped []Record
	// enc is the frames to append: the shipment's bytes as received, or
	// rec's frame, which the batch leader writes into the WAL's frame buffer.
	enc []byte
	err error
	// done is set under DB.mu once a leader has processed the entry.
	done bool

	syncBarrier bool
	cut         bool
	cutState    *cutState
}

// pendingCommits holds the entries: whoever queues one reads its results
// once commit returns (no leader touches it after), then releases it,
// cleared so the pool pins no record, shipment or cut.
var pendingCommits = sync.Pool{New: func() any { return new(pendingCommit) }}

func (c *pendingCommit) release() {
	*c = pendingCommit{}
	pendingCommits.Put(c)
}

// cutState is what a compaction cut captures: the published index at the
// cut sequence plus the WAL files the snapshot will supersede.
type cutState struct {
	seq         uint64
	idx         dbIndex
	coveredSegs []sealedFile // covered segments, oldest first
}

// commit queues c and returns once a leader has processed it. The entry is
// checked and given its sequence numbers here, under mu, so queue order is
// sequence order: a local commit takes the next one (its leader frames it); a
// shipment (c.enc holding a leader's frames) is validated whole against the
// current sequence, and a bad one is rejected before anything is queued.
//
// Group commit by natural batching, run by the committing goroutines
// themselves: one that finds no batch in flight leads — it takes the whole
// queue and processes it as one batch, one buffered write and at most one
// fsync. One that arrives while a batch is in flight waits; it returns once
// a leader has processed its entry, or it leads the next batch, which holds
// everything that queued meanwhile. A nil return means written, flushed,
// fsynced per Options.SyncEvery (always, for a barrier or a shipment) and
// applied.
func (db *DB) commit(c *pendingCommit) error {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.walErr != nil {
		err := db.walErr
		db.mu.Unlock()
		return err
	}
	switch {
	case c.cut || c.syncBarrier:
	case c.enc != nil:
		recs, err := parseReplicated(c.enc, db.seq)
		if err != nil {
			db.mu.Unlock()
			return err
		}
		c.shipped = recs
		db.seq = recs[len(recs)-1].Seq
	default:
		db.seq++
		c.rec.Seq = db.seq
	}
	db.pend = append(db.pend, c)
	for !c.done {
		if db.leading {
			db.batchDone.Wait()
			continue
		}
		batch := db.pend
		db.pend, db.spare, db.leading = db.spare, nil, true
		db.mu.Unlock()
		db.processBatch(batch)
		db.mu.Lock()
		db.leading = false
		for _, b := range batch {
			b.done = true
		}
		// The batch's array takes the next one but one: the queue swaps
		// between two arrays instead of growing a new one per batch.
		clear(batch)
		db.spare = kept(batch[:0])
		db.batchDone.Broadcast()
	}
	db.mu.Unlock()
	return c.err
}

// processBatch runs one batch: its writes and barriers as one writeAndApply,
// then its compaction cuts. Only the leader runs it, so the writes list is
// the DB's, kept from one batch to the next.
func (db *DB) processBatch(batch []*pendingCommit) {
	writes, forceSync := db.writes[:0], false
	for _, c := range batch {
		switch {
		case c.cut:
		case c.syncBarrier:
			forceSync = true
		default:
			writes = append(writes, c)
			forceSync = forceSync || c.shipped != nil
		}
	}
	if len(writes) > 0 || forceSync {
		err := db.writeAndApply(writes, forceSync)
		for _, c := range batch {
			if !c.cut {
				c.err = err
			}
		}
	}
	clear(writes)
	db.writes = kept(writes)
	for _, c := range batch {
		if c.cut {
			c.cutState, c.err = db.performCut()
		}
	}
}

// keptFrameBytes bounds every scratch buffer the store keeps from one
// commit batch to the next — the WAL's frame buffer and each slice of the
// merge scratch (see kept): a tagger's commits fit many times over, and a
// buffer a preload's batch grew is let go rather than held for the life of
// the store.
const keptFrameBytes = 64 << 10

// writeAndApply persists one commit batch — single buffered write, single
// flush, at most one fsync — then applies it to memory. Applying under fmu
// keeps written == applied, which the compaction cut relies on.
func (db *DB) writeAndApply(writes []*pendingCommit, forceSync bool) error {
	w := db.wal
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if err := db.Err(); err != nil {
		return err
	}
	// Frame the local records into one buffer. A frame's slice stays valid
	// if a later append moves the buffer; the bytes are copied into the
	// file's writer and the tail window before the next batch reuses it.
	buf := w.frames[:0]
	total, n := 0, 0
	for _, c := range writes {
		if c.shipped == nil {
			start := len(buf)
			buf = appendFrame(buf, c.rec)
			c.enc = buf[start:]
		}
		total += len(c.enc)
		n += max(1, len(c.shipped))
	}
	w.frames = kept(buf)
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(w.file, 1<<18)
	}
	for _, c := range writes {
		if _, err := w.bw.Write(c.enc); err != nil {
			return db.fail(errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "append wal"))
		}
	}
	if err := w.bw.Flush(); err != nil {
		return db.fail(errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "flush wal"))
	}
	w.addActiveSize(int64(total))
	w.sinceSync += n
	if forceSync || (db.opts.SyncEvery > 0 && w.sinceSync >= db.opts.SyncEvery) {
		if err := w.file.Sync(); err != nil {
			return db.fail(errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "sync wal"))
		}
		w.sinceSync = 0
		db.st.fsyncs.Add(1)
	}
	if n > 0 {
		// The whole batch is one apply: one merge, one publish, and a node
		// several commits touch is built once.
		var last uint64 // queue order == seq order
		db.mu.Lock()
		for _, c := range writes {
			if c.shipped != nil {
				db.mg.add(c.shipped...)
				last = c.shipped[len(c.shipped)-1].Seq
			} else {
				db.mg.add(c.rec)
				last = c.rec.Seq
			}
		}
		db.applyLocked()
		db.mu.Unlock()
		w.lastApplied = last
		// Written, synced, applied: only now may a follower be handed these
		// frames, from memory (the tail window) or by watermark (AppliedSeq).
		// A shipment empties the window instead: its records came from
		// elsewhere, and a store being fed a leader's frames has nobody to
		// ship to until it is reopened as a leader.
		for _, c := range writes {
			if c.shipped != nil {
				w.tail.reset()
			} else {
				w.tail.push(c.rec.Seq, c.enc)
			}
		}
		db.st.appliedSeq.Store(w.lastApplied)
		db.st.commits.Add(uint64(n))
		db.st.batches.Add(1)
		db.st.walBytes.Add(uint64(total))
	}
	if db.opts.SegmentBytes > 0 && w.activeSize >= db.opts.SegmentBytes {
		// Rotation failure wedges the DB but this batch is already durable
		// and acked.
		_ = db.rotateLocked()
	}
	db.maybeAutoCompact()
	return nil
}

// closeActiveLocked flushes, fsyncs and closes the active segment's file (it
// is closed even when the flush or fsync fails). The layout fields still
// name it as active (closed, immutable, at full size) until the caller's
// openSegment retires it. Caller holds fmu.
func (db *DB) closeActiveLocked() error {
	w := db.wal
	err := w.flush()
	if err == nil {
		err = w.file.Sync()
	}
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	w.file = nil
	if err != nil {
		return db.fail(errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "seal segment"))
	}
	w.sinceSync = 0
	db.st.fsyncs.Add(1)
	return nil
}

// rotateLocked seals the active segment and opens its successor. Caller
// holds fmu.
func (db *DB) rotateLocked() error {
	w := db.wal
	if err := db.closeActiveLocked(); err != nil {
		return err
	}
	if err := w.openSegment(db.path, w.nextIdx, w.sealActive); err != nil {
		return db.fail(err)
	}
	db.st.rotations.Add(1)
	return nil
}

// maybeAutoCompact starts a background snapshot compaction once the bytes
// recovery would replay exceed Options.AutoCompact. Checked after every
// commit batch (not just on rotation), so it also fires when rotation is
// disabled and right after recovering an over-threshold store.
func (db *DB) maybeAutoCompact() {
	if db.opts.AutoCompact <= 0 || db.wal.replayBytes() < db.opts.AutoCompact {
		return
	}
	db.mu.Lock()
	busy := db.compacting || db.closed.Load()
	db.mu.Unlock()
	if busy {
		return
	}
	go func() { _ = db.Compact() }() // rechecks compacting/closed itself
}

// performCut executes a compaction cut: seal the active segment, note the
// index published at that point, and switch writers onto a fresh segment.
// The covered segments stay on the sealed list — readable by ReplTail —
// until the snapshot that supersedes them is renamed into place
// (dropSealed); a failed snapshot just leaves them for the next compaction.
// Nothing is copied: the cut costs the same whatever the tables hold.
func (db *DB) performCut() (*cutState, error) {
	w := db.wal
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if err := db.Err(); err != nil {
		return nil, err
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := db.closeActiveLocked(); err != nil {
		return nil, err
	}
	// Applies run under fmu, so the index on display is exactly the state
	// at lastApplied. That is NOT db.seq: commits holding a sequence number
	// but still in the commit queue land after the cut, and a snapshot
	// seq that included them would make recovery skip their records.
	cut := &cutState{seq: w.lastApplied, idx: db.loadIndex()}
	if err := w.openSegment(db.path, w.nextIdx, w.sealActive); err != nil {
		return nil, db.fail(err)
	}
	w.smu.Lock()
	cut.coveredSegs = slices.Clone(w.sealed)
	w.smu.Unlock()
	return cut, nil
}

// dropSealed takes segments a renamed snapshot has superseded off the
// sealed list, ahead of deleting their files.
func (db *DB) dropSealed(segs []sealedFile) {
	w := db.wal
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.smu.Lock()
	defer w.smu.Unlock()
	w.sealed = slices.DeleteFunc(w.sealed, func(s sealedFile) bool {
		if !slices.Contains(segs, s) {
			return false // already gone: an InstallSnapshot reset the list
		}
		w.sealedSize -= s.size
		return true
	})
}

// restoreSealed prepends segments whose files could not be removed back
// onto the sealed list (oldest first) so the next compaction retries them.
func (db *DB) restoreSealed(segs []sealedFile) {
	if len(segs) == 0 {
		return
	}
	w := db.wal
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.smu.Lock()
	defer w.smu.Unlock()
	w.sealed = append(slices.Clone(segs), w.sealed...)
	for _, s := range segs {
		w.sealedSize += s.size
	}
}
