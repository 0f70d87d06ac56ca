// Package store is an embedded, durable table store — the Go substitute for
// the MySQL database under the original PHP/Python iTag system (paper §III,
// Fig. 2). The four managers persist resources, posts, projects, tasks and
// users through it, via the typed Catalog written against the Store
// interface.
//
// DB is the one backend behind Store: any number of named tables (key →
// JSON value) backed by a write-ahead log laid out as a snapshot plus
// CRC-framed segments (see wal.go for the on-disk format). Mutations are
// persisted by group commit: concurrent commits queue, and whichever
// committer finds no batch in flight writes the whole queue as one buffered
// write + fsync while the others wait, so a nil return still means "applied
// and as durable as Options demand". Open replays the snapshot plus the live
// segment tail, tolerating a torn final record. Batches are single WAL
// records and therefore atomic across tables and keys. Compact takes an
// online snapshot: readers are never blocked, writers only at the cut point.
// A DB opened with OpenMemory is purely in-memory (used by simulations and
// benchmarks that do not need durability). There is no in-process
// partitioner: reads are lock-free and commits O(log n), and spreading keys
// over several WALs is what cluster slots are for (docs/ARCHITECTURE.md,
// "Why there is no in-process partitioner").
//
// DB is safe for concurrent use.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"itag/internal/errs"
)

// Op is a WAL operation type.
type Op string

// WAL operation types.
const (
	OpPut    Op = "put"
	OpDelete Op = "del"
	OpBatch  Op = "batch"
)

// Record is one WAL entry. A batch record carries sub-records (which must
// not themselves be batches).
type Record struct {
	Seq   uint64          `json:"seq"`
	Op    Op              `json:"op"`
	Table string          `json:"table,omitempty"`
	Key   string          `json:"key,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`
	Batch []Record        `json:"batch,omitempty"`
}

// ErrClosed is returned for operations on a closed DB.
var ErrClosed error = errs.New(errs.ComponentStore, errs.CategoryConflict, "database is closed")

// ErrNotFound is returned by Get-style helpers when the key is absent.
var ErrNotFound error = errs.New(errs.ComponentStore, errs.CategoryNotFound, "key not found")

// DB is an embedded multi-table store.
type DB struct {
	mu     sync.RWMutex
	path   string
	opts   Options
	seq    uint64
	closed atomic.Bool
	// walErr is the sticky storage failure: after a failed or torn WAL
	// write the on-disk tail is unknowable, so every further mutation
	// reports the original error instead of diverging memory from disk.
	walErr error

	// idx is the published state: every table's immutable B+tree (see
	// index.go). Writers swap it under mu; readers just load it.
	idx atomic.Pointer[dbIndex]
	// mg is applyLocked's merge scratch, guarded by mu.
	mg merger

	wal *wal // nil for in-memory stores

	// The commit queue (WAL-backed stores only; see commit in wal.go),
	// guarded by mu: the entries waiting for a leader, the emptied array of
	// the last batch, which the next one queues into, whether a batch is in
	// flight, and the condition each finished batch broadcasts. writes is
	// the leader's own scratch (processBatch).
	pend      []*pendingCommit
	spare     []*pendingCommit
	leading   bool
	batchDone *sync.Cond
	writes    []*pendingCommit

	compacting bool
	bg         sync.WaitGroup // in-flight background compactions

	st counters
}

// Options configures Open.
type Options struct {
	// SyncEvery fsyncs the WAL after every N committed records (0 disables
	// fsync; durability then depends on OS flush). Group commit issues at
	// most one fsync per commit batch, so SyncEvery=1 costs one fsync per
	// batch of concurrent committers, not one per record. A follower's
	// shipment fsyncs with its batch whatever SyncEvery says.
	SyncEvery int
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size (0 = DefaultSegmentBytes, <0 disables rotation).
	SegmentBytes int64
	// AutoCompact starts an online snapshot compaction in the background
	// once sealed (replay-on-recovery) WAL bytes exceed this (0 disables).
	AutoCompact int64
	// Fault, when set, is consulted before every file operation the store
	// makes that changes the disk, from Open's first on (see FaultHook).
	Fault FaultHook
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// OpenMemory returns a volatile in-memory DB.
func OpenMemory() *DB { return &DB{} }

// Open opens (creating if needed) a DB backed by the WAL layout rooted at
// path (see wal.go) and recovers its state: snapshot first, then the
// segment tail.
func Open(path string, opts Options) (*DB, error) {
	if path == "" {
		return nil, errs.New(errs.ComponentStore, errs.CategoryValidation, "path required; use OpenMemory for volatile stores")
	}
	// A directory of shard-NNN.wal families is what the retired sharded
	// store left behind; opening it as one WAL would start an empty store
	// beside the data instead of on it.
	if shards, _ := filepath.Glob(filepath.Join(path, "shard-*.wal*")); len(shards) > 0 {
		return nil, errs.New(errs.ComponentStore, errs.CategoryValidation,
			"%s holds the retired sharded layout (%d shard-*.wal* files); a store is one WAL family now and will not be started beside them", path, len(shards))
	}
	// Likewise a plain file at the base path itself: the single-file WAL of
	// unframed JSON lines nothing has written since PR 3. The reader went
	// with PR 23; starting on fresh segments beside it would hide its data.
	if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
		return nil, errs.New(errs.ComponentStore, errs.CategoryValidation,
			"%s is a pre-segment single-file WAL; PR 22 was the last release that could read it (open and compact it there, which rewrites it as a snapshot)", path)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "mkdir")
	}
	db := &DB{path: path, opts: opts.withDefaults(), wal: &wal{disk: disk{hook: opts.Fault}}}
	db.batchDone = sync.NewCond(&db.mu)
	start := time.Now()
	if err := db.recover(); err != nil {
		return nil, err
	}
	db.st.recoveryMillis = float64(time.Since(start).Microseconds()) / 1e3
	// A store recovered with an over-threshold tail compacts right away
	// instead of waiting for the next commit.
	db.maybeAutoCompact()
	return db, nil
}

// tornMark remembers the single tolerated torn tail found during recovery.
type tornMark struct {
	seen bool
	path string
	off  int64
}

// recover rebuilds the in-memory state from disk: snapshot, then the
// segments in index order; finally it truncates the torn tail (if any) and
// opens the active segment.
func (db *DB) recover() error {
	w := db.wal
	_ = w.disk.remove(db.path + snapTmpSuffix)    // in-flight snapshot from a crashed compaction
	_ = w.disk.remove(db.path + installTmpSuffix) // or from a crashed InstallSnapshot

	// One reader serves the snapshot and every segment of the recovery, made
	// for the first file with bytes to read.
	var r *bufio.Reader
	if f, err := os.Open(db.path + snapSuffix); err == nil {
		r = bufio.NewReaderSize(f, 1<<18)
		seq, idx, lerr := readSnapshot(r, filepath.Base(f.Name()))
		f.Close()
		if lerr != nil {
			return lerr
		}
		db.idx.Store(&idx)
		db.seq = seq
		db.st.snapshotSeq.Store(seq)
		db.st.snapshotLoaded = true
	} else if !os.IsNotExist(err) {
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "open snapshot")
	}

	var torn tornMark
	var applied uint64
	segs, err := listSegments(db.path)
	if err != nil {
		return err
	}
	lasts := make([]uint64, len(segs)) // the recovered sequence after each file
	for i, s := range segs {
		if s.size > 0 {
			if r == nil {
				r = bufio.NewReaderSize(nil, 1<<18)
			}
			if rerr := db.replayFile(r, s.path, &torn, &applied); rerr != nil {
				return rerr
			}
		}
		lasts[i] = db.seq
	}
	if torn.seen {
		// Drop the torn tail so new appends start on a clean record
		// boundary instead of gluing onto half a record.
		if terr := w.disk.truncate(torn.path, torn.off); terr != nil {
			return errs.Wrap(terr, errs.ComponentStore, errs.CategoryIO, "truncate torn tail")
		}
	}

	// Seal every segment but the last; append to the last unless it is
	// already over the rotation threshold.
	openFresh := uint64(1)
	for i, s := range segs {
		size := s.size
		if torn.seen && torn.path == s.path {
			size = torn.off
		}
		last := i == len(segs)-1
		if last && (db.opts.SegmentBytes <= 0 || size < db.opts.SegmentBytes) {
			if oerr := w.openSegment(db.path, s.idx, nil); oerr != nil {
				return oerr
			}
			openFresh = 0
			break
		}
		w.sealed = append(w.sealed, sealedFile{path: s.path, size: size, last: lasts[i]})
		w.sealedSize += size
		if s.idx >= w.nextIdx {
			w.nextIdx = s.idx + 1
		}
		if last {
			openFresh = w.nextIdx
		}
	}
	if openFresh > 0 {
		if oerr := w.openSegment(db.path, max(openFresh, w.nextIdx), nil); oerr != nil {
			return oerr
		}
	}
	w.lastApplied = db.seq // everything recovered is on disk and applied
	db.st.appliedSeq.Store(db.seq)
	db.st.recoveredRecords = applied
	return nil
}

// replayFile replays one WAL segment of CRC-framed lines through r, which
// it resets onto the file. Records at or
// below the recovered sequence (already covered by the snapshot) are
// skipped; records beyond it must be contiguous. Exactly one torn tail is
// tolerated across all files, and only if no record follows it.
//
// Nothing reads during Open, so the whole file is one apply: one merge,
// published when the file is done. Its scratch is local, so the DB keeps
// nothing the size of a file.
func (db *DB) replayFile(r *bufio.Reader, path string, torn *tornMark, applied *uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "open for replay")
	}
	defer f.Close()
	var m merger
	defer func() {
		next := m.apply(db.loadIndex())
		db.idx.Store(&next)
	}()
	r.Reset(f)
	var long []byte
	var off int64
	base := filepath.Base(path)
	for lineNo := 1; ; lineNo++ {
		line, rerr := readLine(r, &long)
		if len(line) > 0 {
			if rerr != nil {
				// Unterminated final chunk: a torn tail from a crash
				// mid-append. Tolerated once, and only at the very end of
				// the log.
				if torn.seen {
					return errs.New(errs.ComponentStore, errs.CategoryCorruption, "second torn record at %s:%d (corruption)", base, lineNo)
				}
				torn.seen, torn.path, torn.off = true, path, off
			} else {
				rec, perr := parseFramed(line[:len(line)-1])
				if perr != nil {
					return errs.New(errs.ComponentStore, errs.CategoryCorruption, "corrupt wal record at %s:%d: %v", base, lineNo, perr)
				}
				if rec.Seq > db.seq {
					if torn.seen {
						return errs.New(errs.ComponentStore, errs.CategoryCorruption, "wal records follow a torn tail at %s (corruption)", filepath.Base(torn.path))
					}
					if rec.Seq != db.seq+1 {
						return errs.New(errs.ComponentStore, errs.CategoryCorruption, "wal sequence gap at %s:%d: have %d, want %d", base, lineNo, rec.Seq, db.seq+1)
					}
					m.add(rec)
					db.seq = rec.Seq
					*applied++
				}
				off += int64(len(line))
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				return nil
			}
			return errs.Wrap(rerr, errs.ComponentStore, errs.CategoryIO, "read wal %s", base)
		}
	}
}

// fail records err as the DB's sticky storage failure and returns it (or
// the earlier failure if one is already recorded).
func (db *DB) fail(err error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.walErr == nil {
		db.walErr = err
	}
	return db.walErr
}

// Err reports the store's sticky storage failure (walErr), nil while healthy.
func (db *DB) Err() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.walErr
}

// commitRecord routes one mutation record through the store's durability
// path — memory only, or the WAL's commit queue — and applies it.
func (db *DB) commitRecord(op Op, table, key string, value json.RawMessage, batch []Record) error {
	if db.wal == nil {
		return db.commitMemory(op, table, key, value, batch)
	}
	c := pendingCommits.Get().(*pendingCommit)
	defer c.release()
	c.rec = Record{Op: op, Table: table, Key: key, Value: value, Batch: batch}
	return db.commit(c)
}

func (db *DB) commitMemory(op Op, table, key string, value json.RawMessage, batch []Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	db.seq++
	db.applyLocked(Record{Seq: db.seq, Op: op, Table: table, Key: key, Value: value, Batch: batch})
	db.st.appliedSeq.Store(db.seq)
	db.st.commits.Add(1)
	return nil
}

// Put stores value (JSON-marshaled) under (table, key): the one write that
// encodes its value itself, a catalog record through its encoder.
func (db *DB) Put(table, key string, value any) error {
	raw, err := appendValue(nil, value)
	if err != nil {
		return err
	}
	return db.Apply([]Mutation{{Op: OpPut, Table: table, Key: key, Value: raw[:len(raw):len(raw)]}})
}

// Get unmarshals the value at (table, key) into out. It returns ErrNotFound
// if absent. Lock-free: a descent of the table's published tree. The
// Catalog's *rawValue gets the stored slice itself, undecoded.
func (db *DB) Get(table, key string, out any) error {
	if db.closed.Load() {
		return ErrClosed
	}
	raw, ok := db.table(table).get(key)
	if !ok {
		return ErrNotFound
	}
	if r, ok := out.(*rawValue); ok {
		r.RawMessage = raw
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Has reports whether (table, key) exists.
func (db *DB) Has(table, key string) bool {
	_, ok := db.table(table).get(key)
	return ok
}

// Delete removes (table, key); deleting a missing key is not an error.
func (db *DB) Delete(table, key string) error {
	return db.Apply([]Mutation{{Op: OpDelete, Table: table, Key: key}})
}

// Mutation is one entry of an atomic batch: the WAL record it is written
// as, with its value already encoded (the Catalog's WriteSet encodes each
// record where it stages it). Seq and Batch are the store's to fill, and a
// delete carries no value.
type Mutation = Record

// Apply executes mutations atomically, across tables and keys: they are
// written as one WAL record — so recovery, and a follower, see all or none —
// and folded into memory as one apply, so readers see all or none too and a
// tree node touched by several of them is built once. Mutations take effect
// in order: a key written twice keeps the last value. A group of one is
// written as the plain put or delete record it is, without the batch
// wrapper.
//
// Apply checks the ops and the names, and nothing else: a table or key that
// is not valid UTF-8 is refused, as a validation error, before anything is
// written. Each value is stored as the slice
// it is, so the store owns the value bytes once Apply is called, and the
// caller must not modify them afterwards. The list itself is the batch
// record's sub-records only until Apply returns: the apply copies each op
// into its merger's scratch and a WAL commit frames the record into the
// WAL's own buffer, so the caller may reuse the list, on any outcome.
func (db *DB) Apply(muts []Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	for i := range muts {
		if fault := mutationFault(&muts[i]); fault != "" {
			return errs.New(errs.ComponentStore, errs.CategoryValidation, "batch mutation %d %s", i, fault)
		}
	}
	if len(muts) == 1 {
		return db.commitRecord(muts[0].Op, muts[0].Table, muts[0].Key, muts[0].Value, nil)
	}
	return db.commitRecord(OpBatch, "", "", nil, muts)
}

// mutationFault names what makes m a write Apply refuses, or is "" for one
// it takes.
func mutationFault(m *Mutation) string {
	switch {
	case m.Seq != 0 || m.Batch != nil:
		return "sets a sequence or sub-records"
	case m.Op == OpPut && len(m.Value) == 0:
		return "puts no value"
	case m.Op == OpDelete && m.Value != nil:
		return "deletes with a value"
	case m.Op != OpPut && m.Op != OpDelete:
		return fmt.Sprintf("has invalid op %q", m.Op)
	case !utf8.ValidString(m.Table) || !utf8.ValidString(m.Key):
		// A frame carries names as JSON strings, which hold only UTF-8: the
		// log would be read back with U+FFFD in place of each bad byte.
		return fmt.Sprintf("names table %q key %q, not valid UTF-8", m.Table, m.Key)
	}
	return ""
}

// checkRecord holds a record read back — replayed, read for a follower or
// shipped by a leader — to the rules Apply writes by, so that everything a
// log holds is applied: a put or delete obeys them as a mutation of its own
// (its sequence aside), and a batch's every sub-record obeys them. Anything
// else is an error; the readers report it as corruption and apply nothing.
func checkRecord(rec *Record) error {
	switch rec.Op {
	case OpBatch:
		for i := range rec.Batch {
			if fault := mutationFault(&rec.Batch[i]); fault != "" {
				return fmt.Errorf("sub-record %d %s", i, fault)
			}
		}
	case OpPut, OpDelete:
		m := *rec
		m.Seq = 0
		if fault := mutationFault(&m); fault != "" {
			return fmt.Errorf("record %s", fault)
		}
	default:
		return fmt.Errorf("invalid op %q", rec.Op)
	}
	return nil
}

// Scan visits every (key, raw JSON value) of a table in ascending key order;
// fn returning false stops the scan.
func (db *DB) Scan(table string, fn func(key string, raw []byte) bool) {
	db.ScanPrefix(table, "", fn)
}

// ScanPrefix visits keys with the given prefix in ascending order —
// O(log n + visited), nothing copied, early termination free.
func (db *DB) ScanPrefix(table, prefix string, fn func(key string, raw []byte) bool) {
	db.table(table).scanRange(prefix, prefixEnd(prefix), 0, fn)
}

// ScanRange visits keys in [start, end) in ascending order — end "" means
// unbounded — calling fn for at most limit keys (limit <= 0 = unbounded)
// or until fn returns false. It returns the number of keys visited.
func (db *DB) ScanRange(table, start, end string, limit int, fn func(key string, raw []byte) bool) int {
	return db.table(table).scanRange(start, end, limit, fn)
}

// Count returns the number of keys in a table.
func (db *DB) Count(table string) int { return db.table(table).n }

// CountPrefix returns the number of keys with the given prefix, walking
// them: O(log n + matched).
func (db *DB) CountPrefix(table, prefix string) int {
	return db.table(table).scanRange(prefix, prefixEnd(prefix), 0, func(string, []byte) bool { return true })
}

// Tables returns the table names in sorted order.
func (db *DB) Tables() []string {
	x := db.loadIndex()
	out := make([]string, len(x))
	for i := range x {
		out[i] = x[i].name
	}
	return out
}

// Seq returns the last assigned WAL sequence number.
func (db *DB) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// Sync forces the WAL to stable storage: it blocks until everything
// committed before the call is flushed and fsynced.
func (db *DB) Sync() error {
	if db.wal == nil {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed.Load() {
			return ErrClosed
		}
		return nil
	}
	c := pendingCommits.Get().(*pendingCommit)
	defer c.release()
	c.syncBarrier = true
	return db.commit(c)
}

// Compact takes an online snapshot: it briefly blocks writers at the cut
// point (seal + state capture), then writes the snapshot and deletes the
// superseded WAL files without holding any store lock — readers are never
// blocked, and recovery afterwards replays only the post-cut tail. A
// compaction already in flight makes Compact a no-op. In-memory DBs have
// nothing to compact.
func (db *DB) Compact() error {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.wal == nil || db.compacting {
		db.mu.Unlock()
		return nil
	}
	db.compacting = true
	db.bg.Add(1) // under mu so Close's bg.Wait is ordered after this Add
	db.mu.Unlock()
	defer db.bg.Done()
	defer func() {
		db.mu.Lock()
		db.compacting = false
		db.mu.Unlock()
	}()

	cut, err := db.cut()
	if err != nil {
		return err
	}
	return db.writeSnapshotAndCleanup(cut)
}

// cut obtains the compaction cut through the commit queue, so the cut
// serializes with the batches around it.
func (db *DB) cut() (*cutState, error) {
	c := pendingCommits.Get().(*pendingCommit)
	defer c.release()
	c.cut = true
	err := db.commit(c)
	return c.cutState, err
}

// writeSnapshotAndCleanup persists the cut as a snapshot and removes the
// WAL files it supersedes. Runs without store locks.
func (db *DB) writeSnapshotAndCleanup(cut *cutState) error {
	w := db.wal
	tmp := db.path + snapTmpSuffix
	if err := w.disk.writeSnapshotFile(tmp, cut.seq, cut.idx); err != nil {
		return err // a tmp left behind goes at the next Open
	}
	// InstallSnapshot holds fmu from its seq check to its snapshotSeq
	// store, so under fmu either no install has happened since the cut or
	// its newer image is already on disk and the segments this cut covers
	// are already gone: then the older image must not replace it.
	w.fmu.Lock()
	if db.st.snapshotSeq.Load() > cut.seq {
		w.fmu.Unlock()
		w.disk.remove(tmp)
		return nil
	}
	err := w.disk.rename(tmp, db.path+snapSuffix)
	if err == nil {
		db.st.snapshotSeq.Store(cut.seq)
	}
	w.fmu.Unlock()
	if err != nil {
		w.disk.remove(tmp)
		return errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "snapshot rename")
	}
	w.disk.syncDir(filepath.Dir(db.path))
	// From here ReplTail answers ErrSnapshotNeeded below cut.seq, so the
	// covered files can leave the list and then the disk. Removal is best
	// effort: a file that cannot be removed stays harmless (recovery skips
	// its records by seq) and goes back on the sealed list so the next
	// compaction retries instead of orphaning it.
	db.dropSealed(cut.coveredSegs)
	var kept []sealedFile
	var firstErr error
	for _, s := range cut.coveredSegs {
		if err := w.disk.remove(s.path); err != nil && !os.IsNotExist(err) {
			kept = append(kept, s)
			if firstErr == nil {
				firstErr = errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "remove compacted wal file")
			}
		}
	}
	db.restoreSealed(kept)
	if firstErr != nil {
		return firstErr
	}
	db.st.compactions.Add(1)
	return nil
}

// Close flushes and closes the WAL. Further operations return ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return nil
	}
	db.closed.Store(true)
	if db.wal == nil {
		db.mu.Unlock()
		return nil
	}
	// Nothing queues after closed is set; what queued before is still led
	// through by its committers.
	for db.leading || len(db.pend) > 0 {
		db.batchDone.Wait()
	}
	db.mu.Unlock()
	db.bg.Wait()
	w := db.wal
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.file == nil {
		return nil
	}
	if db.Err() == nil {
		return db.closeActiveLocked()
	}
	// After a (simulated or real) write failure, don't flush buffered bytes
	// over a torn tail — just release the descriptor.
	err := w.file.Close()
	w.file = nil
	return err
}

// Path returns the WAL base path ("" for in-memory DBs).
func (db *DB) Path() string { return db.path }
