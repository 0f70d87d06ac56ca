package store

import "sync/atomic"

// counters are the DB's internal durability-layer counters. Atomics so
// batch leaders, the compactor and Stats readers never contend.
type counters struct {
	commits     atomic.Uint64
	batches     atomic.Uint64
	fsyncs      atomic.Uint64
	walBytes    atomic.Uint64
	rotations   atomic.Uint64
	compactions atomic.Uint64
	snapshotSeq atomic.Uint64
	// appliedSeq is the replication watermark: the highest sequence applied
	// to memory and (for durable stores) flushed to the WAL file. Read
	// lock-free by DB.AppliedSeq for the cluster layer.
	appliedSeq atomic.Uint64

	// Set once during Open, before any concurrency exists.
	recoveredRecords uint64
	recoveryMillis   float64
	snapshotLoaded   bool
}

// Stats is a point-in-time view of a store's durability layer, surfaced at
// GET /api/v1/metrics.
type Stats struct {
	Backend        string  `json:"backend"` // "memory" | "wal"
	Commits        uint64  `json:"commits"`
	CommitBatches  uint64  `json:"commit_batches"`
	AvgCommitBatch float64 `json:"avg_commit_batch"` // group-commit coalescing factor
	Fsyncs         uint64  `json:"fsyncs"`
	WALBytes       uint64  `json:"wal_bytes"`
	Segments       int     `json:"segments"` // live WAL segment files
	SegmentBytes   int64   `json:"segment_bytes"`
	Rotations      uint64  `json:"rotations"`
	Compactions    uint64  `json:"compactions"`
	// SnapshotSeq is the sequence the last snapshot covers.
	SnapshotSeq      uint64  `json:"snapshot_seq"`
	SnapshotsLoaded  int     `json:"snapshots_loaded"` // recoveries that started from a snapshot
	RecoveredRecords uint64  `json:"recovered_records"`
	RecoveryMillis   float64 `json:"recovery_ms"`
}

// Stats returns the DB's durability counters.
func (db *DB) Stats() Stats {
	st := Stats{
		Backend:          "memory",
		Commits:          db.st.commits.Load(),
		CommitBatches:    db.st.batches.Load(),
		Fsyncs:           db.st.fsyncs.Load(),
		WALBytes:         db.st.walBytes.Load(),
		Rotations:        db.st.rotations.Load(),
		Compactions:      db.st.compactions.Load(),
		SnapshotSeq:      db.st.snapshotSeq.Load(),
		RecoveredRecords: db.st.recoveredRecords,
		RecoveryMillis:   db.st.recoveryMillis,
	}
	if st.CommitBatches > 0 {
		st.AvgCommitBatch = float64(st.Commits) / float64(st.CommitBatches)
	}
	if db.st.snapshotLoaded {
		st.SnapshotsLoaded = 1
	}
	if db.wal != nil {
		st.Backend = "wal"
		w := db.wal
		// smu, not fmu: a batch leader holds fmu across writes and fsyncs,
		// and a metrics scrape must not stall behind disk I/O.
		w.smu.Lock()
		st.Segments = len(w.sealed) + 1
		st.SegmentBytes = w.sealedSize + w.activeSize
		w.smu.Unlock()
	}
	return st
}
