package server

import (
	"net/http"

	"itag/internal/api"
)

// PromHandler serves the route registry and Collect in Prometheus text
// exposition format 0.0.4. It is deliberately not mounted on the API mux:
// scrape traffic belongs on the operational -debug-addr listener next to
// pprof, where it shares no connection budget with serving traffic. The
// JSON view at /api/v1/metrics is unchanged.
func (s *Server) PromHandler() http.Handler {
	return api.PromHandler(s.metrics.Collect, func(x *api.Exposition) { s.Collect(x) })
}

// Collect writes the server's series beyond its route registry into x — the
// store's durability counters, admission state and the encoded-response
// cache — with labels ahead of each sample's own. A cluster node collects
// each stack it leads into its one exposition, told apart by a slot label.
// Counters that only ever grow are exposed as counters; sizes and sequence
// positions are gauges (compaction shrinks them).
func (s *Server) Collect(x *api.Exposition, labels ...api.Label) {
	labels = labels[:len(labels):len(labels)] // appends below never share
	if st := s.svc.StoreStats(); st != nil {
		x.Gauge("itag_store_info", "Store backend in use (constant 1, labeled by backend).", 1,
			append(labels, api.Label{Name: "backend", Value: st.Backend})...)
		x.Counter("itag_store_commits_total", "Committed mutations.", float64(st.Commits), labels...)
		x.Counter("itag_store_commit_batches_total", "Group-commit batches written.", float64(st.CommitBatches), labels...)
		x.Counter("itag_store_fsyncs_total", "WAL fsync calls.", float64(st.Fsyncs), labels...)
		x.Counter("itag_store_wal_bytes_total", "Bytes appended to the WAL.", float64(st.WALBytes), labels...)
		x.Counter("itag_store_wal_rotations_total", "WAL segment rotations.", float64(st.Rotations), labels...)
		x.Counter("itag_store_compactions_total", "Snapshot compactions completed.", float64(st.Compactions), labels...)
		x.Gauge("itag_store_wal_segments", "Live WAL segment files.", float64(st.Segments), labels...)
		x.Gauge("itag_store_wal_segment_bytes", "Bytes recovery would replay right now.", float64(st.SegmentBytes), labels...)
		x.Gauge("itag_store_snapshot_seq", "Sequence covered by the last snapshot.", float64(st.SnapshotSeq), labels...)
		x.Counter("itag_store_recovered_records_total", "WAL records replayed at open.", float64(st.RecoveredRecords), labels...)
		x.Gauge("itag_store_recovery_seconds", "Time the last open spent recovering.", st.RecoveryMillis/1e3, labels...)
	}
	s.collectAdmission(x, labels)
	s.CollectRespCache(x, labels...)
}
