package server

import (
	"net/http"

	"itag/internal/api"
	"itag/internal/store"
)

// PromHandler serves the full metrics registry in Prometheus text
// exposition format 0.0.4. It is deliberately not mounted on the API mux:
// scrape traffic belongs on the operational -debug-addr listener next to
// pprof, where it shares no connection budget with serving traffic. The
// JSON view at /api/v1/metrics is unchanged.
func (s *Server) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.ExpositionContentType)
		_ = api.WriteExposition(w, append(s.metrics.Families(), s.Families()...))
	})
}

// Families renders the server's families beyond its route registry — the
// store's durability counters, admission and pool state, and the
// encoded-response cache — with labels ahead of each sample's own. A cluster
// node composes its one exposition from its route registry and the Families
// of each stack it runs, told apart by a slot label.
func (s *Server) Families(labels ...api.Label) []api.Family {
	var fams []api.Family
	if st := s.svc.StoreStats(); st != nil {
		fams = storeFamilies(st)
	}
	fams = append(fams, s.capacityFamilies()...)
	if s.resp != nil {
		fams = append(fams, s.resp.families()...)
	}
	if len(labels) > 0 {
		for i := range fams {
			for j := range fams[i].Samples {
				smp := &fams[i].Samples[j]
				smp.Labels = append(labels[:len(labels):len(labels)], smp.Labels...)
			}
		}
	}
	return fams
}

// storeFamilies renders the store's durability counters as metric
// families. Counters that only ever grow are exposed as counters; sizes
// and sequence positions are gauges (compaction shrinks them).
func storeFamilies(st *store.Stats) []api.Family {
	one := func(name, help string, t string, v float64) api.Family {
		return api.Family{Name: name, Help: help, Type: t, Samples: []api.Sample{{Value: v}}}
	}
	return []api.Family{
		{
			Name: "itag_store_info", Type: api.TypeGauge,
			Help: "Store backend in use (constant 1, labeled by backend).",
			Samples: []api.Sample{{
				Labels: []api.Label{{Name: "backend", Value: st.Backend}},
				Value:  1,
			}},
		},
		one("itag_store_commits_total", "Committed mutations.", api.TypeCounter, float64(st.Commits)),
		one("itag_store_commit_batches_total", "Group-commit batches written.", api.TypeCounter, float64(st.CommitBatches)),
		one("itag_store_fsyncs_total", "WAL fsync calls.", api.TypeCounter, float64(st.Fsyncs)),
		one("itag_store_wal_bytes_total", "Bytes appended to the WAL.", api.TypeCounter, float64(st.WALBytes)),
		one("itag_store_wal_rotations_total", "WAL segment rotations.", api.TypeCounter, float64(st.Rotations)),
		one("itag_store_compactions_total", "Snapshot compactions completed.", api.TypeCounter, float64(st.Compactions)),
		one("itag_store_wal_segments", "Live WAL segment files.", api.TypeGauge, float64(st.Segments)),
		one("itag_store_wal_segment_bytes", "Bytes recovery would replay right now.", api.TypeGauge, float64(st.SegmentBytes)),
		one("itag_store_snapshot_seq", "Sequence covered by the last snapshot.", api.TypeGauge, float64(st.SnapshotSeq)),
		one("itag_store_recovered_records_total", "WAL records replayed at open.", api.TypeCounter, float64(st.RecoveredRecords)),
		one("itag_store_recovery_seconds", "Time the last open spent recovering.", api.TypeGauge, st.RecoveryMillis/1e3),
	}
}
