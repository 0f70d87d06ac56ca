package cluster

import (
	"net/http"
	"sort"
	"strings"
	"time"

	"itag/internal/api"
)

// PromHandler exposes the node's metrics in one exposition: the route
// histograms of every request it served (a led slot's stack and, for
// follower reads, a replica's count into one registry), then Families.
func (n *Node) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.ExpositionContentType)
		_ = api.WriteExposition(w, append(n.metrics.Families(), n.Families()...))
	})
}

// Families renders everything the node exposes beyond its route registry:
// each led slot's store, admission and response-cache families, each replica
// stack's response cache, all labeled by slot, and the node's replication
// posture — both ends of its streams side by side; the lag gauge is what the
// staleness bound on follower reads is measured against. Stacks that share a
// family name write it once (api.WriteExposition merges by name).
func (n *Node) Families() []api.Family {
	health := n.Health() // before n.mu: Health takes its own RLock
	breakerOpen, breakerTotal, breakerOpens := n.peers.Snapshot(time.Now())
	n.mu.RLock()
	defer n.mu.RUnlock()

	gauge := func(name, help string, samples []api.Sample) api.Family {
		return api.Family{Name: name, Help: help, Type: api.TypeGauge, Samples: samples}
	}
	counter := func(name, help string, samples []api.Sample) api.Family {
		return api.Family{Name: name, Help: help, Type: api.TypeCounter, Samples: samples}
	}
	slotSample := func(slot string, v float64) api.Sample {
		return api.Sample{Labels: []api.Label{{Name: "slot", Value: slot}}, Value: v}
	}

	// One stream per (led slot, follower node): what was shipped, how far
	// that follower has acked, and what went wrong on the way.
	var slotFams []api.Family
	var leaderApplied, pushes, pushBytes, acked, pushErrs []api.Sample
	for _, slot := range sortedKeys(n.leaders) {
		b := n.leaders[slot]
		slotFams = append(slotFams, b.srv.Families(api.Label{Name: "slot", Value: slot})...)
		leaderApplied = append(leaderApplied, slotSample(slot, float64(b.db.AppliedSeq())))
		for _, s := range b.senders {
			labels := []api.Label{{Name: "slot", Value: slot}, {Name: "follower", Value: hostOf(s.addr)}}
			pushes = append(pushes, api.Sample{Labels: labels, Value: float64(s.ships.Load())})
			pushBytes = append(pushBytes, api.Sample{Labels: labels, Value: float64(s.shipBytes.Load())})
			acked = append(acked, api.Sample{Labels: labels, Value: float64(s.acked.Load())})

			s.errMu.Lock()
			for _, cat := range sortedKeys(s.errCounts) {
				pushErrs = append(pushErrs, api.Sample{
					Labels: append(labels[:2:2], api.Label{Name: "category", Value: cat}),
					Value:  float64(s.errCounts[cat]),
				})
			}
			s.errMu.Unlock()
		}
	}
	var repApplied, repLeader, repLag []api.Sample
	var repCaches []api.Family
	for _, slot := range sortedKeys(n.replicas) {
		rep := n.replicas[slot]
		// A replica shows its response cache only: its store's counters
		// would add the slot's replicated writes to this node's own.
		for _, f := range rep.srv.Families(api.Label{Name: "slot", Value: slot}) {
			if strings.HasPrefix(f.Name, "itag_respcache_") {
				repCaches = append(repCaches, f)
			}
		}
		repApplied = append(repApplied, slotSample(slot, float64(rep.db.AppliedSeq())))
		repLeader = append(repLeader, slotSample(slot, float64(rep.leaderSeq.Load())))
		repLag = append(repLag, slotSample(slot, float64(rep.lag())))
	}

	fams := []api.Family{
		gauge("itag_cluster_ring_version", "Version of the installed consistent-hash ring.",
			[]api.Sample{{Value: float64(n.ring.Version)}}),
		gauge("itag_cluster_leader_applied_seq", "Applied (flushed) WAL sequence per led slot.", leaderApplied),
		counter("itag_cluster_not_owner_total", "Requests redirected with 421 not_owner.",
			[]api.Sample{{Value: float64(n.notOwner.Load())}}),
		counter("itag_cluster_follower_reads_total", "Opt-in reads served from replica stores.",
			[]api.Sample{{Value: float64(n.followerReads.Load())}}),
		counter("itag_cluster_ring_conflicts_total", "Same-version ring pushes with diverging content (concurrent promotions resolved by tiebreak).",
			[]api.Sample{{Value: float64(n.ringConflicts.Load())}}),
		gauge("itag_cluster_health_state", "Node health on the degradation ladder: 0 healthy, 1 degraded, 2 isolated.",
			[]api.Sample{{Value: healthValue(health)}}),
		counter("itag_cluster_quorum_degraded_total", "Quorum-mode writes acked leader-only because the follower confirmation timed out.",
			[]api.Sample{{Value: float64(n.quorumDegraded.Load())}}),
		counter("itag_cluster_demotions_total", "Led slots surrendered to a newer ring (deposed leader stepped down).",
			[]api.Sample{{Value: float64(n.demotions.Load())}}),
		counter("itag_cluster_follower_read_fallbacks_total", "Follower reads refused for staleness and redirected to the leader.",
			[]api.Sample{{Value: float64(n.followerFallbacks.Load())}}),
		gauge("itag_cluster_peer_breaker_open", "Peers whose circuit breaker is currently open, of the peers contacted so far.",
			[]api.Sample{{Value: float64(breakerOpen)}}),
		gauge("itag_cluster_peers_tracked", "Peers with circuit-breaker state on this node.",
			[]api.Sample{{Value: float64(breakerTotal)}}),
		counter("itag_cluster_peer_breaker_opens_total", "Circuit-breaker open transitions across all peers.",
			[]api.Sample{{Value: float64(breakerOpens)}}),
	}
	if len(pushes) > 0 {
		fams = append(fams,
			counter("itag_cluster_pushes_total", "Shipments a follower answered, heartbeats included, per led slot and follower.", pushes),
			counter("itag_cluster_push_bytes_total", "WAL and snapshot bytes shipped per led slot and follower.", pushBytes),
			gauge("itag_cluster_quorum_confirmed_seq", "Highest WAL sequence the follower has acked as fsynced, per led slot and follower (the first follower's is what quorum acks wait on).", acked),
		)
	}
	if len(pushErrs) > 0 {
		fams = append(fams,
			counter("itag_cluster_push_errors_total", "Failed shipments by led slot, follower and error-taxonomy category (a follower's refusal counts under its envelope code's category).", pushErrs))
	}
	if len(repApplied) > 0 {
		fams = append(fams,
			gauge("itag_cluster_replica_applied_seq", "Replica's applied WAL sequence per followed slot.", repApplied),
			gauge("itag_cluster_replica_leader_seq", "Leader's applied sequence as of its last shipment, per followed slot.", repLeader),
			gauge("itag_cluster_replica_lag", "Replication lag in records per followed slot (leader seq minus replica seq).", repLag),
		)
	}
	return append(append(slotFams, fams...), repCaches...)
}

// sortedKeys returns m's keys in order, so a scrape lists samples stably.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
