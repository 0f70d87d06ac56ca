package cluster

import (
	"net/http"
	"sort"
	"time"

	"itag/internal/api"
)

// PromHandler exposes the node's metrics in one exposition: the route
// histograms of every request it served (a led slot's stack and, for
// follower reads, a replica's count into one registry), then Collect.
func (n *Node) PromHandler() http.Handler {
	return api.PromHandler(n.metrics.Collect, n.Collect)
}

// Collect writes everything the node exposes beyond its route registry into
// x: each led slot's store, admission and response-cache series, the node's
// replication posture — both ends of its streams side by side; the lag gauge
// is what the staleness bound on follower reads is measured against — and
// each replica stack's response cache, all labeled by slot. A replica shows
// its response cache only: its store's counters would add the slot's
// replicated writes to this node's own. A slot promoted onto this node keeps
// the store it followed with, so its itag_store_* counters continue from what
// that store applied as a follower — replicated commits, fsyncs and WAL bytes
// included — instead of starting from zero.
func (n *Node) Collect(x *api.Exposition) {
	health := n.Health() // before n.mu: Health takes its own RLock
	breakerOpen, breakerTotal, breakerOpens := n.peers.Snapshot(time.Now())
	n.mu.RLock()
	defer n.mu.RUnlock()

	leaders := sortedKeys(n.leaders)
	for _, slot := range leaders {
		n.leaders[slot].srv.Collect(x, api.Label{Name: "slot", Value: slot})
	}
	x.Gauge("itag_cluster_ring_version", "Version of the installed consistent-hash ring.", float64(n.ring.Version))
	for _, slot := range leaders {
		x.Gauge("itag_cluster_leader_applied_seq", "Applied (flushed) WAL sequence per led slot.",
			float64(n.leaders[slot].db.AppliedSeq()), api.Label{Name: "slot", Value: slot})
	}
	x.Counter("itag_cluster_not_owner_total", "Requests redirected with 421 not_owner.", float64(n.notOwner.Load()))
	x.Counter("itag_cluster_follower_reads_total", "Opt-in reads served from replica stores.", float64(n.followerReads.Load()))
	x.Counter("itag_cluster_ring_conflicts_total", "Same-version ring pushes with diverging content (concurrent promotions resolved by tiebreak).",
		float64(n.ringConflicts.Load()))
	x.Gauge("itag_cluster_health_state", "Node health on the degradation ladder: 0 healthy, 1 degraded, 2 isolated.", healthValue(health))
	x.Counter("itag_cluster_quorum_degraded_total", "Quorum-mode writes acked leader-only because the follower confirmation timed out.",
		float64(n.quorumDegraded.Load()))
	x.Counter("itag_cluster_demotions_total", "Led slots surrendered to a newer ring (deposed leader stepped down).", float64(n.demotions.Load()))
	x.Counter("itag_cluster_follower_read_fallbacks_total", "Follower reads refused for staleness and redirected to the leader.",
		float64(n.followerFallbacks.Load()))
	x.Gauge("itag_cluster_peer_breaker_open", "Peers whose circuit breaker is currently open, of the peers contacted so far.", float64(breakerOpen))
	x.Gauge("itag_cluster_peers_tracked", "Peers with circuit-breaker state on this node.", float64(breakerTotal))
	x.Counter("itag_cluster_peer_breaker_opens_total", "Circuit-breaker open transitions across all peers.", float64(breakerOpens))

	// One stream per (led slot, follower node): what was shipped, how far
	// that follower has acked, and what went wrong on the way.
	for _, slot := range leaders {
		for _, s := range n.leaders[slot].senders {
			labels := []api.Label{{Name: "slot", Value: slot}, {Name: "follower", Value: hostOf(s.addr)}}
			x.Counter("itag_cluster_pushes_total", "Shipments a follower answered, heartbeats included, per led slot and follower.",
				float64(s.ships.Load()), labels...)
			x.Counter("itag_cluster_push_bytes_total", "WAL and snapshot bytes shipped per led slot and follower.",
				float64(s.shipBytes.Load()), labels...)
			x.Gauge("itag_cluster_quorum_confirmed_seq", "Highest WAL sequence the follower has acked as fsynced, per led slot and follower (the first follower's is what quorum acks wait on).",
				float64(s.acked.Load()), labels...)
			s.errMu.Lock()
			for _, cat := range sortedKeys(s.errCounts) {
				x.Counter("itag_cluster_push_errors_total", "Failed shipments by led slot, follower and error-taxonomy category (a follower's refusal counts under its envelope code's category).",
					float64(s.errCounts[cat]), append(labels[:2:2], api.Label{Name: "category", Value: cat})...)
			}
			s.errMu.Unlock()
		}
	}
	for _, slot := range sortedKeys(n.replicas) {
		rep := n.replicas[slot]
		label := api.Label{Name: "slot", Value: slot}
		x.Gauge("itag_cluster_replica_applied_seq", "Replica's applied WAL sequence per followed slot.", float64(rep.db.AppliedSeq()), label)
		x.Gauge("itag_cluster_replica_leader_seq", "Leader's applied sequence as of its last shipment, per followed slot.", float64(rep.leaderSeq.Load()), label)
		x.Gauge("itag_cluster_replica_lag", "Replication lag in records per followed slot (leader seq minus replica seq).", float64(rep.lag()), label)
		rep.srv.CollectRespCache(x, label)
	}
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
