package cluster

import (
	"sort"
	"time"

	"itag/internal/api"
)

// Families renders the node's replication posture as Prometheus metric
// families. The led slot's server injects this through its ExtraFamilies
// hook, so one scrape of GET /metrics shows route latencies, store
// durability counters, and the replication watermarks side by side — the
// lag gauge is what the staleness bound on follower reads is measured
// against. The replica stacks' response caches ride along as slot-labeled
// samples of the itag_respcache_* families the led slot's server renders
// unlabeled (api.WriteExposition writes one family per name).
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

	leaderSlots := make([]string, 0, len(n.leaders))
	for slot := range n.leaders {
		leaderSlots = append(leaderSlots, slot)
	}
	sort.Strings(leaderSlots)
	replicaSlots := make([]string, 0, len(n.replicas))
	for slot := range n.replicas {
		replicaSlots = append(replicaSlots, slot)
	}
	sort.Strings(replicaSlots)

	var leaderApplied, pushes, pushBytes, confirmed []api.Sample
	for _, slot := range leaderSlots {
		b := n.leaders[slot]
		leaderApplied = append(leaderApplied, slotSample(slot, float64(b.db.AppliedSeq())))
		if b.push != nil {
			pushes = append(pushes, slotSample(slot, float64(b.push.pushes.Load())))
			pushBytes = append(pushBytes, slotSample(slot, float64(b.push.pushBytes.Load())))
			confirmed = append(confirmed, slotSample(slot, float64(b.push.confirmed.Load())))
		}
	}
	var repApplied, repLeader, repLag, pulls, pullBytes, pullErrs []api.Sample
	var repCaches []api.Family
	for _, slot := range replicaSlots {
		rep := n.replicas[slot]
		repCaches = append(repCaches, rep.srv.RespCacheFamilies(api.Label{Name: "slot", Value: slot})...)
		repApplied = append(repApplied, slotSample(slot, float64(rep.db.AppliedSeq())))
		repLeader = append(repLeader, slotSample(slot, float64(rep.leaderSeq.Load())))
		repLag = append(repLag, slotSample(slot, float64(rep.lag())))
		pulls = append(pulls, slotSample(slot, float64(rep.pulls.Load())))
		pullBytes = append(pullBytes, slotSample(slot, float64(rep.pullBytes.Load())))

		rep.errMu.Lock()
		cats := make([]string, 0, len(rep.errCounts))
		for cat := range rep.errCounts {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		for _, cat := range cats {
			pullErrs = append(pullErrs, api.Sample{
				Labels: []api.Label{{Name: "slot", Value: slot}, {Name: "category", Value: cat}},
				Value:  float64(rep.errCounts[cat]),
			})
		}
		rep.errMu.Unlock()
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
			counter("itag_cluster_pushes_total", "Quorum replication push rounds per led slot.", pushes),
			counter("itag_cluster_push_bytes_total", "WAL bytes pushed to followers per led slot.", pushBytes),
			gauge("itag_cluster_quorum_confirmed_seq", "Follower-confirmed WAL sequence per led slot (the quorum watermark).", confirmed),
		)
	}
	if len(repApplied) > 0 {
		fams = append(fams,
			gauge("itag_cluster_replica_applied_seq", "Replica's applied WAL sequence per followed slot.", repApplied),
			gauge("itag_cluster_replica_leader_seq", "Leader's applied sequence as of the last pull, per followed slot.", repLeader),
			gauge("itag_cluster_replica_lag", "Replication lag in records per followed slot (leader seq minus replica seq).", repLag),
			counter("itag_cluster_pulls_total", "Replication pull rounds per followed slot.", pulls),
			counter("itag_cluster_pull_bytes_total", "Replicated bytes ingested per followed slot.", pullBytes),
		)
	}
	if len(pullErrs) > 0 {
		fams = append(fams,
			counter("itag_cluster_pull_errors_total", "Replication pull failures by slot and error-taxonomy category.", pullErrs))
	}
	return append(fams, repCaches...)
}
