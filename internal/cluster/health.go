package cluster

import (
	"net/http"
	"strings"
	"time"

	"itag/internal/api"
)

// Node health states, the degradation ladder surfaced on /api/v1/healthz
// and as the itag_cluster_health_state gauge. The ladder is monotone in
// severity: healthy (full service), degraded (serving, but quorum recently
// fell back to leader-only acks, a peer's circuit is open, or a replica
// tripped its staleness breaker), isolated (every peer's circuit is open —
// this node cannot reach the rest of the cluster and load balancers should
// route around it).
const (
	HealthHealthy  = "healthy"
	HealthDegraded = "degraded"
	HealthIsolated = "isolated"
)

// degradeWindow is how long a quorum degrade keeps the node in the
// degraded state: long enough for scrapers and balancers to observe it,
// short enough that a recovered node reads healthy again promptly.
const degradeWindow = 5 * time.Second

// healthValue maps a state to its gauge encoding.
func healthValue(state string) float64 {
	switch state {
	case HealthDegraded:
		return 1
	case HealthIsolated:
		return 2
	}
	return 0
}

// Health classifies the node on the degradation ladder.
func (n *Node) Health() string {
	now := time.Now()
	n.mu.RLock()
	peerAddrs := make(map[string]bool)
	for _, m := range n.ring.Members {
		if m.Addr != n.addr {
			peerAddrs[hostOf(m.Addr)] = true
		}
	}
	staleReplica := false
	for _, rep := range n.replicas {
		if rep.stale.Load() {
			staleReplica = true
			break
		}
	}
	n.mu.RUnlock()

	anyOpen, allOpen := false, len(peerAddrs) > 0
	for host := range peerAddrs {
		// Peek, not Get: a scrape must not allocate breakers for peers this
		// node never contacted. A missing breaker is a closed circuit.
		if b := n.peers.Peek(host); b != nil && b.Open(now) {
			anyOpen = true
		} else {
			allOpen = false
		}
	}
	switch {
	case allOpen && len(peerAddrs) > 0:
		return HealthIsolated
	case anyOpen, staleReplica:
		return HealthDegraded
	}
	if last := n.lastDegraded.Load(); last != 0 && now.Sub(time.Unix(0, last)) < degradeWindow {
		return HealthDegraded
	}
	return HealthHealthy
}

// hostOf strips the scheme from an address so it matches the breaker keys
// (peerDo keys by URL.Host).
func hostOf(addr string) string {
	if _, host, ok := strings.Cut(addr, "://"); ok {
		return host
	}
	return addr
}

// handleHealthz is the node-level liveness/readiness probe. Healthy and
// degraded nodes answer 200 (degraded is visible in the body and in
// Prometheus, but the node is serving); an isolated node answers a fast
// 503 with Retry-After so balancers take it out of rotation without
// waiting for timeouts.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := n.Health()
	if state == HealthIsolated {
		w.Header().Set("Retry-After", "1")
		n.kit.WriteError(w, r, api.Errorf(http.StatusServiceUnavailable, api.CodeUnavailable,
			"node %s is isolated from its peers", n.slot))
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"health":       state,
		"slot":         n.slot,
		"ring_version": n.Ring().Version,
	})
}
