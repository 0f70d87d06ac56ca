package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestClusterClientHopCapOnRedirectLoop pins the bounded 421-follow loop:
// two misconfigured nodes that each point at the other would previously
// bounce the SDK forever. The route loop must stop at maxRouteHops and
// surface a RouteError wrapping the final not_owner reply.
func TestClusterClientHopCapOnRedirectLoop(t *testing.T) {
	ctx := context.Background()
	a, b := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	defer a.Close()
	defer b.Close()
	ring := RingInfo{Version: 1, VNodes: 4, Members: []RingMember{
		{Slot: "a", Addr: "http://" + a.Listener.Addr().String()}, {Slot: "b", Addr: "http://" + b.Listener.Addr().String()},
	}}
	mk := func(other string) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("/api/v1/cluster/ring", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(ring)
		})
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Itag-Owner", other)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			_, _ = w.Write([]byte(`{"error":{"code":"not_owner","message":"led elsewhere"}}`))
		})
		return mux
	}
	a.Config.Handler, b.Config.Handler = mk(ring.Members[1].Addr), mk(ring.Members[0].Addr)
	a.Start()
	b.Start()

	cc := NewCluster([]string{ring.Members[0].Addr}, nil)
	_, err := cc.GetProject(ctx, "proj-000001")
	var re *RouteError
	if !errors.As(err, &re) {
		t.Fatalf("redirect ping-pong returned %T (%v), want *RouteError", err, err)
	}
	if re.Hops != maxRouteHops {
		t.Errorf("RouteError.Hops = %d, want %d", re.Hops, maxRouteHops)
	}
	var ae *APIError
	if !errors.As(re.Last, &ae) || ae.Code != CodeNotOwner {
		t.Errorf("RouteError.Last = %v, want the final not_owner reply", re.Last)
	}
}

// TestClusterClientProbeCancelDoesNotWedgeBreaker pins the half-open
// recovery path: when the single admitted probe ends in a context
// cancellation or deadline — the common case when probing a hung node,
// since callers pass deadline contexts — the probe slot must be released.
// A leaked probing flag used to wedge allow() shut forever: every later
// call returned ErrNodeSuspect even after the node recovered, and only a
// process restart cleared it.
func TestClusterClientProbeCancelDoesNotWedgeBreaker(t *testing.T) {
	cc := NewCluster([]string{"http://x"}, nil)
	const addr = "http://x"

	// Open the circuit with failures stamped in the past so the cooldown
	// has already elapsed and the next allow() admits the half-open probe.
	past := time.Now().Add(-2 * clientBreakerCooldown)
	for i := 0; i < clientBreakerThreshold; i++ {
		cc.breakers.failure(addr, past)
	}

	// The admitted probe times out against the hung node.
	err := cc.call(addr, nil, func(*Client) error { return context.DeadlineExceeded })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe call returned %v, want DeadlineExceeded", err)
	}

	// The node recovers. The next call must be admitted (a fresh probe, or
	// a closed circuit) — not refused with ErrNodeSuspect forever.
	if err := cc.call(addr, nil, func(*Client) error { return nil }); err != nil {
		t.Fatalf("breaker wedged after a canceled probe: %v", err)
	}
	// And the successful probe closed the circuit fully.
	if err := cc.call(addr, nil, func(*Client) error { return nil }); err != nil {
		t.Fatalf("circuit not closed after a successful probe: %v", err)
	}
}

// TestClusterClientBreakerSkipsDeadNode pins the SDK-side circuit breaker:
// after repeated transport failures against a dead owner the client
// refuses further calls to it locally (ErrNodeSuspect) instead of burning
// timeouts, and once a survivor is promoted the next routed call lands on
// the new leader without ever re-dialing the dead address.
func TestClusterClientBreakerSkipsDeadNode(t *testing.T) {
	ctx := context.Background()
	cc, srvs, nodes := startTestCluster(t, []string{"alpha", "beta", "gamma"})
	slot, project, tagger := seedClusterProject(t, nodes)
	if err := cc.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	task, err := cc.RequestTask(ctx, project, tagger)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.SubmitTask(ctx, project, task.ID, []string{"go", "pre-kill"}); err != nil {
		t.Fatal(err)
	}

	// Let a survivor's replica absorb the full WAL, then kill the owner.
	var surv string
	for s := range nodes {
		if s != slot {
			surv = s
			break
		}
	}
	leaderSeq := nodes[slot].DB(slot).AppliedSeq()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rdb := nodes[surv].ReplicaDB(slot)
		if rdb != nil && rdb.AppliedSeq() >= leaderSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor replica never caught up to leader seq %d", leaderSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}
	srvs[slot].Config.Close()

	// Failures accumulate per dial; once the threshold is crossed the
	// breaker opens and the route fails locally with ErrNodeSuspect.
	sawSuspect := false
	for i := 0; i < 2*clientBreakerThreshold && !sawSuspect; i++ {
		_, err := cc.GetProject(ctx, project)
		if err == nil {
			t.Fatal("dead owner served a read")
		}
		sawSuspect = errors.Is(err, ErrNodeSuspect)
	}
	if !sawSuspect {
		t.Fatal("breaker never opened: calls kept dialing the dead node")
	}

	// Promote. The dead address stays dark and its breaker open: the next
	// routed call must refresh through the survivors and land on the new
	// leader without waiting out a transport timeout against the corpse.
	if err := nodes[surv].Promote(ctx, slot); err != nil {
		t.Fatal(err)
	}
	info, err := cc.GetProject(ctx, project)
	if err != nil {
		t.Fatalf("routed read after promotion: %v", err)
	}
	if info.Project.ID != project {
		t.Fatalf("GetProject = %+v", info)
	}
	if v := cc.Ring().Version; v < 2 {
		t.Fatalf("SDK did not adopt the promoted ring (version %d)", v)
	}
}
