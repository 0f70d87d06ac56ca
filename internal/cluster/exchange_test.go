package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"itag/internal/store"
)

// TestFollowerKeepsNothingOfAFrame: a follower reads every frame of an
// exchange into one buffer it reuses, which is safe only while the store
// keeps nothing of a shipment it has applied. Here the buffer is overwritten
// with garbage after every apply, and the follower must still read back
// every table exactly as the leader's store reads it: its snapshot image,
// every key and value of every table, is the leader's byte for byte, and so
// is a follower read of the project's export.
func TestFollowerKeepsNothingOfAFrame(t *testing.T) {
	tr := NewNetwork()
	t.Cleanup(tr.Close) // after every node's Close
	ring, err := NewRing([]Member{{Slot: "alpha", Addr: "http://alpha"}, {Slot: "beta", Addr: "http://beta"}})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, tr: tr, nodes: make(map[string]*Node), httpc: tr.Client()}
	var scribbled atomic.Int64
	for _, slot := range []string{"alpha", "beta"} {
		n, err := New(Options{Slot: slot, Ring: ring.Clone(), Dir: t.TempDir(), Store: store.Options{SegmentBytes: 4096},
			Seed: 7, Replicas: 1, PullInterval: 5 * time.Millisecond, HTTPClient: tr.Client()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		// Set before the node is on the network: no exchange reads it yet.
		n.frameApplied = func(frame []byte) {
			for i := range frame {
				frame[i] = "}\n\"x{"[i%5]
			}
			if len(frame) > 0 {
				scribbled.Add(1)
			}
		}
		tc.nodes[slot] = n
	}
	for slot, n := range tc.nodes {
		tr.Register(slot, n.Handler())
	}
	slot, project, tagger := tc.seedProject(6)
	follower := "alpha"
	if slot == follower {
		follower = "beta"
	}
	owner := "http://" + slot + "/api/v1/projects/" + project
	for i := 0; i < 12; i++ {
		var task store.TaskRec
		if _, err := tc.do(http.MethodPost, owner+"/tasks", map[string]string{"tagger_id": tagger}, &task); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.do(http.MethodPost, owner+"/tasks/"+task.ID+"/submit",
			map[string][]string{"tags": {"go", fmt.Sprintf("tag-%d", i)}}, nil); err != nil {
			t.Fatal(err)
		}
		tc.waitCaughtUp(slot) // a frame per post, each read into the scribbled buffer
	}

	leader, replica := tc.nodes[slot].DB(slot), tc.nodes[follower].ReplicaDB(slot)
	want, err := leader.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.SnapshotExport()
	if err != nil {
		t.Fatal(err)
	}
	if scribbled.Load() == 0 {
		t.Fatal("no frame buffer was scribbled over: the follower took no shipment")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after %d scribbled frames the follower's tables differ from the leader's:\nfollower %.300q\n  leader %.300q", scribbled.Load(), got, want)
	}
	_, wantExport := tc.get(owner + "/export")
	resp, gotExport := tc.get("http://"+follower+"/api/v1/projects/"+project+"/export", HeaderRead, ReadFollower)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(gotExport, wantExport) {
		t.Fatalf("the follower's export (%d) differs from the leader's:\nfollower %s\n  leader %s", resp.StatusCode, gotExport, wantExport)
	}
}

// TestExchangeOverLoopback runs a leader and its follower on real HTTP
// servers over loopback TCP, and cuts the follower's connections while the
// leader writes, mid-exchange. Every cut breaks the exchange, the sender
// reopens it, and the follower catches up with no gap and no double apply:
// its log is the leader's, byte for byte.
func TestExchangeOverLoopback(t *testing.T) {
	servers := map[string]*httptest.Server{}
	nodes := map[string]*Node{}
	var members []Member
	for _, slot := range []string{"alpha", "beta"} {
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			nodes[slot].Handler().ServeHTTP(w, r)
		}))
		servers[slot] = srv
		members = append(members, Member{Slot: slot, Addr: "http://" + srv.Listener.Addr().String()})
	}
	ring, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []string{"alpha", "beta"} {
		n, err := New(Options{Slot: slot, Ring: ring.Clone(), Dir: t.TempDir(), Store: store.Options{SegmentBytes: 4096},
			Seed: 7, Replicas: 1, PullInterval: 5 * time.Millisecond, PullMaxBackoff: 20 * time.Millisecond,
			HTTPClient: &http.Client{Transport: &http.Transport{}}})
		if err != nil {
			t.Fatal(err)
		}
		nodes[slot] = n
	}
	for _, slot := range []string{"alpha", "beta"} {
		servers[slot].Start()
		t.Cleanup(servers[slot].Close)
		t.Cleanup(func() { _ = nodes[slot].Close() })
	}

	leader, replica := nodes["alpha"].DB("alpha"), nodes["beta"].ReplicaDB("alpha")
	svc := nodes["alpha"].Service("alpha")
	caughtUp := func() bool { return replica.AppliedSeq() == leader.AppliedSeq() }
	for round := 0; round < 8; round++ {
		for i := 0; i < 10; i++ {
			if _, err := svc.RegisterTagger(context.Background(), fmt.Sprintf("t-%d-%d", round, i)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond) // the stream ships on its 5 ms tick meanwhile
		}
		servers["beta"].CloseClientConnections() // the leader's exchange into beta, mid-stream
	}
	waitFor(t, 10*time.Second, "the follower to catch up over loopback", caughtUp)

	want, last, err := leader.ReplTail(0, 1<<30, nil)
	if err != nil || last != leader.AppliedSeq() {
		t.Fatalf("the leader's log to %d, %v; want to %d", last, err, leader.AppliedSeq())
	}
	got, _, err := replica.ReplTail(0, 1<<30, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the follower's log (%d bytes, %v) is not the leader's (%d bytes)", len(got), err, len(want))
	}
	nodes["alpha"].mu.RLock()
	s := nodes["alpha"].leaders["alpha"].senders[0]
	nodes["alpha"].mu.RUnlock()
	s.errMu.Lock()
	breaks := s.errCounts["transport"]
	s.errMu.Unlock()
	if breaks == 0 {
		t.Fatal("no exchange broke: the connections were cut between shipments only, or not at all")
	}
	t.Logf("%d exchanges broken by the cuts; %d shipments", breaks, s.ships.Load())
}

// TestOpeningsEnd: an exchange's body never ends on its own, and net/http
// returns from a request only once it stops reading the body. A refused
// opening is answered at once, with no drain of the body first, and one
// whose connection breaks before any answer ends with its context.
func TestOpeningsEnd(t *testing.T) {
	tr := NewNetwork()
	defer tr.Close()
	ring, err := NewRing([]Member{{Slot: "alpha", Addr: "http://alpha"}, {Slot: "beta", Addr: "http://beta"}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Options{Slot: "beta", Ring: ring, Dir: t.TempDir(), Replicas: 1, PullInterval: time.Hour,
		PullMaxBackoff: time.Hour, HTTPClient: tr.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	tr.Register("beta", n.Handler())
	tr.Register("mute", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		tr.Register("mute", nil) // it dies before it answers
	}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var refused *Refusal
	if _, err := OpenExchange(ctx, tr, "http://beta", "alpha", "http://impostor", ring.Version); !errors.As(err, &refused) || refused.Status != http.StatusMisdirectedRequest {
		t.Fatalf("an opening from a non-owner: %v; want a 421 refusal", err)
	}
	if _, err := OpenExchange(ctx, tr, "http://mute", "alpha", "http://impostor", ring.Version); err == nil || errors.As(err, &refused) {
		t.Fatalf("an opening whose connection broke before any answer: %v; want a transport error", err)
	}
}
