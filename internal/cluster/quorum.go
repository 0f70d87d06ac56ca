package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/api"
	"itag/internal/ring"
	"itag/internal/store"
)

// The push half of replication and the quorum ack gate.
//
// In async mode (the PR 7 default) a write is acked once the leader's WAL
// has it; followers catch up by pulling. In quorum mode
// (Options.Quorum) every led slot additionally runs a pusher goroutine
// that streams WAL frames to the slot's first follower the moment the
// leader's watermark moves, and the router holds each mutating ack until
// the follower has confirmed the write is fsynced on its disk. The hold is
// bounded by Options.QuorumTimeout: when the follower is slow, dead, or
// partitioned away, the ack degrades to leader-only — counted in
// itag_cluster_quorum_degraded_total, logged, stamped on the response as
// X-Itag-Quorum: degraded — and the follower catches back up through the
// ordinary pull path. The pull and push paths may race on a replica;
// ApplyReplicated's all-or-nothing contiguity check makes the race benign
// (the loser re-reads the watermark and resumes from it).

// errPeerOpen is returned locally when a peer's circuit breaker refuses a
// call; the caller backs off without burning a timeout on a dead node.
var errPeerOpen = errors.New("cluster: peer circuit open")

// quorumWaiter parks one mutating request until the follower confirms its
// sequence (or the gate times out and degrades).
type quorumWaiter struct {
	seq uint64
	ch  chan struct{}
}

// pusher streams one led slot's WAL to its first follower and tracks the
// follower's fsynced watermark.
type pusher struct {
	slot   string
	notify chan struct{}
	cancel context.CancelFunc
	done   chan struct{}

	// confirmed is the highest sequence the follower has acknowledged as
	// fsynced. It can regress if the follower loses its disk and resyncs.
	confirmed atomic.Uint64

	mu      sync.Mutex
	waiters []quorumWaiter

	pushes    atomic.Uint64
	pushBytes atomic.Uint64
}

// poke nudges the push loop without blocking (the loop also ticks on the
// pull interval, so a missed poke only costs latency, never progress).
func (p *pusher) poke() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// advance moves the confirmed watermark and releases every waiter at or
// below it. A lower value than the current one is a follower resync
// (restart or divergence) and simply resets the watermark — the affected
// waiters stay parked until the follower re-confirms.
func (p *pusher) advance(to uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.confirmed.Load()
	p.confirmed.Store(to)
	if to <= cur {
		return
	}
	kept := p.waiters[:0]
	for _, wtr := range p.waiters {
		if wtr.seq <= to {
			close(wtr.ch)
		} else {
			kept = append(kept, wtr)
		}
	}
	p.waiters = kept
}

// drop removes the waiter owning ch from p.waiters. Called on every
// non-confirmed exit from wait(); without it a prolonged follower outage
// with ongoing writes grows p.waiters by one entry (plus a channel) per
// degraded request until the follower catches back up. Losing the race
// with advance() — which closed the channel and already pruned the entry —
// is fine: the loop simply finds nothing.
func (p *pusher) drop(ch chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, wtr := range p.waiters {
		if wtr.ch == ch {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return
		}
	}
}

// waitResult says how a quorum wait ended — the distinction matters
// because only a genuine confirmation timeout is evidence of follower
// trouble worth counting and degrading node health over.
type waitResult int

const (
	waitConfirmed waitResult = iota // follower fsync confirmed the sequence
	waitTimeout                     // QuorumTimeout elapsed unconfirmed
	waitCanceled                    // the request died (client disconnect)
	waitStopped                     // the pusher stopped (demotion/shutdown)
)

// wait blocks until the follower confirms seq, the timeout elapses, the
// request dies, or the pusher stops, and reports which happened.
func (p *pusher) wait(ctx context.Context, seq uint64, timeout time.Duration) waitResult {
	if p.confirmed.Load() >= seq {
		return waitConfirmed
	}
	p.poke()
	ch := make(chan struct{})
	p.mu.Lock()
	if p.confirmed.Load() >= seq {
		p.mu.Unlock()
		return waitConfirmed
	}
	p.waiters = append(p.waiters, quorumWaiter{seq: seq, ch: ch})
	p.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return waitConfirmed
	case <-t.C:
		p.drop(ch)
		return waitTimeout
	case <-ctx.Done():
		p.drop(ch)
		return waitCanceled
	case <-p.done:
		p.drop(ch)
		return waitStopped
	}
}

// startPusherLocked attaches a pusher to a led backend. Caller holds n.mu.
func (n *Node) startPusherLocked(b *backend) {
	if !n.opts.Quorum || b.push != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &pusher{
		slot:   b.slot,
		notify: make(chan struct{}, 1),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	b.push = p
	n.wg.Add(1)
	go n.pushLoop(ctx, b, p)
}

// pushLoop drives one led slot's push replication until the backend is
// demoted or the node closes. Errors back off on the shared capped jittered
// schedule; progress loops immediately; idle rounds wait for a poke from
// the quorum gate or the pull-interval tick.
func (n *Node) pushLoop(ctx context.Context, b *backend, p *pusher) {
	defer n.wg.Done()
	defer close(p.done)
	streak := 0
	for {
		progressed, err := n.pushOnce(ctx, b, p)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			streak++
			if !errors.Is(err, errPeerOpen) {
				n.logger.Printf("cluster %s: push %s: %v", n.slot, b.slot, err)
			}
		} else {
			streak = 0
			if progressed {
				continue
			}
		}
		wait := n.opts.PullInterval
		if streak > 0 {
			wait = ring.Jitter(ring.Backoff(n.opts.PullInterval, n.opts.PullMaxBackoff, streak-1))
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-p.notify:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// pushOnce ships one batch of WAL frames past the confirmed watermark to
// the slot's first follower and advances the watermark from its reply. It
// reports whether the watermark moved.
func (n *Node) pushOnce(ctx context.Context, b *backend, p *pusher) (bool, error) {
	n.mu.RLock()
	ring := n.ring
	n.mu.RUnlock()
	var target string
	for _, f := range ring.Followers(p.slot, n.opts.Replicas) {
		if a := ring.Addr(f); a != "" && a != n.addr {
			target = a
			break
		}
	}
	want := b.db.AppliedSeq()
	if target == "" {
		// A ring with no distinct follower (single node) has a quorum of
		// one: the leader's own fsync is the whole cluster's durability.
		p.advance(want)
		return false, nil
	}
	from := p.confirmed.Load()
	if from >= want {
		return false, nil
	}

	data, _, err := b.db.ReplTail(from, n.opts.PullBytes)
	if errors.Is(err, store.ErrSnapshotNeeded) {
		// The follower is behind a compaction cut; the pull path installs
		// snapshots. Push an empty probe so the watermark tracks its
		// progress and quorum resumes the moment frames reconnect.
		data = nil
	} else if err != nil {
		return false, err
	}

	url := fmt.Sprintf("%s/api/v1/cluster/replicate?slot=%s&from=%d", target, p.slot, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderAppliedSeq, strconv.FormatUint(want, 10))
	req.Header.Set(HeaderRingVersion, strconv.FormatUint(ring.Version, 10))
	req.Header.Set(HeaderFrom, n.addr)
	resp, err := n.peerDo(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("follower %s: %s: %s", target, resp.Status, body)
	}
	var ack struct {
		Applied uint64 `json:"applied"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ack); err != nil {
		return false, fmt.Errorf("follower %s: decode ack: %w", target, err)
	}
	p.advance(ack.Applied)
	p.pushes.Add(1)
	p.pushBytes.Add(uint64(len(data)))
	return ack.Applied > from, nil
}

// handleReplicate is the follower half of push replication: verify the
// frames start exactly at the local watermark, apply them, fsync, and
// reply with the (possibly unchanged) applied sequence. A mismatched
// `from` is not an error — the reply tells the leader where to resume, so
// push and pull can interleave freely on the same replica.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	slot := r.URL.Query().Get("slot")
	n.mu.RLock()
	rep := n.replicas[slot]
	ownerAddr := n.ring.Addr(slot)
	n.mu.RUnlock()
	if rep == nil {
		w.Header().Set(HeaderOwner, ownerAddr)
		n.kit.WriteError(w, r, api.Errorf(http.StatusMisdirectedRequest, api.CodeNotOwner,
			"slot %q is not followed here", slot))
		return
	}
	n.noteRingVersion(r.Header.Get(HeaderRingVersion), r.Header.Get(HeaderFrom))
	if seq, err := strconv.ParseUint(r.Header.Get(HeaderAppliedSeq), 10, 64); err == nil {
		rep.leaderSeq.Store(seq)
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil && r.URL.Query().Get("from") != "" {
		n.kit.WriteError(w, r, api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument, "bad from: %v", err))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		n.kit.WriteError(w, r, api.Errorf(http.StatusBadRequest, api.CodeInvalidRequest, "read frames: %v", err))
		return
	}

	if applied := rep.db.AppliedSeq(); len(data) > 0 && from == applied {
		if _, aerr := rep.cat.ApplyReplicated(data); aerr != nil {
			// A concurrent pull may have applied the same frames between
			// our watermark read and the apply; if the watermark moved the
			// shipment merely lost the race and the reply resyncs the
			// leader. A failure at an unmoved watermark is real.
			if rep.db.AppliedSeq() == applied {
				rep.countErr(aerr)
				n.kit.WriteError(w, r, aerr)
				return
			}
		} else {
			rep.pushed.Add(1)
			rep.pushedBytes.Add(uint64(len(data)))
		}
	}
	// The whole point of quorum mode: confirm nothing that is not on
	// stable storage here. The replica store runs without per-record
	// fsync, so the barrier is explicit.
	if err := rep.db.Sync(); err != nil {
		rep.countErr(err)
		n.kit.WriteError(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"applied": rep.db.AppliedSeq()})
}

// noteRingVersion triggers an async ring fetch when a peer advertises a
// newer ring than ours — the anti-entropy path that lets an isolated
// ex-leader discover it was deposed once the partition heals.
func (n *Node) noteRingVersion(versionHeader, fromAddr string) {
	if versionHeader == "" || fromAddr == "" {
		return
	}
	v, err := strconv.ParseUint(versionHeader, 10, 64)
	if err != nil {
		return
	}
	n.mu.RLock()
	stale := v > n.ring.Version && !n.closed
	n.mu.RUnlock()
	if !stale || !n.ringFetch.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.ringFetch.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fromAddr+"/api/v1/cluster/ring", nil)
		if err != nil {
			return
		}
		resp, err := n.httpc.Do(req)
		if err != nil {
			n.logger.Printf("cluster %s: fetch ring from %s: %v", n.slot, fromAddr, err)
			return
		}
		defer resp.Body.Close()
		var ring Ring
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ring); err != nil {
			return
		}
		if ring.Validate() == nil {
			n.installRing(&ring)
		}
	}()
}

// breakerThreshold and breakerCooldown are the node-side breaker policy:
// three straight failures is already several seconds of evidence under the
// pull/push retry cadence.
const (
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
)

// peerDo performs one inter-node call through the target's circuit
// breaker: an open circuit refuses the call locally, transport failures
// count toward opening it, and any HTTP response (even an error status)
// proves the peer alive and closes it.
func (n *Node) peerDo(req *http.Request) (*http.Response, error) {
	b := n.peers.Get(req.URL.Host)
	now := time.Now()
	if !b.Allow(now) {
		return nil, errPeerOpen
	}
	resp, err := n.httpc.Do(req)
	if err != nil {
		if b.Failure(time.Now(), breakerThreshold, breakerCooldown) {
			n.logger.Printf("cluster %s: circuit open for peer %s: %v", n.slot, req.URL.Host, err)
		}
		return nil, err
	}
	b.Success()
	return resp, nil
}

// --- quorum ack gate -------------------------------------------------------------

// bufResponse buffers a backend response so the ack can be withheld until
// the follower confirms. Mutating routes never stream, so buffering is
// safe (SSE is GET and bypasses the gate).
type bufResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufResponse) Header() http.Header { return b.header }

func (b *bufResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

func mutating(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	}
	return true
}

// serveQuorum runs one mutating request against the led backend and holds
// the ack until the write is confirmed on the follower's disk or the
// quorum timeout degrades it to a leader-only ack.
func (n *Node) serveQuorum(b *backend, w http.ResponseWriter, r *http.Request) {
	br := &bufResponse{header: make(http.Header)}
	b.srv.ServeHTTP(br, r)
	state := QuorumOK
	if br.code >= 200 && br.code < 300 && b.push != nil {
		// The watermark is read after the handler finished, so it covers
		// every record this request committed (and possibly later ones —
		// over-waiting is safe, under-waiting would be a lie).
		seq := b.db.AppliedSeq()
		switch b.push.wait(r.Context(), seq, n.opts.QuorumTimeout) {
		case waitConfirmed:
		case waitCanceled:
			// The client hung up before the follower confirmed. The ack is
			// headed nowhere and the write may well confirm milliseconds
			// later — stamping it degraded is honest, but it is not evidence
			// of follower trouble, so it must not count toward the degrade
			// metric or flip node health (noisy clients would otherwise keep
			// a healthy node reporting degraded).
			state = QuorumDegraded
		default: // waitTimeout, waitStopped
			state = QuorumDegraded
			n.quorumDegraded.Add(1)
			n.lastDegraded.Store(time.Now().UnixNano())
			n.logger.Printf("cluster %s: quorum degraded on %s: seq %d unconfirmed after %v (leader-only ack; pull path catches up)",
				n.slot, b.slot, seq, n.opts.QuorumTimeout)
		}
	}
	hdr := w.Header()
	for k, vs := range br.header {
		hdr[k] = vs
	}
	hdr.Set(HeaderQuorum, state)
	if br.code == 0 {
		br.code = http.StatusOK
	}
	w.WriteHeader(br.code)
	_, _ = w.Write(br.body.Bytes())
}
