package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/api"
	"itag/internal/errs"
	"itag/internal/ring"
	"itag/internal/store"
	"itag/internal/wire"
)

// The replication stream and the quorum ack gate.
//
// Every led slot runs one sender per follower node the ring names for it
// (ring.Followers(slot, Replicas)). A sender ships what lies past its
// follower's watermark to POST /api/v1/cluster/replicate: CRC-framed WAL
// records (store.ReplTail — the leader's tail window answers a follower that
// keeps up, the segment files one that does not), or, once compaction has
// swallowed that tail, the snapshot image as the stream's next frame. The
// follower validates the shipment whole, applies it through its Catalog,
// fsyncs, and answers its applied sequence. That answer is the stream's one
// watermark, and an ack always means "on that follower's disk".
//
// Everything else is this stream seen from somewhere. Async mode is the
// stream with nobody waiting on it. Quorum mode (Options.Quorum) holds each
// mutating ack until the first follower's watermark covers the request's
// sequence, bounded by Options.QuorumTimeout, after which the ack degrades to
// leader-only: counted in itag_cluster_quorum_degraded_total, logged, stamped
// X-Itag-Quorum: degraded. Catch-up is the stream from an older watermark. An
// idle stream sends an empty shipment every Options.PullInterval, which keeps
// the follower's lag gauge, its staleness breaker and ring-version gossip
// moving; it is also the tick every stream but the one a quorum ack waits on
// ships by. A stream opens, and resumes after any failure, with such an empty
// shipment: the reply says where the follower is, so neither a restarted
// follower nor a lost reply makes the leader guess. Failures back off on the
// capped jittered schedule, through the peer's circuit breaker.
//
// A follower takes shipments only from the node its own ring names as the
// slot's owner, at a ring version no older than its own. A deposed leader
// that has not heard of its demotion is answered 421 with the newer version,
// fetches that ring, and steps down.

// errPeerOpen is returned locally when a peer's circuit breaker refuses a
// call; the caller backs off without burning a timeout on a dead node.
var errPeerOpen = errors.New("cluster: peer circuit open")

// maxBodyBytes bounds a shipment's body. Snapshots carry whole-store state,
// and a frames shipment — though budgeted by PullBytes — legitimately exceeds
// the budget when a single record alone does (ReplTail always ships at least
// one). Reading less than the whole body would cut it mid-frame:
// ApplyReplicated would refuse the batch, the watermark would stay, and the
// identical next shipment would wedge the stream for good.
const maxBodyBytes = 1 << 30

// quorumWaiter parks one mutating request until the follower's watermark
// covers its sequence (or the gate times out and degrades).
type quorumWaiter struct {
	seq uint64
	ch  chan struct{}
}

// sender is the leader's end of one stream: one led slot's WAL, shipped to
// one follower node, and that follower's durable watermark.
type sender struct {
	slot   string
	addr   string // the follower node this stream feeds
	notify chan struct{}
	cancel context.CancelFunc
	done   chan struct{}

	// acked is the highest sequence the follower has answered as applied and
	// fsynced. It can regress if the follower loses its disk and resyncs.
	acked atomic.Uint64

	mu      sync.Mutex
	waiters []quorumWaiter

	ships     atomic.Uint64
	shipBytes atomic.Uint64
	errMu     sync.Mutex
	errCounts map[string]uint64 // failed shipments by error-taxonomy category

	// The rest belongs to the stream's goroutine.
	cursor   store.TailCursor
	synced   bool // the last shipment was answered: acked is where the follower is
	lastShip time.Time
}

// poke nudges the stream without blocking (it also ticks on the heartbeat
// interval, so a missed poke only costs latency, never progress). Only a
// quorum wait pokes, and only the stream it waits on: the other followers'
// streams, and every stream in async mode, ship on the tick — what the poll
// loop they replace did. Poking every stream on every write was measured on
// quorum_mixed at +16 % alloc_kb_per_op (142.6 → 165.4 KB; each shipment
// retires the second follower's cached pages per post instead of per beat),
// −6 % ops/s, +10 % p50.
func (s *sender) poke() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// advance moves the watermark and releases every waiter at or below it. A
// lower value than the current one is a follower resync (restart or
// divergence) and simply resets the watermark — the affected waiters stay
// parked until the follower re-confirms.
func (s *sender) advance(to uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.acked.Load()
	s.acked.Store(to)
	if to <= cur {
		return
	}
	kept := s.waiters[:0]
	for _, wtr := range s.waiters {
		if wtr.seq <= to {
			close(wtr.ch)
		} else {
			kept = append(kept, wtr)
		}
	}
	s.waiters = kept
}

// drop removes the waiter owning ch from s.waiters. Called on every
// non-confirmed exit from wait(); without it a prolonged follower outage
// with ongoing writes grows s.waiters by one entry (plus a channel) per
// degraded request until the follower catches back up. Losing the race
// with advance() — which closed the channel and already pruned the entry —
// is fine: the loop simply finds nothing.
func (s *sender) drop(ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, wtr := range s.waiters {
		if wtr.ch == ch {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// countErr books one failed shipment under its taxonomy category: the
// follower's refusal arrives as its envelope's code (refusal), a local
// failure carries its own, and anything else is the wire.
func (s *sender) countErr(err error) {
	cat := string(errs.CategoryOf(err))
	if cat == "" {
		cat = "transport"
	}
	s.errMu.Lock()
	if s.errCounts == nil {
		s.errCounts = make(map[string]uint64)
	}
	s.errCounts[cat]++
	s.errMu.Unlock()
}

// waitResult says how a quorum wait ended — the distinction matters
// because only a genuine confirmation timeout is evidence of follower
// trouble worth counting and degrading node health over.
type waitResult int

const (
	waitConfirmed waitResult = iota // the follower's watermark covers the sequence
	waitTimeout                     // QuorumTimeout elapsed uncovered
	waitCanceled                    // the request died (client disconnect)
	waitStopped                     // the stream stopped (demotion, ring change, shutdown)
)

// wait blocks until the follower's watermark covers seq, the timeout
// elapses, the request dies, or the stream stops, and reports which happened.
func (s *sender) wait(ctx context.Context, seq uint64, timeout time.Duration) waitResult {
	if s.acked.Load() >= seq {
		return waitConfirmed
	}
	s.poke()
	ch := make(chan struct{})
	s.mu.Lock()
	if s.acked.Load() >= seq {
		s.mu.Unlock()
		return waitConfirmed
	}
	s.waiters = append(s.waiters, quorumWaiter{seq: seq, ch: ch})
	s.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return waitConfirmed
	case <-t.C:
		s.drop(ch)
		return waitTimeout
	case <-ctx.Done():
		s.drop(ch)
		return waitCanceled
	case <-s.done:
		s.drop(ch)
		return waitStopped
	}
}

// syncSendersLocked reconciles every led slot's streams with the ring: one
// sender per follower node, in ring.Followers order, so the first is the one
// quorum acks wait on. A sender whose node is still a follower keeps running,
// and keeps its watermark, whatever else the ring change moved. Caller holds
// n.mu.
func (n *Node) syncSendersLocked() {
	for _, b := range n.leaders {
		var senders []*sender
		for _, f := range n.ring.Followers(b.slot, n.opts.Replicas) {
			addr := n.ring.Addr(f)
			if i := slices.IndexFunc(b.senders, func(s *sender) bool { return s.addr == addr }); i >= 0 {
				senders = append(senders, b.senders[i])
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			s := &sender{slot: b.slot, addr: addr, notify: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
			n.wg.Add(1)
			go n.stream(ctx, b, s)
			senders = append(senders, s)
		}
		for _, s := range b.senders {
			if !slices.Contains(senders, s) {
				s.cancel()
			}
		}
		b.senders = senders // a new slice: serveQuorum may still be reading the old one
	}
}

// stream drives one sender until it is cancelled (demotion, the follower
// leaving the ring's follower set, shutdown). A round that left the follower
// behind loops immediately (catch-up); otherwise the stream waits for a poke
// from the write path or the heartbeat tick; failing rounds back off on the
// capped jittered exponential schedule (ring.Backoff), so a dead or
// partitioned follower is probed ever more gently instead of being hammered
// at the heartbeat interval. The schedule resets once the watermark moves or
// the follower is caught up — an answered probe alone does not reset it, or a
// follower that refuses every real shipment would be retried at full rate.
func (n *Node) stream(ctx context.Context, b *backend, s *sender) {
	defer n.wg.Done()
	defer close(s.done)
	streak := 0
	for {
		before := s.acked.Load()
		err := n.ship(ctx, b, s)
		if ctx.Err() != nil {
			return
		}
		after := s.acked.Load()
		behind := after < b.db.AppliedSeq()
		switch {
		case err != nil:
			streak++
			if !errors.Is(err, errPeerOpen) {
				s.countErr(err)
				n.logger.Printf("cluster %s: ship %s to %s: %v", n.slot, s.slot, s.addr, err)
			}
		case after != before || !behind:
			streak = 0
		}
		if err == nil && behind {
			continue
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
		case <-s.notify:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// ship sends one shipment — the records past the follower's watermark, the
// snapshot image when those records are compacted away, or nothing at all (a
// probe when the watermark is not known, a heartbeat when it is and the
// interval has passed) — and moves the watermark to the follower's answer.
func (n *Node) ship(ctx context.Context, b *backend, s *sender) error {
	from, want := s.acked.Load(), b.db.AppliedSeq()
	var data []byte
	format := FormatFrames
	if s.synced && from < want {
		var err error
		data, _, err = b.db.ReplTail(from, n.opts.PullBytes, &s.cursor)
		if errors.Is(err, store.ErrSnapshotNeeded) {
			format = FormatSnapshot
			data, err = b.db.SnapshotExport()
		}
		if err != nil {
			return err
		}
	}
	if s.synced && len(data) == 0 && time.Since(s.lastShip) < n.opts.PullInterval {
		return nil // nothing past the watermark, no heartbeat due
	}
	s.synced, s.lastShip = false, time.Now()

	url := fmt.Sprintf("%s/api/v1/cluster/replicate?slot=%s&from=%d", s.addr, s.slot, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderFormat, format)
	req.Header.Set(HeaderAppliedSeq, strconv.FormatUint(want, 10))
	req.Header.Set(HeaderRingVersion, strconv.FormatUint(n.Ring().Version, 10))
	req.Header.Set(HeaderFrom, n.addr)
	resp, err := n.peerDo(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n.noteRingVersion(resp.Header.Get(HeaderRingVersion), s.addr)
	if resp.StatusCode != http.StatusOK {
		return refusal(s.addr, resp)
	}
	ack, err := readAck(resp.Body)
	if err != nil {
		return fmt.Errorf("follower %s: decode ack: %w", s.addr, err)
	}
	s.advance(ack.Applied)
	s.synced = true
	s.ships.Add(1)
	s.shipBytes.Add(uint64(len(data)))
	return nil
}

// replicateAck is a follower's answer to a shipment: its applied sequence,
// {"applied":N}.
type replicateAck struct {
	Applied uint64 `json:"applied"`
}

// AppendJSON never declines: the answer is one integer.
func (a replicateAck) AppendJSON(dst []byte) ([]byte, bool) {
	return append(strconv.AppendUint(append(dst, `{"applied":`...), a.Applied, 10), '}'), true
}

// ackKeys are the keys of a follower's answer.
var ackKeys = []string{"applied"}

func decodeAck(d *wire.Decoder, a *replicateAck) bool {
	return d.ObjectOf(ackKeys, func(key string) (uint, bool) {
		if key != "applied" {
			return 0, false
		}
		tok, ok := d.Value() // parsed as json.Unmarshal parses a uint64
		n, err := strconv.ParseUint(string(tok), 10, 64)
		a.Applied = n
		return 1, ok && err == nil
	})
}

// readAck reads a follower's answer to its end and decodes it: with the
// cursor when it is the object a follower writes, through json.Unmarshal
// otherwise. An answer is a few dozen bytes; a longer one is refused.
func readAck(body io.Reader) (replicateAck, error) {
	var ack replicateAck
	b := make([]byte, 64)
	n, err := io.ReadFull(body, b)
	switch {
	case err == nil:
		return ack, errors.New("answer longer than 64 bytes")
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return ack, err
	}
	b = b[:n]
	if d, ok := wire.Over(b); ok && decodeAck(&d, &ack) && d.End() {
		return ack, nil
	}
	var slow replicateAck
	err = json.Unmarshal(b, &slow)
	return slow, err
}

// refusal turns a follower's error reply into a taxonomy error carrying the
// category of the envelope's code, so a refused shipment is counted once, by
// the sender, under what the follower found wrong with it.
func refusal(addr string, resp *http.Response) error {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&env) // an unreadable body is still a refusal
	cat := api.CategoryOfCode(env.Error.Code)
	if cat == "" {
		cat = errs.CategoryInternal
	}
	return errs.New(errs.ComponentStore, cat, "follower %s refused the shipment: %s: %s", addr, resp.Status, env.Error.Message)
}

// handleReplicate is the follower's end of the stream: fence the sender,
// check that the shipment starts exactly at the local watermark, validate and
// apply it whole, fsync, and answer the applied sequence. A `from` that is
// not the local watermark is not an error — nothing is applied and the answer
// tells the sender where to resume (this follower restarted, or its last
// answer was lost). A shipment that fails validation is refused whole, the
// watermark stays, and the sender's next one resumes from it.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	slot, sender := q.Get("slot"), r.Header.Get(HeaderFrom)
	n.noteRingVersion(r.Header.Get(HeaderRingVersion), sender)
	n.mu.RLock()
	rep := n.replicas[slot]
	owner, version := n.ring.Addr(slot), n.ring.Version
	n.mu.RUnlock()
	w.Header().Set(HeaderRingVersion, strconv.FormatUint(version, 10))
	theirs, _ := strconv.ParseUint(r.Header.Get(HeaderRingVersion), 10, 64)
	refuse := func() {
		w.Header().Set(HeaderOwner, owner)
		n.kit.WriteError(w, r, api.Errorf(http.StatusMisdirectedRequest, api.CodeNotOwner,
			"slot %q takes shipments here only from its owner %s at ring v%d or later, not from %q at v%d",
			slot, owner, version, sender, theirs))
	}
	// The fence. Contiguous, well-formed frames are not enough: a deposed
	// leader that has not seen the new ring produces exactly those.
	if rep == nil || sender != owner || theirs < version {
		refuse()
		return
	}
	if seq, err := strconv.ParseUint(r.Header.Get(HeaderAppliedSeq), 10, 64); err == nil {
		rep.leaderSeq.Store(seq)
		rep.fed.Store(true)
	}
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		n.kit.WriteError(w, r, api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument, "bad from: %v", err))
		return
	}
	data, err := readShipment(r)
	if err != nil {
		n.kit.WriteError(w, r, api.Errorf(http.StatusBadRequest, api.CodeInvalidRequest, "read shipment: %v", err))
		return
	}
	rep.applying.Lock()
	defer rep.applying.Unlock()
	if rep.promoted { // here, while the body was read
		owner = n.addr
		refuse()
		return
	}
	if len(data) > 0 && from == rep.db.AppliedSeq() {
		switch format := r.Header.Get(HeaderFormat); format {
		case FormatFrames:
			_, err = rep.cat.ApplyReplicated(data)
		case FormatSnapshot:
			err = rep.cat.InstallSnapshot(data)
		default:
			err = api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument, "unknown replication format %q", format)
		}
		if err != nil {
			n.kit.WriteError(w, r, err)
			return
		}
	}
	api.WriteJSON(w, http.StatusOK, replicateAck{Applied: rep.db.AppliedSeq()})
}

// readShipment reads a shipment's body whole, up to maxBodyBytes: into one
// buffer of the length the request declares, and on as io.ReadAll would
// when the body turns out longer than declared. A body shorter than declared
// is what it is — the shipment's validation refuses it, as it refuses any
// torn shipment — and one of unknown length is io.ReadAll's.
func readShipment(r *http.Request) ([]byte, error) {
	body := io.LimitReader(r.Body, maxBodyBytes)
	n := r.ContentLength
	if n < 0 || n > maxBodyBytes {
		return io.ReadAll(body)
	}
	// One byte of room past the declared length tells a longer body from an
	// exact one without another allocation.
	buf := make([]byte, n, n+1)
	got, err := io.ReadFull(body, buf)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return buf[:got], nil
	case err != nil:
		return nil, err
	}
	switch m, err := io.ReadFull(body, buf[n:n+1]); {
	case m == 0 && err == io.EOF:
		return buf, nil
	case err != nil:
		return nil, err
	}
	rest, err := io.ReadAll(body)
	return append(buf[:n+1], rest...), err
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

// The node-side breaker policy, in the stream's own time unit: three straight
// failures open a peer's circuit — already several heartbeats of evidence
// under the backoff schedule — and it stays open for eight heartbeat
// intervals (2s at the default 250ms).
const (
	breakerThreshold     = 3
	breakerCooldownBeats = 8
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
		if b.Failure(time.Now(), breakerThreshold, breakerCooldownBeats*n.opts.PullInterval) {
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
// the ack until the first follower's watermark covers the write or the
// quorum timeout degrades it to a leader-only ack. A slot with no follower (a
// ring of one node) has a quorum of one: the leader's own fsync is the whole
// cluster's durability.
func (n *Node) serveQuorum(b *backend, w http.ResponseWriter, r *http.Request) {
	br := &bufResponse{header: make(http.Header)}
	b.srv.ServeHTTP(br, r)
	n.mu.RLock()
	senders := b.senders
	n.mu.RUnlock()
	state := QuorumOK
	if br.code >= 200 && br.code < 300 && len(senders) > 0 {
		// The watermark is read after the handler finished, so it covers
		// every record this request committed (and possibly later ones —
		// over-waiting is safe, under-waiting would be a lie).
		seq := b.db.AppliedSeq()
		switch senders[0].wait(r.Context(), seq, n.opts.QuorumTimeout) {
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
			n.logger.Printf("cluster %s: quorum degraded on %s: seq %d not on %s after %v (leader-only ack; the stream catches it up)",
				n.slot, b.slot, seq, senders[0].addr, n.opts.QuorumTimeout)
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
