package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/api"
	"itag/internal/errs"
	"itag/internal/ring"
	"itag/internal/store"
)

// The replication stream and the quorum ack gate.
//
// Every led slot runs one sender per follower node the ring names for it
// (ring.Followers(slot, Replicas)). A sender holds one long-lived, full-duplex
// exchange with its follower: a POST /api/v1/cluster/replicate whose request
// body is a sequence of shipment frames and whose response body is a sequence
// of replies, one per frame. The opening request names the slot, the sender's
// address and its ring version once; every frame carries a fixed header (the
// payload's format, the watermark it starts after, the leader's applied
// sequence, its ring version, the payload's length) and the payload:
// CRC-framed WAL records (store.ReplTail — the leader's tail window answers a
// follower that keeps up, the segment files one that does not), or, once
// compaction has swallowed that tail, the snapshot image. The follower
// validates the shipment whole, applies it through its Catalog, fsyncs, and
// replies with an ack holding its applied sequence and its ring version. That
// ack is the stream's one watermark, and it always means "on that follower's
// disk". A shipment costs one frame written and one ack read, not an HTTP
// request.
//
// Everything else is this stream seen from somewhere. Async mode is the
// stream with nobody waiting on it. Quorum mode (Options.Quorum) holds each
// mutating ack until the first follower's watermark covers the request's
// sequence, bounded by Options.QuorumTimeout, after which the ack degrades to
// leader-only: counted in itag_cluster_quorum_degraded_total, logged, stamped
// X-Itag-Quorum: degraded. Catch-up is the stream from an older watermark. An
// idle stream sends an empty frame every Options.PullInterval, which keeps
// the follower's lag gauge, its staleness breaker and ring-version gossip
// moving; it is also the tick every stream but the one a quorum ack waits on
// ships by. A sender has one frame in flight at a time (stop-and-wait), so a
// snapshot install never overlaps a queued shipment.
//
// An exchange opens, and reopens after any failure, with an empty frame: its
// ack says where the follower is, so neither a restarted follower nor a lost
// ack makes the leader guess. A transport error, an ack that misses its
// deadline (ackTimeout) or a refusal ends the exchange; the sender closes it,
// the peer's circuit breaker counts a transport failure, and the stream
// reopens on the capped jittered backoff schedule.
//
// A follower takes shipments only from the node its own ring names as the
// slot's owner, at a ring version no older than its own: it fences the
// opening request, answering 421 before any frame, and fences every frame
// again, so a ring change mid-stream is seen at the next frame. A refusal is
// the exchange's last reply: a refusal head and the error envelope. A deposed
// leader that has not heard of its demotion is refused with the newer
// version, fetches that ring, and steps down.

// errPeerOpen is returned locally when a peer's circuit breaker refuses a
// call; the caller backs off without burning a timeout on a dead node.
var errPeerOpen = errors.New("cluster: peer circuit open")

// maxBodyBytes bounds a shipment's payload. Snapshots carry whole-store
// state, and a frames shipment — though budgeted by PullBytes — legitimately
// exceeds the budget when a single record alone does (ReplTail always ships
// at least one).
const maxBodyBytes = 1 << 30

// ackTimeout bounds each wait for a follower's reply, the exchange's opening
// included; a reply that misses it ends the exchange. http.Client.Timeout
// bounds nothing here: it would end a healthy exchange.
const ackTimeout = 30 * time.Second

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
	x        *Exchange // the open exchange, or nil
	cursor   store.TailCursor
	synced   bool // the last shipment was answered: acked is where the follower is
	lastShip time.Time
}

// closeExchange closes the sender's exchange, if one is open.
func (s *sender) closeExchange() {
	if s.x != nil {
		s.x.Close()
		s.x = nil
	}
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
	defer s.closeExchange()
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
// interval has passed) — on the sender's exchange, opening it first if it is
// not open, and moves the watermark to the follower's ack. A failed shipment
// closes the exchange.
func (n *Node) ship(ctx context.Context, b *backend, s *sender) error {
	from, want := s.acked.Load(), b.db.AppliedSeq()
	var data []byte
	var format byte = FormatFrames
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

	if s.x == nil {
		x, err := n.open(ctx, s)
		if err != nil {
			return err
		}
		s.x = x
	}
	ack, err := s.x.Ship(Shipment{Format: format, From: from, Applied: want, RingVersion: n.Ring().Version, Payload: data})
	n.noteRingVersion(ack.RingVersion, s.addr)
	if err != nil {
		s.closeExchange()
		if ctx.Err() == nil && !errors.As(err, new(*Refusal)) {
			n.peerFailed(hostOf(s.addr), err)
		}
		return err
	}
	s.advance(ack.Applied)
	s.synced = true
	s.ships.Add(1)
	s.shipBytes.Add(uint64(len(data)))
	return nil
}

// open opens the sender's exchange through its follower's circuit breaker:
// an open circuit refuses locally, a transport failure counts toward opening
// it, and any answer — a refusal too — proves the peer alive and closes it.
func (n *Node) open(ctx context.Context, s *sender) (*Exchange, error) {
	b := n.peers.Get(hostOf(s.addr))
	if !b.Allow(time.Now()) {
		return nil, errPeerOpen
	}
	rt := n.httpc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	x, err := OpenExchange(ctx, rt, s.addr, s.slot, n.addr, n.Ring().Version)
	var refused *Refusal
	switch {
	case errors.As(err, &refused):
		b.Success()
		n.noteRingVersion(refused.RingVersion, s.addr)
	case err != nil:
		n.peerFailed(hostOf(s.addr), err)
	default:
		b.Success()
	}
	return x, err
}

// peerFailed books one transport failure against the peer's breaker.
func (n *Node) peerFailed(host string, err error) {
	if n.peers.Get(host).Failure(time.Now(), breakerThreshold, breakerCooldownBeats*n.opts.PullInterval) {
		n.logger.Printf("cluster %s: circuit open for peer %s: %v", n.slot, host, err)
	}
}

// The wire form of an exchange. A frame is a header of frameHeaderLen bytes
// — the format byte, then the watermark the payload starts after, the
// leader's applied sequence, its ring version and the payload's length, each
// a big-endian uint64 — and the payload. A reply is replyLen bytes: an ack is
// replyAck, the follower's applied sequence and its ring version; a refusal
// is replyRefusal, the follower's ring version and the HTTP status the
// refusal carries, followed by the error envelope to the end of the response.
const (
	frameHeaderLen = 1 + 4*8
	replyLen       = 1 + 2*8

	// FormatFrames marks a payload of CRC-framed WAL records, FormatSnapshot
	// one that is a whole snapshot image.
	FormatFrames   = 'F'
	FormatSnapshot = 'S'

	replyAck     = 'A'
	replyRefusal = 'E'
)

// Shipment is one frame of an exchange.
type Shipment struct {
	Format      byte   // FormatFrames or FormatSnapshot
	From        uint64 // the follower watermark the payload starts after
	Applied     uint64 // the leader's applied sequence
	RingVersion uint64 // the leader's ring version
	Payload     []byte // empty for a probe or a heartbeat
}

// Ack is a follower's answer to a shipment.
type Ack struct {
	Applied     uint64 // the follower's applied sequence, on its disk
	RingVersion uint64 // the follower's ring version
}

// Refusal is a follower refusing an exchange or one shipment on it, as its
// error envelope says; it ends the exchange. It unwraps to a taxonomy error
// of the envelope code's category, so a refused shipment is counted once, by
// the sender, under what the follower found wrong with it.
type Refusal struct {
	Status      int    // 421 for a sender the follower does not take shipments from
	Code        string // the envelope's code
	RingVersion uint64 // the follower's ring version
	err         error
}

func (r *Refusal) Error() string { return r.err.Error() }
func (r *Refusal) Unwrap() error { return r.err }

// readRefusal decodes a refusal's error envelope from body.
func readRefusal(addr string, status int, ringVersion uint64, body io.Reader) *Refusal {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(body, 1<<16)).Decode(&env) // an unreadable body is still a refusal
	cat := api.CategoryOfCode(env.Error.Code)
	if cat == "" {
		cat = errs.CategoryInternal
	}
	return &Refusal{Status: status, Code: env.Error.Code, RingVersion: ringVersion,
		err: errs.New(errs.ComponentStore, cat, "follower %s refused the shipment: %d %s: %s",
			addr, status, http.StatusText(status), env.Error.Message)}
}

// Exchange is the leader's end of one open replicate exchange. It is not
// safe for concurrent use: one shipment is in flight at a time.
type Exchange struct {
	addr    string
	frames  *bufio.Writer // onto pw: a frame's header and payload leave in one write
	pw      *io.PipeWriter
	replies io.ReadCloser
	cancel  context.CancelFunc
	// timer bounds each wait for a reply; firing, it cancels the exchange.
	timer   *time.Timer
	expired atomic.Bool
	head    [frameHeaderLen]byte
	reply   [replyLen]byte
}

// OpenExchange opens a replicate exchange with the follower at addr for slot,
// in the name of the node at from holding ring version ringVersion, over rt.
// A follower that does not take shipments from that node refuses with a
// *Refusal before any frame. The exchange lives until Close, ctx's end, a
// transport failure, a refusal, or a reply that misses ackTimeout.
func OpenExchange(ctx context.Context, rt http.RoundTripper, addr, slot, from string, ringVersion uint64) (*Exchange, error) {
	ctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	x := &Exchange{addr: addr, pw: pw, cancel: cancel}
	x.timer = time.AfterFunc(ackTimeout, func() {
		x.expired.Store(true)
		cancel()
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/api/v1/cluster/replicate?slot="+url.QueryEscape(slot), pr)
	if err != nil {
		x.Close()
		return nil, err
	}
	req.ContentLength = -1
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderFrom, from)
	req.Header.Set(HeaderRingVersion, strconv.FormatUint(ringVersion, 10))
	resp, err := rt.RoundTrip(req)
	if err == nil && !x.timer.Stop() {
		resp.Body.Close()
		err = x.timeout()
	}
	if err != nil {
		x.Close()
		return nil, x.cause(err)
	}
	if resp.StatusCode != http.StatusOK {
		theirs, _ := strconv.ParseUint(resp.Header.Get(HeaderRingVersion), 10, 64)
		refused := readRefusal(addr, resp.StatusCode, theirs, resp.Body)
		resp.Body.Close()
		x.Close()
		return nil, refused
	}
	x.replies = resp.Body
	x.frames = bufio.NewWriterSize(pw, 4<<10)
	return x, nil
}

// Ship writes one frame and waits for its reply. A refusal comes back as a
// *Refusal with the follower's ring version in the Ack; after any error the
// exchange is done and only Close is left.
func (x *Exchange) Ship(sh Shipment) (Ack, error) {
	x.head[0] = sh.Format
	binary.BigEndian.PutUint64(x.head[1:], sh.From)
	binary.BigEndian.PutUint64(x.head[9:], sh.Applied)
	binary.BigEndian.PutUint64(x.head[17:], sh.RingVersion)
	binary.BigEndian.PutUint64(x.head[25:], uint64(len(sh.Payload)))
	x.timer.Reset(ackTimeout)
	_, werr := x.frames.Write(x.head[:])
	if werr == nil {
		_, werr = x.frames.Write(sh.Payload)
	}
	if werr == nil {
		werr = x.frames.Flush()
	}
	// Read the reply even when the write failed: a follower that refused
	// the frame before reading it whole has said why.
	ack, err := x.readReply()
	if !x.timer.Stop() && err == nil {
		err = x.timeout()
	}
	switch {
	case err != nil:
		return ack, x.cause(err)
	case werr != nil:
		return Ack{}, werr
	}
	return ack, nil
}

// readReply reads the reply to the frame just written.
func (x *Exchange) readReply() (Ack, error) {
	if _, err := io.ReadFull(x.replies, x.reply[:]); err != nil {
		return Ack{}, err
	}
	a, b := binary.BigEndian.Uint64(x.reply[1:]), binary.BigEndian.Uint64(x.reply[9:])
	switch x.reply[0] {
	case replyAck:
		return Ack{Applied: a, RingVersion: b}, nil
	case replyRefusal:
		return Ack{RingVersion: a}, readRefusal(x.addr, int(b), a, x.replies)
	}
	return Ack{}, fmt.Errorf("follower %s: reply of unknown kind %q", x.addr, x.reply[0])
}

func (x *Exchange) timeout() error {
	return fmt.Errorf("follower %s: no reply within %v", x.addr, ackTimeout)
}

// cause names a missed deadline for what it is, not the cancellation it
// caused.
func (x *Exchange) cause(err error) error {
	if x.expired.Load() {
		return x.timeout()
	}
	return err
}

// Close ends the exchange.
func (x *Exchange) Close() {
	x.timer.Stop()
	x.cancel()
	x.pw.CloseWithError(errExchangeClosed)
	if x.replies != nil {
		x.replies.Close()
	}
}

var errExchangeClosed = errors.New("cluster: replicate exchange closed")

// inbound is the follower's end of one exchange: the buffers it keeps.
type inbound struct {
	head  [frameHeaderLen]byte
	reply [replyLen]byte
	// frame holds one payload at a time. Reusing it is safe because the
	// store keeps nothing of a shipment it has applied: decoding copies every
	// key and value out of it (store.decodeRecord), and the WAL's write
	// buffer copies the raw bytes. One grown past keptPayloadBytes is dropped.
	frame []byte
}

// keptPayloadBytes bounds the frame buffer an exchange keeps. Steady frames
// are 0.5–5 KB; a catch-up or snapshot frame that grew it further is let go.
// Keeping buffers up to PullBytes (1 MiB) read +4.8 % peak RSS on
// quorum_mixed; 64 KiB reads below the per-request path's.
const keptPayloadBytes = 64 << 10

// handleReplicate is the follower's end of the stream. It fences the opening
// request, then takes frames until the leader closes the exchange, the
// exchange breaks, the request's context ends (the server shutting down) or
// a frame is refused. Each frame is fenced again, its payload read whole,
// checked to start exactly at the local watermark, validated and applied
// whole, fsynced, and acked with the applied sequence. A from that is not the
// local watermark is not an error — nothing is applied and the ack tells the
// sender where to resume (this follower restarted, or its last ack was lost).
// A shipment that fails validation is refused, the watermark stays, and the
// sender's next exchange resumes from it.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	slot, sender := r.URL.Query().Get("slot"), r.Header.Get(HeaderFrom)
	theirs, _ := strconv.ParseUint(r.Header.Get(HeaderRingVersion), 10, 64)
	n.noteRingVersion(theirs, sender)
	_, version, err := n.fence(slot, sender, theirs)
	w.Header().Set(HeaderRingVersion, strconv.FormatUint(version, 10))
	if err != nil {
		w.Header().Set(HeaderOwner, n.Ring().Addr(slot))
		n.kit.WriteError(w, r, err)
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex() // an HTTP/2 stream is full duplex already
	_ = rc.SetWriteDeadline(time.Time{})
	// A read waiting for the next frame ends with the request's context; on
	// the way out, the server must not wait to drain a body the leader keeps
	// open.
	stop := context.AfterFunc(r.Context(), func() { _ = rc.SetReadDeadline(time.Now()) })
	defer func() {
		stop()
		_ = rc.SetReadDeadline(time.Now())
	}()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}
	in := new(inbound)
	for n.takeFrame(w, r, rc, in, slot, sender) {
	}
}

// takeFrame reads, applies and answers one frame. It reports whether the
// exchange goes on.
func (n *Node) takeFrame(w http.ResponseWriter, r *http.Request, rc *http.ResponseController, in *inbound, slot, sender string) bool {
	if _, err := io.ReadFull(r.Body, in.head[:]); err != nil {
		return false // the leader closed the exchange, or it broke
	}
	sh := Shipment{
		Format:      in.head[0],
		From:        binary.BigEndian.Uint64(in.head[1:]),
		Applied:     binary.BigEndian.Uint64(in.head[9:]),
		RingVersion: binary.BigEndian.Uint64(in.head[17:]),
	}
	n.noteRingVersion(sh.RingVersion, sender)
	rep, version, err := n.fence(slot, sender, sh.RingVersion)
	if err == nil {
		if size := binary.BigEndian.Uint64(in.head[25:]); size > maxBodyBytes {
			err = api.Errorf(http.StatusBadRequest, api.CodeInvalidRequest, "a shipment of %d bytes is over the %d-byte bound", size, maxBodyBytes)
		} else {
			in.frame = slices.Grow(in.frame[:0], int(size))[:size]
		}
	}
	if err != nil {
		n.refuse(w, r, rc, version, err)
		return false
	}
	rep.leaderSeq.Store(sh.Applied)
	rep.fed.Store(true)
	if _, err := io.ReadFull(r.Body, in.frame); err != nil {
		return false
	}
	sh.Payload = in.frame
	applied, err := n.apply(rep, slot, sender, sh)
	if n.frameApplied != nil {
		n.frameApplied(in.frame)
	}
	if cap(in.frame) > keptPayloadBytes {
		in.frame = nil
	}
	if err != nil {
		n.refuse(w, r, rc, version, err)
		return false
	}
	in.reply[0] = replyAck
	binary.BigEndian.PutUint64(in.reply[1:], applied)
	binary.BigEndian.PutUint64(in.reply[9:], version)
	if _, err := w.Write(in.reply[:]); err != nil {
		return false
	}
	return rc.Flush() == nil
}

// fence is the check an exchange's opening and every frame pass: the slot
// is followed here, the sender is the node this node's ring names as its
// owner, and the sender's ring is no older than this node's. Contiguous,
// well-formed frames are not enough: a deposed leader that has not seen the
// new ring produces exactly those. It returns the replica and this node's
// ring version.
func (n *Node) fence(slot, sender string, theirs uint64) (*replica, uint64, error) {
	n.mu.RLock()
	rep := n.replicas[slot]
	owner, version := n.ring.Addr(slot), n.ring.Version
	n.mu.RUnlock()
	if rep == nil || sender != owner || theirs < version {
		return nil, version, notOwner(slot, owner, version, sender, theirs)
	}
	return rep, version, nil
}

func notOwner(slot, owner string, version uint64, sender string, theirs uint64) error {
	return api.Errorf(http.StatusMisdirectedRequest, api.CodeNotOwner,
		"slot %q takes shipments here only from its owner %s at ring v%d or later, not from %q at v%d",
		slot, owner, version, sender, theirs)
}

// apply applies a shipment that starts at the replica's watermark and
// returns the watermark after it. It holds rep.applying, which Promote takes
// to set promoted: a shipment that passed the fence lands before the role
// change or is refused after it, never in a leading stack.
func (n *Node) apply(rep *replica, slot, sender string, sh Shipment) (uint64, error) {
	rep.applying.Lock()
	defer rep.applying.Unlock()
	if rep.promoted { // here, while the payload was read
		return 0, notOwner(slot, n.addr, n.Ring().Version, sender, sh.RingVersion)
	}
	if len(sh.Payload) > 0 && sh.From == rep.db.AppliedSeq() {
		var err error
		switch sh.Format {
		case FormatFrames:
			_, err = rep.cat.ApplyReplicated(sh.Payload)
		case FormatSnapshot:
			err = rep.cat.InstallSnapshot(sh.Payload)
		default:
			err = api.Errorf(http.StatusBadRequest, api.CodeInvalidArgument, "unknown replication format %q", sh.Format)
		}
		if err != nil {
			return 0, err
		}
	}
	return rep.db.AppliedSeq(), nil
}

// refuse writes err as the exchange's last reply: the refusal head, then the
// error envelope the kit writes for it (caught in a bufResponse).
func (n *Node) refuse(w http.ResponseWriter, r *http.Request, rc *http.ResponseController, version uint64, err error) {
	env := &bufResponse{header: make(http.Header)}
	n.kit.WriteError(env, r, err)
	var head [replyLen]byte
	head[0] = replyRefusal
	binary.BigEndian.PutUint64(head[1:], version)
	binary.BigEndian.PutUint64(head[9:], uint64(env.code))
	if _, err := w.Write(head[:]); err == nil {
		_, _ = w.Write(env.body.Bytes())
	}
	_ = rc.Flush()
}

// noteRingVersion triggers an async ring fetch when a peer advertises a
// newer ring than ours — the anti-entropy path that lets an isolated
// ex-leader discover it was deposed once the partition heals.
func (n *Node) noteRingVersion(v uint64, fromAddr string) {
	if v == 0 || fromAddr == "" {
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
		n.peerFailed(req.URL.Host, err)
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

// bufResponses pools the buffers of serveQuorum's responses. One is put back
// once its response is written: the writer's header keeps the value slices,
// not the map, and the body has been copied out.
var bufResponses = sync.Pool{New: func() any { return &bufResponse{header: make(http.Header)} }}

// release clears b and pools it; a body grown past 64 KiB (a large batch
// answer) is not kept.
func (b *bufResponse) release() {
	clear(b.header)
	b.code = 0
	if b.body.Cap() > 64<<10 {
		b.body = bytes.Buffer{}
	}
	b.body.Reset()
	bufResponses.Put(b)
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
	br := bufResponses.Get().(*bufResponse)
	defer br.release()
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
