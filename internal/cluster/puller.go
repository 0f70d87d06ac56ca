package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"itag/internal/errs"
	"itag/internal/ring"
)

// The follower half of replication. Each followed slot gets one puller
// goroutine that polls the leader's /api/v1/cluster/wal endpoint: the
// leader answers with CRC-framed WAL records past the follower's applied
// watermark, or with a full snapshot when compaction has swallowed that
// tail. The follower ingests through the replica Catalog's replication
// entry points (ApplyReplicated / InstallSnapshot), which validate every
// frame before touching state — a corrupt or truncated shipment is rejected
// whole and the next poll retries from the unchanged watermark, so there is
// never a silent gap — and invalidate what the shipment wrote before they
// return, so a follower read never answers from before an applied batch.

// maxBodyBytes bounds any replication response body. Snapshots carry
// whole-store state, and frames responses — though budgeted by PullBytes on
// the leader — may legitimately exceed that budget when a single record
// alone does (ReplTail always ships at least one record). Capping the frames
// read near PullBytes would truncate such a body mid-frame; ApplyReplicated
// would reject the batch, the watermark would not advance, and the next pull
// would issue the identical doomed request — replication wedged for good.
const maxBodyBytes = 1 << 30

// pullLoop drives one followed slot until ctx ends. Rounds that made
// progress loop immediately (catch-up); idle rounds wait out the poll
// interval; failing rounds back off on the capped jittered exponential
// schedule (ring.Backoff), so a dead or partitioned leader is probed ever
// more gently instead of being hammered at the pull interval forever. One
// good round resets the schedule.
func (n *Node) pullLoop(ctx context.Context, rep *replica) {
	defer n.wg.Done()
	defer close(rep.done)
	if n.opts.pullGate != nil {
		select {
		case <-n.opts.pullGate:
		case <-ctx.Done():
			return
		}
	}
	streak := 0
	for {
		progressed, err := n.pullOnce(ctx, rep)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			streak++
			if !errors.Is(err, errPeerOpen) {
				rep.countErr(err)
				n.logger.Printf("cluster %s: pull %s: %v", n.slot, rep.slot, err)
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
		case <-timer.C:
		}
	}
}

// pullOnce fetches and applies one shipment. It reports whether the
// replica advanced (caller loops immediately on progress).
func (n *Node) pullOnce(ctx context.Context, rep *replica) (bool, error) {
	n.mu.RLock()
	addr := n.ring.Addr(rep.slot)
	n.mu.RUnlock()
	if addr == "" || addr == n.addr {
		// Slot left the ring or moved here; syncFollowers will reconcile.
		return false, nil
	}
	from := rep.db.AppliedSeq()
	url := fmt.Sprintf("%s/api/v1/cluster/wal?slot=%s&from=%d&max=%d", addr, rep.slot, from, n.opts.PullBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := n.peerDo(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	n.noteRingVersion(resp.Header.Get(HeaderRingVersion), addr)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("leader %s: %s: %s", addr, resp.Status, body)
	}
	if seq, err := strconv.ParseUint(resp.Header.Get(HeaderAppliedSeq), 10, 64); err == nil {
		rep.leaderSeq.Store(seq)
	}

	switch format := resp.Header.Get(HeaderFormat); format {
	case FormatSnapshot:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err != nil {
			return false, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "read snapshot body")
		}
		if err := rep.cat.InstallSnapshot(data); err != nil {
			return false, err
		}
		rep.pulls.Add(1)
		rep.pullBytes.Add(uint64(len(data)))
		return true, nil
	case FormatFrames:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err != nil {
			return false, errs.Wrap(err, errs.ComponentStore, errs.CategoryIO, "read frames body")
		}
		rep.pulls.Add(1)
		if len(data) == 0 {
			return false, nil // caught up
		}
		if _, err := rep.cat.ApplyReplicated(data); err != nil {
			// In quorum mode the leader's push path applies to this same
			// replica; a shipment that raced a push fails the contiguity
			// check but the watermark has already moved past `from` — that
			// is progress, not an error.
			if rep.db.AppliedSeq() > from {
				return true, nil
			}
			return false, err
		}
		rep.pullBytes.Add(uint64(len(data)))
		return true, nil
	default:
		return false, fmt.Errorf("leader %s: unknown replication format %q", addr, format)
	}
}
