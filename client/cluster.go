package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"itag/internal/ring"
)

// RingMember is one slot of the cluster ring and the address of the node
// leading it (wire form of GET /api/v1/cluster/ring).
type RingMember = ring.Member

// RingInfo is the cluster routing table as served by any node.
type RingInfo struct {
	Version uint64       `json:"version"`
	VNodes  int          `json:"vnodes"`
	Members []RingMember `json:"members"`
}

// ClusterClient routes v1 API calls across an itagd cluster. It learns the
// ring from any seed node, sends every key-scoped call to the slot leader
// the ring names, follows not_owner redirects (refreshing its ring when
// one appears — the signature of a promotion), and optionally serves reads
// from followers within the cluster's staleness bound.
//
//	cc := client.NewCluster([]string{"http://node-a:8080"}, nil)
//	info, err := cc.GetProject(ctx, projectID)        // routed to the leader
//	stale := cc.WithFollowerReads()
//	info, err = stale.GetProject(ctx, projectID)      // served by a follower
//
// ID-less calls (registration, project creation) must target an explicit
// node — in the entity-group model a node mints only IDs it will own, so
// a project and its participants are created through the same node:
//
//	c, _ := cc.Node(ctx, "alpha")
//	provider, _ := c.RegisterProvider(ctx, "alice")
type ClusterClient struct {
	seeds         []string
	httpc         *http.Client
	retry         retryPolicy
	followerReads bool
	breakers      *nodeHealth     // shared across WithX copies: one view of node health
	cache         *validatorCache // shared the same way, and by every node client (see NewCluster)

	mu   sync.RWMutex
	ring *ring.Ring // immutable once installed
}

// maxRouteHops bounds the 421-follow / ring-refresh loop. Under ring churn
// (rolling failovers, a misconfigured node pointing back at the caller)
// each redirect re-targets the call; after this many hops the client stops
// chasing and surfaces a RouteError instead of ping-ponging forever.
const maxRouteHops = 4

// Client-side circuit breaker tuning: after clientBreakerThreshold straight
// transport failures a node is skipped for clientBreakerCooldown, then one
// probe is admitted. An HTTP response of any status closes the circuit —
// breakers track reachability, not correctness.
const (
	clientBreakerThreshold = 3
	clientBreakerCooldown  = 2 * time.Second
)

// ErrNodeSuspect is wrapped into errors returned when a call is refused
// locally because the target node's circuit breaker is open (recent
// transport failures). The route loop treats it like a transport failure —
// refresh the ring and go wherever the key routes now — so callers only
// see it when no alternative node exists.
var ErrNodeSuspect = errors.New("itag: node skipped: circuit open after repeated transport failures")

// RouteError reports that routing a key was abandoned after maxRouteHops
// redirects or reroutes. It wraps the last per-node error.
type RouteError struct {
	Key  string
	Hops int
	Last error
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("itag: routing %q abandoned after %d hops (redirect loop or ring churn): %v", e.Key, e.Hops, e.Last)
}

func (e *RouteError) Unwrap() error { return e.Last }

// nodeHealth is the SDK's view of node reachability: the shared per-address
// breakers under the SDK's threshold and cooldown.
type nodeHealth struct{ ring.Breakers }

func (h *nodeHealth) failure(addr string, now time.Time) {
	h.Get(addr).Failure(now, clientBreakerThreshold, clientBreakerCooldown)
}

// NewCluster builds a cluster client from one or more seed node addresses.
// httpClient may be nil for http.DefaultClient. The ring is fetched lazily
// on first use; call Refresh to fail fast.
//
// Like New, it revalidates: the routed GETs whose responses carry an ETag
// (GetProject, Export, GetResource — and the same calls on the Clients that
// Node and Leader hand out) send If-None-Match and answer a 304 with a copy
// of what was decoded last time. Validators never cross nodes: what is kept
// is keyed by node as well as path, so a follower's tag goes back to that
// follower only, a fallback to the leader offers the leader's own tag or
// none, and a ring change needs no pruning. The 8 MiB retention bound is per
// cluster client — shared by the copies WithRetry and WithFollowerReads
// make and by every node — not per node.
//
// Like New, every response is read to EOF — a 421 and the ring refresh it
// triggers included — so each concurrent caller keeps one keep-alive
// connection per node; MaxIdleConnsPerHost applies per node.
func NewCluster(seeds []string, httpClient *http.Client) *ClusterClient {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	trimmed := make([]string, len(seeds))
	for i, s := range seeds {
		trimmed[i] = strings.TrimRight(s, "/")
	}
	return &ClusterClient{seeds: trimmed, httpc: httpClient, retry: defaultRetry, breakers: &nodeHealth{}, cache: &validatorCache{}}
}

// WithRetry returns a copy whose per-node clients use the given retry
// budget (see Client.WithRetry).
func (cc *ClusterClient) WithRetry(attempts int, base time.Duration) *ClusterClient {
	nc := cc.shallowClone()
	nc.retry = retryPolicy{attempts: attempts, base: base}
	return nc
}

// WithFollowerReads returns a copy that serves read calls from a follower
// replica (opt-in staleness: the follower refuses with not_owner when its
// replication lag exceeds the cluster's bound, and the client falls back
// to the leader).
func (cc *ClusterClient) WithFollowerReads() *ClusterClient {
	nc := cc.shallowClone()
	nc.followerReads = true
	return nc
}

func (cc *ClusterClient) shallowClone() *ClusterClient {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return &ClusterClient{
		seeds: cc.seeds, httpc: cc.httpc, retry: cc.retry,
		followerReads: cc.followerReads, ring: cc.ring, breakers: cc.breakers, cache: cc.cache,
	}
}

// Refresh fetches the ring, trying known member addresses first and the
// seeds last, and installs it if it is newer than the one held.
func (cc *ClusterClient) Refresh(ctx context.Context) error {
	cc.mu.RLock()
	var addrs []string
	if cc.ring != nil {
		for _, m := range cc.ring.Members {
			addrs = append(addrs, m.Addr)
		}
	}
	cc.mu.RUnlock()
	addrs = append(addrs, cc.seeds...)

	var lastErr error
	for _, addr := range addrs {
		fetched := new(ring.Ring)
		if err := cc.call(addr, cc.node(addr), func(c *Client) error {
			return c.do(ctx, http.MethodGet, "/api/v1/cluster/ring", nil, fetched)
		}); err != nil {
			lastErr = err
			continue
		}
		if err := fetched.Validate(); err != nil {
			lastErr = fmt.Errorf("itag: cluster ring from %s: %w", addr, err)
			continue
		}
		cc.mu.Lock()
		if cc.ring == nil || fetched.Version > cc.ring.Version {
			cc.ring = fetched
		}
		cc.mu.Unlock()
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("itag: no cluster seeds configured")
	}
	return fmt.Errorf("itag: cluster ring unavailable: %w", lastErr)
}

// Ring returns the installed routing table (zero RingInfo before the
// first Refresh).
func (cc *ClusterClient) Ring() RingInfo {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	if cc.ring == nil {
		return RingInfo{}
	}
	return RingInfo{Version: cc.ring.Version, VNodes: cc.ring.VNodes, Members: cc.ring.Members}
}

func (cc *ClusterClient) ensureRing(ctx context.Context) (*ring.Ring, error) {
	cc.mu.RLock()
	r := cc.ring
	cc.mu.RUnlock()
	if r != nil {
		return r, nil
	}
	if err := cc.Refresh(ctx); err != nil {
		return nil, err
	}
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.ring, nil
}

func (cc *ClusterClient) node(addr string) *Client {
	return &Client{base: strings.TrimRight(addr, "/"), http: cc.httpc, retry: cc.retry, cache: cc.cache}
}

// Node returns a plain Client bound to the node leading slot — the target
// for ID-less calls such as registration and project creation.
func (cc *ClusterClient) Node(ctx context.Context, slot string) (*Client, error) {
	r, err := cc.ensureRing(ctx)
	if err != nil {
		return nil, err
	}
	addr := r.Addr(slot)
	if addr == "" {
		return nil, fmt.Errorf("itag: unknown cluster slot %q", slot)
	}
	return cc.node(addr), nil
}

// Leader returns a Client bound to the node leading key's slot.
func (cc *ClusterClient) Leader(ctx context.Context, key string) (*Client, error) {
	r, err := cc.ensureRing(ctx)
	if err != nil {
		return nil, err
	}
	return cc.node(r.OwnerAddr(key)), nil
}

// call runs fn against one node through its circuit breaker: an open
// circuit refuses the call locally (ErrNodeSuspect) instead of burning a
// transport timeout against a node that recently proved dead; any HTTP
// response — success or API error — closes it again.
func (cc *ClusterClient) call(addr string, c *Client, fn func(*Client) error) error {
	b := cc.breakers.Get(addr)
	if !b.Allow(time.Now()) {
		return fmt.Errorf("%w (%s)", ErrNodeSuspect, addr)
	}
	err := fn(c)
	var ae *APIError
	switch {
	case err == nil, errors.As(err, &ae):
		b.Success()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller gave up; that says nothing about the node's health.
		// But if this call was the one admitted half-open probe, the probe
		// slot must be released or the breaker wedges shut forever.
		b.Release()
	default:
		cc.breakers.failure(addr, time.Now())
	}
	return err
}

// route runs fn against the node owning key, chasing at most maxRouteHops
// redirects. A not_owner reply means the client's ring is stale (a
// follower was promoted): the ring refreshes and the call follows the
// address the server pointed at. A transport failure (or a node skipped by
// its circuit breaker) reroutes wherever a freshly fetched ring places the
// key. When the hops run out — a redirect loop between misconfigured
// nodes, or a ring churning faster than the client can chase — the caller
// gets a RouteError wrapping the last failure instead of an unbounded
// ping-pong. With follower reads enabled, read calls go to the owner's
// first successor with the follower-read header; a refusal (lag over the
// staleness bound) or an unreachable follower falls back to the leader.
func (cc *ClusterClient) route(ctx context.Context, key string, read bool, fn func(*Client) error) error {
	r, err := cc.ensureRing(ctx)
	if err != nil {
		return err
	}
	owner := r.Owner(key)
	if read && cc.followerReads {
		// The owner's first successor on a different address holds a replica
		// at any replication factor >= 1.
		if fs := r.Followers(owner, 1); len(fs) == 1 {
			faddr := r.Addr(fs[0])
			ferr := cc.call(faddr, cc.node(faddr).WithHeader("X-Itag-Read", "follower"), fn)
			var ae *APIError
			if ferr == nil {
				return nil
			}
			if errors.As(ferr, &ae) && ae.Code != CodeNotOwner {
				return ferr
			}
			// Too stale, not a replica holder, or unreachable: fall through
			// to the leader.
		}
	}
	addr := r.Addr(owner)
	var last error
	for hop := 0; hop < maxRouteHops; hop++ {
		err := cc.call(addr, cc.node(addr), fn)
		if err == nil {
			return nil
		}
		last = err
		var ae *APIError
		switch {
		case errors.As(err, &ae) && ae.Code == CodeNotOwner:
			// Stale ring: a follower was promoted. Adopt the fresh ring,
			// then follow the address the server named (or wherever the
			// new ring routes the key).
			_ = cc.Refresh(ctx)
			if ae.OwnerHint != "" {
				addr = strings.TrimRight(ae.OwnerHint, "/")
				continue
			}
		case errors.As(err, &ae):
			return err // a real API failure: routing was fine
		case ctx.Err() != nil:
			return err
		default:
			// Transport failure or an open breaker — the node may be dead
			// and its slot promoted elsewhere. Refresh walks the surviving
			// members (and the seeds) for a newer ring.
			if rerr := cc.Refresh(ctx); rerr != nil {
				return err
			}
		}
		nr, rerr := cc.ensureRing(ctx)
		if rerr != nil {
			return err
		}
		next := nr.OwnerAddr(key)
		if next == "" || next == addr {
			return err // nothing changed: don't hammer the same node again
		}
		addr = next
	}
	return &RouteError{Key: key, Hops: maxRouteHops, Last: last}
}

// --- routed v1 calls ------------------------------------------------------------

// GetProject fetches one project row from its owning node.
func (cc *ClusterClient) GetProject(ctx context.Context, id string) (ProjectInfo, error) {
	var info ProjectInfo
	err := cc.route(ctx, id, true, func(c *Client) error {
		var e error
		info, e = c.GetProject(ctx, id)
		return e
	})
	return info, err
}

// Export fetches one page of the project's consolidated tags from its
// owning node (or a follower, with follower reads enabled).
func (cc *ClusterClient) Export(ctx context.Context, id, cursor string, limit int) (ExportPage, error) {
	var page ExportPage
	err := cc.route(ctx, id, true, func(c *Client) error {
		var e error
		page, e = c.Export(ctx, id, cursor, limit)
		return e
	})
	return page, err
}

// GetResource fetches one resource's live status from the project's owning
// node — never a follower: the status is the live run's, and only the owner
// has one.
func (cc *ClusterClient) GetResource(ctx context.Context, projectID, resourceID string) (ResourceStatus, error) {
	var st ResourceStatus
	err := cc.route(ctx, projectID, false, func(c *Client) error {
		var e error
		st, e = c.GetResource(ctx, projectID, resourceID)
		return e
	})
	return st, err
}

// GetUser fetches a user from the node owning its ID.
func (cc *ClusterClient) GetUser(ctx context.Context, id string) (User, error) {
	var u User
	err := cc.route(ctx, id, true, func(c *Client) error {
		var e error
		u, e = c.GetUser(ctx, id)
		return e
	})
	return u, err
}

// RequestTask asks the project's owning node for the tagger's next task.
func (cc *ClusterClient) RequestTask(ctx context.Context, projectID, taggerID string) (Task, error) {
	var t Task
	err := cc.route(ctx, projectID, false, func(c *Client) error {
		var e error
		t, e = c.RequestTask(ctx, projectID, taggerID)
		return e
	})
	return t, err
}

// SubmitTask completes an assigned task on the project's owning node.
func (cc *ClusterClient) SubmitTask(ctx context.Context, projectID, taskID string, tags []string) error {
	return cc.route(ctx, projectID, false, func(c *Client) error {
		return c.SubmitTask(ctx, projectID, taskID, tags)
	})
}

// JudgePost records the provider's verdict on the project's owning node.
func (cc *ClusterClient) JudgePost(ctx context.Context, projectID, resourceID string, seq uint64, approved bool) error {
	return cc.route(ctx, projectID, false, func(c *Client) error {
		return c.JudgePost(ctx, projectID, resourceID, seq, approved)
	})
}
