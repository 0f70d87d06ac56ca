package ring

import (
	"math/rand"
	"sync"
	"time"
)

// Per-peer circuit breakers and the retry/backoff schedule for calls to a
// node — replication pulls and pushes and ring propagation on the server
// side, routed API calls in the SDK. The breaker is a plain
// consecutive-failure design: threshold straight failures open it for
// cooldown, during which every call is refused locally instead of burning
// a timeout against a node that is down or partitioned away; after the
// cooldown one probe is let through (half-open) and its outcome closes or
// re-opens the circuit. Threshold and cooldown are the caller's policy and
// are passed to Failure; the state machine is the same for everyone.

// Breaker is one peer's circuit state. The zero value is a closed circuit.
type Breaker struct {
	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool // half-open: one probe in flight
	opens     uint64
}

// Allow reports whether a call may proceed. In the open state it returns
// false until the cooldown elapses, then admits exactly one probe.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if !now.After(b.openUntil) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a completed call: the peer is alive, the circuit closes.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails, b.openUntil, b.probing = 0, time.Time{}, false
	b.mu.Unlock()
}

// Release clears the half-open probe flag without recording an outcome.
// A probe that ends in caller cancellation proves nothing about the peer's
// health, but the flag must not stay set: Allow admits no second probe
// while one is marked in flight, so a leaked flag wedges the breaker open
// (every call refused) until process restart.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Failure records one failed call and reports whether it opened (or
// re-opened) the circuit.
func (b *Breaker) Failure(now time.Time, threshold int, cooldown time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.fails < threshold && b.openUntil.IsZero() {
		return false
	}
	b.openUntil = now.Add(cooldown)
	b.opens++
	return true
}

// Open reports whether the circuit is currently refusing calls.
func (b *Breaker) Open(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.IsZero() && now.Before(b.openUntil)
}

// Breakers tracks one Breaker per peer address. The zero value is ready
// to use.
type Breakers struct {
	mu sync.Mutex
	m  map[string]*Breaker
}

// Get returns addr's breaker, creating a closed one on first contact.
func (p *Breakers) Get(addr string) *Breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[string]*Breaker)
	}
	b := p.m[addr]
	if b == nil {
		b = &Breaker{}
		p.m[addr] = b
	}
	return b
}

// Peek returns addr's breaker without allocating one, or nil when the
// peer has never been contacted. Read-only paths (health classification,
// metrics) use this so scrapes don't inflate the tracked-peer count to the
// full ring or pin stale addresses after ring changes; a missing breaker
// is a closed circuit.
func (p *Breakers) Peek(addr string) *Breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[addr]
}

// Snapshot returns the open/total breaker counts and total opens (for
// health classification and metrics).
func (p *Breakers) Snapshot(now time.Time) (open, total int, opens uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.m {
		total++
		b.mu.Lock()
		opens += b.opens
		if !b.openUntil.IsZero() && now.Before(b.openUntil) {
			open++
		}
		b.mu.Unlock()
	}
	return open, total, opens
}

// Backoff is the retry schedule: capped exponential growth from base, so
// streak 0 retries at base and a long outage settles at max instead of
// hammering a dead peer at the base interval forever. A cap below the base
// clamps to the base. Doubling stops before it could pass max, so no
// streak can overflow into a negative (fire-immediately) delay. The curve
// is pure (Jitter is applied separately) so tests can pin it.
func Backoff(base, max time.Duration, streak int) time.Duration {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < streak; i++ {
		if d >= max/2 {
			return max
		}
		d *= 2
	}
	return d
}

// Jitter spreads a backoff over [0.5d, 1.5d) so a fleet of followers or
// clients that failed together does not retry in lockstep.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
