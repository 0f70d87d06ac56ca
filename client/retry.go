package client

// Bounded retry with jittered exponential backoff. A single dial failure
// used to surface immediately; in a cluster a node restart or promotion
// makes transient connection errors and 503s routine, so the SDK absorbs a
// short burst of them. What retries:
//
//   - connection refused, for any method: the request never reached a
//     handler, so resending cannot double-apply
//   - HTTP 503, for any method: the server explicitly declared itself
//     unavailable without doing the work
//   - HTTP 429, for any method: admission control sheds the request
//     before any handler runs, so resending cannot double-apply either
//   - any other transport error — including connection reset — for GET
//     only: a reset can arrive after the server fully processed the request
//     but before the response was read, and a response lost mid-read may
//     have had side effects; only reads are safe to replay
//
// When the server advertises Retry-After (on 429 and 503), that delay is a
// floor under the computed backoff: the SDK never resends earlier than the
// server asked, however small the local backoff curve is.
//
// Context cancellation and deadline expiry never retry. Application errors
// (4xx/5xx other than 429/503) never retry — not_owner in particular is
// handled one level up by the ring-aware ClusterClient, which re-routes
// instead of re-sending.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"syscall"
	"time"

	"itag/internal/ring"
)

type retryPolicy struct {
	attempts int           // total tries, including the first
	base     time.Duration // first backoff; doubles per attempt
}

var defaultRetry = retryPolicy{attempts: 3, base: 50 * time.Millisecond}

// maxBackoff caps the exponential curve.
const maxBackoff = 30 * time.Second

func (p retryPolicy) shouldRetry(method string, err error, attempt int) bool {
	if attempt >= p.attempts-1 {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusServiceUnavailable ||
			ae.Status == http.StatusTooManyRequests
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	// Remaining cases are transport errors of unknown effect (resets,
	// timeouts, broken pipes mid-exchange — any of which can postdate a
	// fully processed request): replay reads only.
	return method == http.MethodGet
}

// backoff computes the un-jittered delay for an attempt on the shared
// curve (ring.Backoff: overflow-safe capped doubling), clamped to
// (0, maxBackoff] whatever the configured base.
func (p retryPolicy) backoff(attempt int) time.Duration {
	base := p.base
	if base <= 0 {
		base = defaultRetry.base
	}
	return min(ring.Backoff(base, maxBackoff, attempt), maxBackoff)
}

// wait sleeps for the attempt's jittered backoff: base·2^attempt scaled by
// a uniform factor in [0.5, 1.5) so synchronized clients spread out, capped
// at maxBackoff, and never below floor (the server's Retry-After, zero when
// it sent none).
func (p retryPolicy) wait(ctx context.Context, attempt int, floor time.Duration) error {
	d := min(ring.Jitter(p.backoff(attempt)), maxBackoff)
	d = max(d, floor)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// parseRetryAfter reads a Retry-After header value: either delta-seconds
// ("2") or an HTTP-date (RFC 9110 §10.2.3). Returns zero when the header
// is absent, malformed, or names a moment already in the past.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}
