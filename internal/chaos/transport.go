package chaos

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// Transport injects the schedule's network faults around an inner
// http.RoundTripper. One Transport represents one side of the network: From
// is the identity of the node (or client) whose outbound traffic it
// carries, and each request evaluates two legs — the request leg
// From→URL.Host and the response leg URL.Host→From — so one-way loss and
// asymmetric partitions behave like they would on a real wire. With a nil
// or disarmed schedule every request passes straight through.
//
// A request whose body has no declared length is an exchange that streams
// both ways (a replicate stream's shipments and acks). Past its opening, the
// request leg is evaluated again on every Read of its body that brings bytes,
// and the response leg on every Read of its response that does. A leg that
// drops cuts the exchange there: that Read and every later one on either
// side fails with the error a dropped request gets.
type Transport struct {
	Inner http.RoundTripper
	Sched *Schedule
	// From identifies this side in fault matching ("" matches only
	// wildcard faults).
	From string
}

// Wrap returns inner wrapped with the schedule's faults for traffic
// originating at from.
func Wrap(inner http.RoundTripper, s *Schedule, from string) *Transport {
	return &Transport{Inner: inner, Sched: s, From: from}
}

var (
	errUnreachable = &net.OpError{Op: "dial", Net: "tcp", Err: syscall.EHOSTUNREACH}
	errReqLost     = &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	errRespLost    = &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
)

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t.Sched
	to := req.URL.Host
	var x *exchange
	if s != nil && req.Body != nil && req.Body != http.NoBody && req.ContentLength <= 0 {
		// Wrapped whether or not the schedule is armed yet: it may be armed
		// while the exchange is open.
		x = &exchange{sched: s, from: t.From, to: to, ctx: req.Context()}
		req = req.WithContext(req.Context()) // a RoundTripper must not modify the caller's request
		req.Body = &legBody{x: x, inner: req.Body}
	}
	if !s.Active() {
		return x.wrap(t.Inner.RoundTrip(req))
	}

	reqLeg := s.Leg(t.From, to)
	if reqLeg.Delay > 0 {
		if err := sleepCtx(req.Context(), reqLeg.Delay); err != nil {
			return nil, err
		}
	}
	if reqLeg.Drop {
		if reqLeg.Unreachable {
			return nil, errUnreachable
		}
		return nil, errReqLost
	}

	resp, err := t.Inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	// The response leg is evaluated after the handler ran: a dropped
	// response means the work happened but the caller never learns — the
	// window quorum mode exists to survive.
	respLeg := s.Leg(to, t.From)
	if respLeg.Delay > 0 {
		if err := sleepCtx(req.Context(), respLeg.Delay); err != nil {
			resp.Body.Close()
			return nil, err
		}
	}
	if respLeg.Drop {
		resp.Body.Close()
		if respLeg.Unreachable {
			return nil, errUnreachable
		}
		return nil, errRespLost
	}
	return x.wrap(resp, nil)
}

// exchange is one streamed request and its response, both legs watched.
type exchange struct {
	sched    *Schedule
	from, to string
	ctx      context.Context

	mu   sync.Mutex
	err  error // what cut the exchange
	resp io.ReadCloser
}

// wrap puts the response leg's watch on an exchange's response.
func (x *exchange) wrap(resp *http.Response, err error) (*http.Response, error) {
	if x == nil || err != nil {
		return resp, err
	}
	x.resp = resp.Body
	resp.Body = &legBody{x: x, inner: resp.Body, response: true}
	return resp, nil
}

func (x *exchange) cutErr() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// pass evaluates one leg for bytes that just crossed it, and cuts the
// exchange when the leg drops them.
func (x *exchange) pass(response bool) error {
	if !x.sched.Active() {
		return nil
	}
	from, to, lost, leg := x.from, x.to, error(errReqLost), 0
	if response {
		from, to, lost, leg = x.to, x.from, errRespLost, 1
	}
	v := x.sched.Leg(from, to)
	if v.Delay > 0 {
		if err := sleepCtx(x.ctx, v.Delay); err != nil {
			return err
		}
	}
	if !v.Drop {
		return nil
	}
	if v.Unreachable {
		lost = errUnreachable
	}
	x.mu.Lock()
	if x.err == nil {
		x.err = lost
		x.sched.cuts[leg].Add(1)
	}
	err := x.err
	x.mu.Unlock()
	if response {
		x.resp.Close() // tear the exchange down, as a reset connection is
	}
	return err
}

// legBody is one side of an exchange: its request body or its response.
type legBody struct {
	x        *exchange
	inner    io.ReadCloser
	response bool
}

func (b *legBody) Read(p []byte) (int, error) {
	if err := b.x.cutErr(); err != nil {
		return 0, err
	}
	n, err := b.inner.Read(p)
	if cerr := b.x.cutErr(); cerr != nil {
		return 0, cerr
	}
	if n > 0 {
		if lerr := b.x.pass(b.response); lerr != nil {
			return 0, lerr
		}
	}
	return n, err
}

func (b *legBody) Close() error { return b.inner.Close() }

func sleepCtx(ctx context.Context, d time.Duration) error {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

// listener applies inbound faults at the accept edge for real TCP
// deployments (itagd -chaos-spec): connections arriving while a partition
// involving this host is active are closed immediately, and inbound latency
// faults delay the hand-off to the HTTP server.
type listener struct {
	net.Listener
	sched *Schedule
	host  string
}

// WrapListener wraps ln with the schedule's inbound faults for the node
// advertised as host. A nil schedule returns ln unchanged.
func WrapListener(ln net.Listener, s *Schedule, host string) net.Listener {
	if s == nil {
		return ln
	}
	return &listener{Listener: ln, sched: s, host: host}
}

// Accept implements net.Listener. The remote identity of an inbound TCP
// connection is unknown until the request arrives, so accept-edge faults
// match the wildcard source: a partition "*"→host refuses every inbound
// connection, a latency fault "*"→host delays each accept hand-off.
func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || !l.sched.Active() {
			return c, err
		}
		v := l.sched.Leg("*", l.host)
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
		if v.Drop {
			_ = c.Close()
			continue
		}
		return c, nil
	}
}
