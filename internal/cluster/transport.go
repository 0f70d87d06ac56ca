package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
)

// HandlerTransport is an http.RoundTripper that resolves fake host names
// straight to in-process http.Handlers. The integration tests and the
// replication-history checker use it to wire a whole cluster inside one
// process — every request still crosses the full HTTP surface (routing,
// headers, status codes, body encoding), only the TCP hop is elided.
// Unmapped hosts fail with ECONNREFUSED wrapped the way net/http would
// report a dead node, so retry and failover paths see realistic errors.
type HandlerTransport struct {
	mu sync.RWMutex
	m  map[string]http.Handler
}

// NewHandlerTransport returns an empty transport; Register adds nodes.
func NewHandlerTransport() *HandlerTransport {
	return &HandlerTransport{m: make(map[string]http.Handler)}
}

// Register maps host (the authority part of a fake URL such as
// "http://node-a") to a handler. Registering nil unmaps the host — the
// drill's way of killing a node's network.
func (t *HandlerTransport) Register(host string, h http.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h == nil {
		delete(t.m, host)
		return
	}
	t.m[host] = h
}

// RoundTrip implements http.RoundTripper.
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.RLock()
	h := t.m[req.URL.Host]
	t.mu.RUnlock()
	if h == nil {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// Client returns an http.Client over this transport.
func (t *HandlerTransport) Client() *http.Client {
	return &http.Client{Transport: t}
}
