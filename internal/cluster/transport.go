package cluster

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
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
//
// Each request's handler runs in its own goroutine, as a server's does. A
// handler that returns without flushing is answered with its buffered body.
// One that flushes is answered as soon as it does, and the rest of its body
// reaches the caller as it is written; it may keep reading the request's
// body meanwhile (full duplex). A replicate exchange runs this way.
type HandlerTransport struct {
	mu sync.RWMutex
	m  map[string]*handlerHost
}

// handlerHost is one registered host and the exchanges streaming from it.
type handlerHost struct {
	h http.Handler

	mu      sync.Mutex
	gone    bool // registered again or unmapped
	streams map[*handlerWriter]struct{}
}

// track adds a streaming exchange; false once the host is gone.
func (hh *handlerHost) track(w *handlerWriter) bool {
	hh.mu.Lock()
	defer hh.mu.Unlock()
	if hh.gone {
		return false
	}
	if hh.streams == nil {
		hh.streams = make(map[*handlerWriter]struct{})
	}
	hh.streams[w] = struct{}{}
	return true
}

func (hh *handlerHost) untrack(w *handlerWriter) {
	hh.mu.Lock()
	delete(hh.streams, w)
	hh.mu.Unlock()
}

// leave marks the host gone and cuts its streaming exchanges before it
// returns: a drill that takes a node off the network and then writes must
// not see the write cross the old exchange.
func (hh *handlerHost) leave() {
	hh.mu.Lock()
	hh.gone = true
	streams := hh.streams
	hh.streams = nil
	hh.mu.Unlock()
	for w := range streams {
		w.cut()
	}
}

// NewHandlerTransport returns an empty transport; Register adds nodes.
func NewHandlerTransport() *HandlerTransport {
	return &HandlerTransport{m: make(map[string]*handlerHost)}
}

// Register maps host (the authority part of a fake URL such as
// "http://node-a") to a handler. Registering nil unmaps the host — the
// drill's way of killing a node's network. Either way the exchanges still
// streaming from the host's previous handler are cut, as TCP connections are
// when their peer goes away: both ends read ECONNRESET.
func (t *HandlerTransport) Register(host string, h http.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.m[host]; old != nil {
		old.leave()
		delete(t.m, host)
	}
	if h != nil {
		t.m[host] = &handlerHost{h: h}
	}
}

var (
	errRefused = &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	errReset   = &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
)

// RoundTrip implements http.RoundTripper.
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.RLock()
	host := t.m[req.URL.Host]
	t.mu.RUnlock()
	if host == nil {
		return nil, errRefused
	}
	ctx, cancel := context.WithCancelCause(req.Context())
	sreq := req.WithContext(ctx)
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	w := &handlerWriter{header: make(http.Header), host: host, caller: req.Context(), cancel: cancel,
		reqBody: sreq.Body, ready: make(chan struct{})}
	go func() {
		defer cancel(nil)
		host.h.ServeHTTP(w, sreq)
		w.finish()
	}()
	select {
	case <-w.ready:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	return &http.Response{
		Status:     strconv.Itoa(w.code) + " " + http.StatusText(w.code),
		StatusCode: w.code,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        w.sent,
		Body:          w.resp,
		ContentLength: w.length,
		Request:       req,
	}, nil
}

// Client returns an http.Client over this transport.
func (t *HandlerTransport) Client() *http.Client {
	return &http.Client{Transport: t}
}

// handlerWriter is the ResponseWriter a HandlerTransport handler writes to.
// Until the handler flushes or returns, its body is buffered; a flush
// commits the status and headers, and makes the body a stream.
type handlerWriter struct {
	header  http.Header
	host    *handlerHost
	caller  context.Context // the caller's request context
	cancel  context.CancelCauseFunc
	reqBody io.ReadCloser

	mu         sync.Mutex
	code       int
	sent       http.Header // the headers as of the status
	buf        bytes.Buffer
	stream     *streamBody // set by the first flush
	stopCaller func() bool

	ready  chan struct{} // closed once the response is committed
	resp   io.ReadCloser
	length int64
}

func (w *handlerWriter) Header() http.Header { return w.header }

func (w *handlerWriter) WriteHeader(code int) {
	w.mu.Lock()
	w.statusLocked(code)
	w.mu.Unlock()
}

func (w *handlerWriter) statusLocked(code int) {
	if w.code == 0 {
		w.code, w.sent = code, w.header.Clone()
	}
}

func (w *handlerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.statusLocked(http.StatusOK)
	if s := w.stream; s != nil {
		w.mu.Unlock()
		return s.write(p)
	}
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// Flush commits the response: the caller's RoundTrip returns, and from here
// on every Write reaches the caller's body as it is made. The exchange is
// cut when the caller gives up on it or the host goes away.
func (w *handlerWriter) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.statusLocked(http.StatusOK)
	if w.stream != nil {
		return
	}
	s := newStreamBody()
	s.buf = append(s.buf, w.buf.Bytes()...)
	w.stream = s
	w.stopCaller = context.AfterFunc(w.caller, func() { s.fail(context.Cause(w.caller)) })
	if !w.host.track(w) {
		w.cut()
	}
	w.commitLocked(s, -1)
}

// cut breaks a streaming exchange as a reset connection does: the handler's
// context ends, its request body closes, and the caller reads ECONNRESET.
func (w *handlerWriter) cut() {
	w.cancel(errReset)
	w.stream.fail(errReset)
	_ = w.reqBody.Close()
}

// EnableFullDuplex is what http.ResponseController calls: a handler here
// may always read its request while it writes.
func (w *handlerWriter) EnableFullDuplex() error { return nil }

func (w *handlerWriter) commitLocked(body io.ReadCloser, length int64) {
	w.resp, w.length = body, length
	close(w.ready)
}

// finish runs once the handler has returned: a buffered response is handed
// over whole, a streamed one reaches its end, and the request's body is
// closed, as a server closes it.
func (w *handlerWriter) finish() {
	w.mu.Lock()
	w.statusLocked(http.StatusOK)
	if w.stream == nil {
		w.commitLocked(io.NopCloser(bytes.NewReader(w.buf.Bytes())), int64(w.buf.Len()))
	} else {
		w.stopCaller()
		w.host.untrack(w)
		w.stream.fail(io.EOF)
	}
	w.mu.Unlock()
	_ = w.reqBody.Close()
}

// streamBody carries a streamed response body from the handler to the
// caller. Writes never wait for the reader, as on a socket with room in its
// buffer; reads wait for bytes, and see the stream's end or its cut once
// the bytes written before it are read (a cut discards them).
type streamBody struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []byte
	err    error // io.EOF once the handler is done, or what cut the stream
	closed bool  // the caller closed its end
}

func newStreamBody() *streamBody {
	s := &streamBody{}
	s.cond.L = &s.mu
	return s
}

func (s *streamBody) write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, io.ErrClosedPipe
	case s.err != nil && s.err != io.EOF:
		return 0, s.err
	}
	s.buf = append(s.buf, p...)
	s.cond.Broadcast()
	return len(p), nil
}

// fail ends the stream: with io.EOF after what was written, with any other
// error at once.
func (s *streamBody) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = err
	if err != io.EOF {
		s.buf = s.buf[:0]
	}
	s.cond.Broadcast()
}

func (s *streamBody) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == 0 && s.err == nil && !s.closed {
		s.cond.Wait()
	}
	switch {
	case s.closed:
		return 0, io.ErrClosedPipe
	case len(s.buf) == 0:
		return 0, s.err
	}
	n := copy(p, s.buf)
	s.buf = s.buf[:copy(s.buf, s.buf[n:])]
	return n, nil
}

func (s *streamBody) Close() error {
	s.mu.Lock()
	s.closed = true
	s.buf = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}
