package api

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"
)

// Middleware wraps an http.Handler with one cross-cutting concern.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares outermost-first: Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// --- request context keys -----------------------------------------------------

type ctxKey int

const ctxKeyRequestID ctxKey = 0

// RequestIDFrom returns the request's id ("" outside the middleware).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// RequestIDOf returns the request's id from wherever it lives: the
// context for minted ids, the incoming X-Request-Id header on the
// middleware's fast path (which skips the context injection — see
// RequestID). "" outside the middleware.
func RequestIDOf(r *http.Request) string {
	if id := RequestIDFrom(r.Context()); id != "" {
		return id
	}
	return r.Header.Get("X-Request-Id")
}

// --- request IDs ---------------------------------------------------------------

// reqCounter makes generated request ids unique within the process;
// combined with the start time they are unique across restarts too.
var reqCounter atomic.Uint64

var processEpoch = time.Now().UnixNano()

// RequestID assigns every request an id: an incoming X-Request-Id header is
// honored (so a load generator can trace a failure end to end), otherwise
// one is minted. The id is echoed on the response header and stamped into
// v1 error envelopes.
//
// An honored incoming id takes the fast path: the response header shares
// the request's value slice and the context is left untouched (WithValue
// plus WithContext cost three allocations per request, which the cached
// read path budgets away). Consumers read ids through RequestIDOf, which
// falls back to the header; only minted ids travel in the context.
func RequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if vs := r.Header["X-Request-Id"]; len(vs) > 0 && vs[0] != "" {
			w.Header()["X-Request-Id"] = vs
			h.ServeHTTP(w, r)
			return
		}
		id := fmt.Sprintf("req-%x-%06d", processEpoch&0xffffff, reqCounter.Add(1))
		w.Header().Set("X-Request-Id", id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id)))
	})
}

// --- panic recovery -------------------------------------------------------------

// Recover converts handler panics into a 500/internal envelope instead of
// tearing down the connection, and logs the panic with the request id.
func Recover(k *Kit, logger *log.Logger) Middleware {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					if logger != nil {
						logger.Printf("panic rid=%s %s %s: %v", RequestIDOf(r), r.Method, r.URL.Path, v)
					}
					k.WriteError(w, r, Errorf(http.StatusInternalServerError, CodeInternal, "internal error"))
				}
			}()
			h.ServeHTTP(w, r)
		})
	}
}

// --- per-route timeout ----------------------------------------------------------

// Timeout attaches a deadline to the request context. Handlers observe it
// through the plumbed context (core.Service checks it on every entry
// point), so a stuck route fails with 504/timeout instead of hanging the
// client. Streaming routes (SSE) are registered without it.
func Timeout(d time.Duration) Middleware {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			h.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// --- access log -----------------------------------------------------------------

// statusWriter records the response status (and whether anything was
// written) while passing Flush through for streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Flush implements http.Flusher for SSE routes.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// AccessLog logs one line per request — method, path, status, duration and
// request id — so a load-test failure is traceable to a single request.
func AccessLog(logger *log.Logger) Middleware {
	return func(h http.Handler) http.Handler {
		if logger == nil {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			h.ServeHTTP(sw, r)
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			logger.Printf("%s %s %d %s rid=%s", r.Method, r.URL.Path, status,
				time.Since(start).Round(time.Microsecond), RequestIDOf(r))
		})
	}
}
