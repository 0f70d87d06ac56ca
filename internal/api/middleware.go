package api

import (
	"log"
	"net/http"
	"strconv"
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

// --- request IDs ---------------------------------------------------------------

// RequestIDOf returns the request's id: the X-Request-Id the RequestID
// middleware (or WriteError) put on the response header, or else the
// incoming header. "" when neither has one.
func RequestIDOf(w http.ResponseWriter, r *http.Request) string {
	if vs := w.Header()["X-Request-Id"]; len(vs) > 0 && vs[0] != "" {
		return vs[0]
	}
	return r.Header.Get("X-Request-Id")
}

// stampRequestID returns the request's id, as RequestIDOf does, and makes
// sure the response header carries it: an error envelope written outside
// the RequestID middleware echoes the incoming id, or mints one, so a
// client can quote it either way.
func stampRequestID(w http.ResponseWriter, r *http.Request) string {
	h := w.Header()
	if vs := h["X-Request-Id"]; len(vs) > 0 && vs[0] != "" {
		return vs[0]
	}
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = mintRequestID(reqCounter.Add(1))
	}
	h["X-Request-Id"] = []string{id}
	return id
}

// reqCounter makes generated request ids unique within the process;
// combined with the start time they are unique across restarts too.
var reqCounter atomic.Uint64

var processEpoch = time.Now().UnixNano()

// RequestID assigns every request an id: an incoming X-Request-Id header is
// honored (so a load generator can trace a failure end to end), otherwise
// one is minted, "req-<epoch hex>-<counter, at least 6 digits>". The id goes
// on the response header only, where RequestIDOf finds it; the request and
// its context are passed on untouched.
func RequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if vs := r.Header["X-Request-Id"]; len(vs) > 0 && vs[0] != "" {
			w.Header()["X-Request-Id"] = vs
		} else {
			w.Header()["X-Request-Id"] = []string{mintRequestID(reqCounter.Add(1))}
		}
		h.ServeHTTP(w, r)
	})
}

// mintRequestID is fmt.Sprintf("req-%x-%06d", processEpoch&0xffffff, n)
// without fmt: one allocation, the string.
func mintRequestID(n uint64) string {
	var buf [40]byte
	b := strconv.AppendInt(append(buf[:0], "req-"...), processEpoch&0xffffff, 16)
	b = append(b, '-')
	for p := uint64(100000); p > n && p > 1; p /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, n, 10))
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
						logger.Printf("panic rid=%s %s %s: %v", RequestIDOf(w, r), r.Method, r.URL.Path, v)
					}
					k.WriteError(w, r, Errorf(http.StatusInternalServerError, CodeInternal, "internal error"))
				}
			}()
			h.ServeHTTP(w, r)
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
				time.Since(start).Round(time.Microsecond), RequestIDOf(sw, r))
		})
	}
}
