package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"itag/internal/errs"
)

// This file is the encode side of the handler kit: a pooled-buffer JSON
// pipeline (encode once into a reusable buffer, send with Content-Length
// instead of chunked transfer) and the Raw escape hatch for handlers that
// hold an already-serialized response — the server's encoded-response
// cache serves hits through it without touching encoding/json at all.
//
// Byte compatibility: the pipeline drives the same json.Encoder the seed
// per-request path did (field order, escaping, and the trailing newline
// are identical); only the transport framing changes, from chunked to
// Content-Length. The parity suite in internal/server pins this. A response
// type on a hot route (a task, a submit, a tasks:batch answer) is an
// Appender and encodes itself to the same bytes, without reflection.

// Shared single-element header value slices, assigned directly into
// response header maps (map assignment with a precomputed slice is the
// only per-request header cost on the cached path). They are immutable.
var (
	headerJSONContentType = []string{"application/json"}
	headerNoCache         = []string{"no-cache"}
)

// NoCacheValue returns the shared "no-cache" Cache-Control value slice.
// Callers must not mutate it.
func NoCacheValue() []string { return headerNoCache }

// encodeBuf pairs a reusable buffer with a json.Encoder bound to it so a
// pooled encode allocates neither.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encodeRetainLimit caps the buffer size returned to the pool: a rare
// multi-megabyte export should not pin its buffer for the lifetime of the
// process.
const encodeRetainLimit = 1 << 20

var encodePool = sync.Pool{New: func() any {
	e := &encodeBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

func getEncodeBuf() *encodeBuf {
	e := encodePool.Get().(*encodeBuf)
	e.buf.Reset()
	return e
}

func putEncodeBuf(e *encodeBuf) {
	if e.buf.Cap() <= encodeRetainLimit {
		encodePool.Put(e)
	}
}

// Appender is a response that encodes itself without reflection: AppendJSON
// appends exactly the bytes json.Marshal makes of it to dst and reports
// true, or reports false for a value json.Marshal refuses, which the pipeline
// then hands to encoding/json for its error.
type Appender interface {
	AppendJSON(dst []byte) ([]byte, bool)
}

// encode encodes v into e's buffer as json.Encoder.Encode does: through v's
// own AppendJSON when it is an Appender, through the encoder otherwise.
func (e *encodeBuf) encode(v any) error {
	if a, ok := v.(Appender); ok {
		if b, ok := a.AppendJSON(e.buf.AvailableBuffer()); ok {
			e.buf.Write(append(b, '\n'))
			return nil
		}
	}
	return e.enc.Encode(v)
}

// AppendJSON encodes v exactly as the response pipeline would (including
// the trailing newline) and appends it to dst, which may be nil. The
// encode goes through the shared buffer pool; the returned slice is
// owned by the caller — this is the fill path of an encoded-response
// cache, which must retain bytes beyond the pooled buffer's lifetime.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	e := getEncodeBuf()
	defer putEncodeBuf(e)
	if err := e.encode(v); err != nil {
		return dst, errs.Wrap(err, errs.ComponentAPI, errs.CategoryInternal, "encode response")
	}
	return append(dst, e.buf.Bytes()...), nil
}

// WriteJSON writes v as a JSON response with the given status: one encode
// into a pooled buffer, then a single write framed by Content-Length.
//
// A marshal failure is reported before any byte reaches the wire
// (taxonomy internal/api × internal), so the caller can still send a 500
// envelope; a wire failure after the body started is taxonomy-classified
// io and can only be counted. Callers that predate the error return may
// keep ignoring it — the response is never silently truncated by a
// marshal error anymore, which is the fix this return carries.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	e := getEncodeBuf()
	defer putEncodeBuf(e)
	if err := e.encode(v); err != nil {
		return errs.Wrap(err, errs.ComponentAPI, errs.CategoryInternal, "encode response")
	}
	h := w.Header()
	h["Content-Type"] = headerJSONContentType
	h["Content-Length"] = []string{strconv.Itoa(e.buf.Len())}
	w.WriteHeader(status)
	if _, err := w.Write(e.buf.Bytes()); err != nil {
		return errs.Wrap(err, errs.ComponentAPI, errs.CategoryIO, "write response")
	}
	return nil
}

// Raw is an already-serialized JSON response — the escape hatch a handler
// returns (as its Resp type) to skip the encode entirely. The server's
// encoded-response cache builds one Raw per cache entry and every hit
// returns the same value, so all fields must be treated as immutable.
//
// The header fields are precomputed single-element slices assigned
// directly into the response header map; nil omits the header. A Raw
// with Status 304 writes no body (and no Content-Length), per RFC 9110.
type Raw struct {
	// Status overrides the handler's registered success status when
	// non-zero (the cache uses 304 for revalidation hits).
	Status int
	// Body is the JSON body, trailing newline included — or, when Parts
	// is set, its first piece. Ignored when Status is 304.
	Body []byte
	// Parts is the rest of the body, written in order after Body: an
	// export page is its head, its rows and its tail, each held where it
	// was encoded, so the page is never copied into one slice.
	Parts [][]byte
	// ETag, CacheControl and ContentLength are precomputed header value
	// slices ({`"<etag>"`}, {"no-cache"}, {Len() in decimal}).
	// ContentLength nil is computed per write.
	ETag          []string
	CacheControl  []string
	ContentLength []string
}

// Len is the body's length: Body's and every part's.
func (raw *Raw) Len() int {
	n := len(raw.Body)
	for _, p := range raw.Parts {
		n += len(p)
	}
	return n
}

// WriteRaw writes a pre-encoded response. status is the handler's
// registered success status, overridden by raw.Status. The returned
// error is a wire-write failure (taxonomy io); headers are already sent
// when it occurs, so callers count it rather than answering it.
func WriteRaw(w http.ResponseWriter, status int, raw *Raw) error {
	if raw.Status != 0 {
		status = raw.Status
	}
	h := w.Header()
	if raw.ETag != nil {
		h["Etag"] = raw.ETag
	}
	if raw.CacheControl != nil {
		h["Cache-Control"] = raw.CacheControl
	}
	if status == http.StatusNotModified {
		w.WriteHeader(status)
		return nil
	}
	h["Content-Type"] = headerJSONContentType
	if raw.ContentLength != nil {
		h["Content-Length"] = raw.ContentLength
	} else {
		h["Content-Length"] = []string{strconv.Itoa(raw.Len())}
	}
	w.WriteHeader(status)
	if _, err := w.Write(raw.Body); err != nil {
		return errs.Wrap(err, errs.ComponentAPI, errs.CategoryIO, "write response")
	}
	for _, p := range raw.Parts {
		if _, err := w.Write(p); err != nil {
			return errs.Wrap(err, errs.ComponentAPI, errs.CategoryIO, "write response")
		}
	}
	return nil
}

// ETagMatch reports whether the request's If-None-Match header matches
// etag (an entity tag including its quotes). Comparison is weak (RFC
// 9110 §13.1.2 — the right strength for GET revalidation): a W/ prefix
// on either side is ignored. The list walk allocates nothing.
func ETagMatch(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" || etag == "" {
		return false
	}
	if inm == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for len(inm) > 0 {
		var field string
		if i := strings.IndexByte(inm, ','); i >= 0 {
			field, inm = inm[:i], inm[i+1:]
		} else {
			field, inm = inm, ""
		}
		field = strings.TrimSpace(field)
		if strings.TrimPrefix(field, "W/") == etag {
			return true
		}
	}
	return false
}
