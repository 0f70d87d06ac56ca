package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"itag/internal/errs"
	"itag/internal/wire"
)

// Kit carries the cross-cutting pieces every typed handler needs: the
// domain error mapper and the route metrics registry. It is shared by all
// routes of one server.
type Kit struct {
	// MapError translates service errors (sentinels, validation failures)
	// into transport errors. nil falls back to 400/invalid_argument.
	MapError func(error) *Error
	// Metrics collects per-route counters; nil disables collection.
	Metrics *Metrics
}

// None marks a request or response with no JSON body. A Handle[None, R]
// skips decoding; a Handle[Q, None] writes only the status code.
type None struct{}

// HandlerFunc is a typed endpoint: it gets the raw request (for path
// values, query params and context) plus the decoded body, and returns the
// response value or an error.
type HandlerFunc[Req, Resp any] func(r *http.Request, req Req) (Resp, error)

// Releaser is a request that holds recycled memory its response is written
// from: Handle calls Release once the response, or the error envelope, is
// written, and the request is not used after.
type Releaser interface {
	Release()
}

// Handle adapts a typed HandlerFunc into an http.HandlerFunc. It owns the
// whole transport exchange: reading the request body (at most MaxBody bytes)
// and decoding it strictly (see decodeRequest), invoking fn, encoding the
// response with the given success status — or the error envelope when fn
// fails — and releasing the request when it is a Releaser.
func Handle[Req, Resp any](k *Kit, status int, fn HandlerFunc[Req, Resp]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if rel, ok := any(&req).(Releaser); ok {
			defer rel.Release()
		}
		if _, skip := any(req).(None); !skip {
			if err := decodeRequest(w, r, &req); err != nil {
				k.WriteError(w, r, err)
				return
			}
		}
		resp, err := fn(r, req)
		if err != nil {
			k.WriteError(w, r, err)
			return
		}
		if _, none := any(resp).(None); none {
			w.WriteHeader(status)
			return
		}
		if raw, ok := any(resp).(*Raw); ok {
			if raw == nil {
				// A handler bug, not a valid empty response.
				k.WriteError(w, r, Errorf(http.StatusInternalServerError, CodeInternal, "nil raw response"))
				return
			}
			k.observeWriteFailure(WriteRaw(w, status, raw))
			return
		}
		if err := WriteJSON(w, status, resp); err != nil {
			if errs.CategoryOf(err) == errs.CategoryIO {
				// The body already started; nothing more can be sent.
				k.observeWriteFailure(err)
				return
			}
			// Marshal failure: no byte reached the wire, so answer with the
			// 500 envelope instead of silently truncating the response. The
			// transport error is built here, not left to the kit's domain
			// mapper — an encode bug is the kit's own failure.
			k.WriteError(w, r, Wrap(http.StatusInternalServerError, CodeInternal, err))
		}
	}
}

// observeWriteFailure counts a wire-write failure in the error matrix; a
// client that went away mid-response is not answerable, only observable.
func (k *Kit) observeWriteFailure(err error) {
	if err == nil || k.Metrics == nil {
		return
	}
	k.Metrics.ObserveError(errs.ComponentOf(err), errs.CategoryOf(err))
}

// MaxBody caps a request body: a tasks:batch call at the 10 000-item cap,
// each item a tagger ID and a dozen 15-byte tags, is 2.4 MiB, so 8 MiB takes
// the largest batch a fleet sends and still bounds what one request can make
// the server buffer. A longer body answers 413 batch_too_large.
const MaxBody = 8 << 20

// Decodable is a request type that decodes itself without reflection:
// DecodeWire parses the body's one value into the receiver with the wire
// cursor, declining (false) on any body it is not sure encoding/json decodes
// to the same value, as wire.Into describes.
type Decodable interface {
	DecodeWire(d *wire.Decoder) bool
}

// bodyPool holds request read buffers; one that grew past bodyRetainLimit
// is left to the collector.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bodyRetainLimit = 1 << 20

// decodeRequest reads r's body once, bounded by MaxBody, and decodes it into
// req: directly when Req is Decodable and its decoder takes the body,
// otherwise strictly with encoding/json (decodeJSON). The direct decode takes
// only bodies encoding/json decodes to the same value, so what is accepted,
// what is refused and every error message are encoding/json's.
//
// Content-Length presizes the read buffer only up to what the pool keeps: the
// header is the client's claim, and a larger body grows the buffer as it
// arrives.
func decodeRequest[Req any](w http.ResponseWriter, r *http.Request, req *Req) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= bodyRetainLimit {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if n := r.ContentLength; n > 0 && n <= bodyRetainLimit {
		buf.Grow(int(n) + bytes.MinRead) // readBody wants MinRead free to see EOF
	}
	if err := readBody(buf, r.Body); err != nil {
		if err == errTooLarge {
			return Errorf(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
				"request body exceeds the %d-byte cap", MaxBody)
		}
		return Errorf(http.StatusBadRequest, CodeInvalidRequest, "invalid request body: %v", err)
	}
	body := buf.Bytes()
	if _, ok := any(req).(Decodable); ok && wire.Into(body, req, func(d *wire.Decoder, v *Req) bool {
		return any(v).(Decodable).DecodeWire(d)
	}) {
		return nil
	}
	return decodeJSON(body, req)
}

// errTooLarge is readBody's answer to a body longer than MaxBody.
var errTooLarge = errors.New("request body too large")

// readBody reads body into buf up to EOF, or fails with errTooLarge as soon
// as more than MaxBody bytes have come: http.MaxBytesReader's bound, read
// straight into the pooled buffer without a reader wrapped around the body.
func readBody(buf *bytes.Buffer, body io.Reader) error {
	for {
		buf.Grow(bytes.MinRead)
		b := buf.AvailableBuffer()
		n, err := body.Read(b[:min(cap(b), MaxBody+1-buf.Len())])
		buf.Write(b[:n])
		switch {
		case buf.Len() > MaxBody:
			return errTooLarge
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// decodeJSON strictly decodes body into v: unknown fields are rejected, as
// is anything but whitespace after the value. An empty body is an error —
// endpoints without a body use None.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		// json.Unmarshal checks the whole body, so it fails here, naming the
		// first byte after the value in encoding/json's words.
		err = json.Unmarshal(body, new(json.RawMessage))
	}
	if err != nil {
		return Errorf(http.StatusBadRequest, CodeInvalidRequest, "invalid request body: %v", err)
	}
	return nil
}
