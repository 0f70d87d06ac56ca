// Package api is the HTTP handler kit behind the versioned /api/v1
// surface: a generics-based Handle adapter that owns decode/validate/encode
// for every endpoint, a structured error envelope with machine-readable
// codes, and a composable middleware chain (request IDs, panic recovery,
// per-route timeouts, access logging, in-flight/latency metrics).
//
// The kit is transport policy only — it knows nothing about iTag's domain.
// internal/server supplies the route table and the mapping from service
// sentinels to API errors.
package api

import (
	"errors"
	"fmt"
	"net/http"

	"itag/internal/errs"
)

// Machine-readable error codes carried in the v1 error envelope. Clients
// switch on these, never on message text. Taxonomy-carried errors
// (internal/errs) derive their code and status from their category, so
// most of these constants are now aliases of errs category defaults; the
// rest are transport-level conditions the handler kit raises itself.
const (
	CodeInvalidRequest  = "invalid_request"    // malformed body / unknown fields
	CodeInvalidArgument = "invalid_argument"   // validation or state error (errs.CategoryValidation)
	CodeNotFound        = "not_found"          // errs.CategoryNotFound
	CodeConflict        = "conflict"           // errs.CategoryConflict
	CodeInvalidRole     = "invalid_role"       // wrong-role user (validation refinement)
	CodeExhausted       = "exhausted"          // errs.CategoryExhausted: budget / post source ran out
	CodeRateLimited     = "resource_exhausted" // errs.CategoryRateLimited: load shed by admission control; honor Retry-After
	CodeIOFailure       = "io_failure"         // errs.CategoryIO: store disk failure
	CodeCorruption      = "corruption"         // errs.CategoryCorruption: integrity check failed
	CodeBatchTooLarge   = "batch_too_large"    // batch exceeds the per-call item cap, or the body MaxBody
	CodeNotOwner        = "not_owner"          // key is owned by another cluster node (X-Itag-Owner names it)
	CodeUnavailable     = "unavailable"        // node degraded/isolated; honor Retry-After
	CodeTimeout         = "timeout"            // per-route deadline exceeded
	CodeCanceled        = "canceled"           // client disconnected mid-request
	CodeInternal        = "internal"           // panic or unexpected failure
)

// CodeSpec is one row of the error-code contract: the envelope code, the
// HTTP status it rides on, the taxonomy category it derives from, and the
// one-line description the docs table renders. CodeTable is the single
// source of truth docs/API.md is generated from (a test pins them
// together).
type CodeSpec struct {
	Code     string
	Status   int
	Category errs.Category
	Doc      string
}

// CodeTable enumerates every machine-readable code the server can emit,
// in documentation order. Codes are unique; statuses follow the taxonomy
// category except for the transport-level refinements noted inline.
func CodeTable() []CodeSpec {
	return []CodeSpec{
		{CodeInvalidRequest, http.StatusBadRequest, errs.CategoryValidation, "malformed body: bad JSON, unknown fields, trailing garbage"},
		{CodeInvalidArgument, http.StatusBadRequest, errs.CategoryValidation, "validation or state error (bad strategy, unknown run, bad cursor/limit, ...)"},
		{CodeInvalidRole, http.StatusBadRequest, errs.CategoryValidation, "user exists but has the wrong role"},
		{CodeBatchTooLarge, http.StatusRequestEntityTooLarge, errs.CategoryValidation, "batch exceeds the per-call item cap, or the request body the 8 MiB body cap"},
		{CodeNotFound, http.StatusNotFound, errs.CategoryNotFound, "the referenced entity does not exist"},
		{CodeConflict, http.StatusConflict, errs.CategoryConflict, "valid request, conflicting current state (e.g. post already judged)"},
		{CodeExhausted, http.StatusConflict, errs.CategoryExhausted, "a budget or post source ran out"},
		{CodeRateLimited, http.StatusTooManyRequests, errs.CategoryRateLimited, "load shed by admission control; retry after the Retry-After delay"},
		{CodeNotOwner, http.StatusMisdirectedRequest, errs.CategoryConflict, "another cluster node owns this key; X-Itag-Owner names its address"},
		{CodeUnavailable, http.StatusServiceUnavailable, errs.CategoryRateLimited, "node is isolated from its cluster peers; retry elsewhere after the Retry-After delay"},
		{CodeIOFailure, http.StatusInternalServerError, errs.CategoryIO, "store disk or filesystem failure"},
		{CodeCorruption, http.StatusInternalServerError, errs.CategoryCorruption, "stored data failed an integrity check"},
		{CodeTimeout, http.StatusGatewayTimeout, errs.CategoryCanceled, "per-route deadline exceeded"},
		{CodeCanceled, 499, errs.CategoryCanceled, "client disconnected mid-request"},
		{CodeInternal, http.StatusInternalServerError, errs.CategoryInternal, "panic or unexpected failure"},
	}
}

// codeCategories maps every envelope code back to its taxonomy category —
// how non-taxonomy errors (api-level Errorf, mapper fallbacks) are
// attributed in the error metrics.
var codeCategories = func() map[string]errs.Category {
	m := make(map[string]errs.Category)
	for _, spec := range CodeTable() {
		m[spec.Code] = spec.Category
	}
	return m
}()

// CategoryOfCode reports the taxonomy category an envelope code derives from
// ("" for a code outside CodeTable) — how a caller that only holds a peer's
// error reply attributes it.
func CategoryOfCode(code string) errs.Category { return codeCategories[code] }

// FromTaxonomy derives the transport error for a taxonomy error: status
// from the category, code from the category default or the sentinel's
// WithCode refinement, message from the full error chain.
func FromTaxonomy(te *errs.Error, err error) *Error {
	return Wrap(te.HTTPStatus(), te.Code(), err)
}

// Error is a transport-ready error: an HTTP status, a machine-readable
// code, and a human message. Handlers may return one directly; anything
// else is translated by the Kit's MapError hook.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID is stamped by the write path, not by handlers.
	RequestID string `json:"request_id,omitempty"`
	cause     error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message != "" {
		return e.Message
	}
	return e.Code
}

// Unwrap exposes the wrapped cause for errors.Is/As.
func (e *Error) Unwrap() error { return e.cause }

// Errorf builds an *Error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Wrap builds an *Error that keeps err as its cause and message.
func Wrap(status int, code string, err error) *Error {
	return &Error{Status: status, Code: code, Message: err.Error(), cause: err}
}

// AsError extracts an *Error from err's chain (nil if absent).
func AsError(err error) *Error {
	var ae *Error
	if errors.As(err, &ae) {
		return ae
	}
	return nil
}

// envelope is the v1 error body: {"error": {"code": ..., "message": ...}}.
type envelope struct {
	Error *Error `json:"error"`
}

// WriteError resolves err via the kit's mapper and writes the envelope,
// stamped with the request's id.
func (k *Kit) WriteError(w http.ResponseWriter, r *http.Request, err error) {
	ae := AsError(err)
	if ae == nil && k.MapError != nil {
		ae = k.MapError(err)
	}
	if ae == nil {
		ae = Wrap(http.StatusBadRequest, CodeInvalidArgument, err)
	}
	if k.Metrics != nil {
		comp, cat := errs.ComponentOf(err), errs.CategoryOf(err)
		if cat == "" {
			cat = codeCategories[ae.Code]
		}
		k.Metrics.ObserveError(comp, cat)
	}
	// Copy before stamping the request id: the mapper may hand back shared
	// sentinel values.
	stamped := *ae
	stamped.RequestID = RequestIDOf(r)
	// The envelope marshals unconditionally (strings and ints only), so the
	// ignored WriteJSON error can only be a wire failure — the client is
	// gone; there is nobody left to answer.
	_ = WriteJSON(w, stamped.Status, envelope{Error: &stamped})
}
