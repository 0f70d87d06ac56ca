package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"itag/internal/errs"
)

// unmarshalable fails the encoder: the marshal-failure path must surface
// through the errs taxonomy instead of being silently dropped.
type unmarshalable struct{}

func (unmarshalable) MarshalJSON() ([]byte, error) { return nil, errors.New("refuse") }

func TestWriteJSONParityAndFraming(t *testing.T) {
	v := map[string]any{"msg": "hi", "n": 42, "esc": "<&>"}
	rec := httptest.NewRecorder()
	if err := WriteJSON(rec, http.StatusOK, v); err != nil {
		t.Fatal(err)
	}
	// Byte parity with the seed per-request encoder, trailing newline
	// included.
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(v)
	if rec.Body.String() != want.String() {
		t.Fatalf("pooled encode diverged:\n got %q\nwant %q", rec.Body, want.String())
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
		t.Fatalf("Content-Length = %q, want %d", got, want.Len())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type = %q", got)
	}
}

func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	err := WriteJSON(rec, http.StatusOK, unmarshalable{})
	if err == nil {
		t.Fatal("marshal failure returned nil")
	}
	if errs.ComponentOf(err) != errs.ComponentAPI || errs.CategoryOf(err) != errs.CategoryInternal {
		t.Fatalf("taxonomy = %s/%s, want api/internal", errs.ComponentOf(err), errs.CategoryOf(err))
	}
	// Nothing reached the wire: the caller can still answer with a 500.
	if rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "" {
		t.Fatalf("marshal failure leaked bytes: body=%q headers=%v", rec.Body, rec.Header())
	}
}

func TestHandleMarshalFailureAnswers500(t *testing.T) {
	k := testKit()
	h := Handle(k, http.StatusOK, func(r *http.Request, _ None) (unmarshalable, error) {
		return unmarshalable{}, nil
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/api/v1/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	assertCode(t, rec, CodeInternal)
	// The failure landed in the api×internal cell of the error matrix.
	k.Metrics.errMu.Lock()
	n := k.Metrics.errCounts[errKey{errs.ComponentAPI, errs.CategoryInternal}]
	k.Metrics.errMu.Unlock()
	if n == 0 {
		t.Fatal("marshal failure not counted in the error matrix")
	}
}

func TestAppendJSONMatchesWriteJSON(t *testing.T) {
	v := []string{"a", "b"}
	got, err := AppendJSON(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	_ = WriteJSON(rec, http.StatusOK, v)
	if !bytes.Equal(got, rec.Body.Bytes()) {
		t.Fatalf("AppendJSON %q != WriteJSON %q", got, rec.Body)
	}
	// Appends after existing content, does not replace it.
	got2, err := AppendJSON([]byte("x"), v)
	if err != nil || string(got2) != "x"+string(got) {
		t.Fatalf("AppendJSON with prefix = %q (%v)", got2, err)
	}
	if _, err := AppendJSON(nil, unmarshalable{}); errs.CategoryOf(err) != errs.CategoryInternal {
		t.Fatalf("AppendJSON marshal failure taxonomy = %v", err)
	}
}

func TestHandleRawResponse(t *testing.T) {
	k := testKit()
	body := []byte("{\"cached\":true}\n")
	raw := &Raw{
		Body:          body,
		ETag:          []string{`"7-f"`},
		CacheControl:  NoCacheValue(),
		ContentLength: []string{strconv.Itoa(len(body))},
	}
	h := Handle(k, http.StatusOK, func(r *http.Request, _ None) (*Raw, error) {
		return raw, nil
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/api/v1/x", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != string(body) {
		t.Fatalf("raw response = %d %q", rec.Code, rec.Body)
	}
	for hdr, want := range map[string]string{
		"Etag": `"7-f"`, "Cache-Control": "no-cache",
		"Content-Type": "application/json", "Content-Length": strconv.Itoa(len(body)),
	} {
		if got := rec.Header().Get(hdr); got != want {
			t.Fatalf("%s = %q, want %q", hdr, got, want)
		}
	}

	// 304 form: status override, validator headers, no body, no framing.
	notMod := &Raw{Status: http.StatusNotModified, ETag: []string{`"7-f"`}, CacheControl: NoCacheValue()}
	h304 := Handle(k, http.StatusOK, func(r *http.Request, _ None) (*Raw, error) {
		return notMod, nil
	})
	rec = httptest.NewRecorder()
	h304(rec, httptest.NewRequest("GET", "/api/v1/x", nil))
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("304 response = %d %q", rec.Code, rec.Body)
	}
	if rec.Header().Get("Etag") != `"7-f"` {
		t.Fatalf("304 Etag = %q", rec.Header().Get("Etag"))
	}
	if rec.Header().Get("Content-Length") != "" || rec.Header().Get("Content-Type") != "" {
		t.Fatalf("304 must carry no body framing: %v", rec.Header())
	}

	// Content-Length computed when the precomputed slice is absent.
	rec = httptest.NewRecorder()
	if err := WriteRaw(rec, http.StatusOK, &Raw{Body: body}); err != nil {
		t.Fatal(err)
	}
	if rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Fatalf("computed Content-Length = %q", rec.Header().Get("Content-Length"))
	}

	// A nil *Raw from a handler is an internal error, not a panic.
	hNil := Handle(k, http.StatusOK, func(r *http.Request, _ None) (*Raw, error) {
		return nil, nil
	})
	rec = httptest.NewRecorder()
	hNil(rec, httptest.NewRequest("GET", "/api/v1/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("nil raw status = %d, want 500", rec.Code)
	}
}

func TestETagMatch(t *testing.T) {
	req := func(inm string) *http.Request {
		r := httptest.NewRequest("GET", "/x", nil)
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		return r
	}
	cases := []struct {
		inm, etag string
		want      bool
	}{
		{``, `"a"`, false},
		{`"a"`, `"a"`, true},
		{`"a"`, `"b"`, false},
		{`"a"`, ``, false},
		{`*`, `"anything"`, true},
		{`"a", "b", "c"`, `"b"`, true},
		{`"a","b"`, `"b"`, true},
		{`W/"a"`, `"a"`, true}, // weak comparison: W/ ignored on either side
		{`"a"`, `W/"a"`, true},
		{`W/"a"`, `W/"a"`, true},
		{`"aa"`, `"a"`, false},
		{` "a" , "b" `, `"b"`, true},
	}
	for _, c := range cases {
		if got := ETagMatch(req(c.inm), c.etag); got != c.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", c.inm, c.etag, got, c.want)
		}
	}
}

func TestRequestIDFastPath(t *testing.T) {
	// Incoming id: echoed on the response and visible via RequestIDOf.
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDOf(w, r)
	}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-Id", "rid-42")
	h.ServeHTTP(rec, req)
	if seen != "rid-42" || rec.Header().Get("X-Request-Id") != "rid-42" {
		t.Fatalf("fast path: handler saw %q, response %q", seen, rec.Header().Get("X-Request-Id"))
	}

	// No incoming id: one is minted onto the response header.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if seen == "" || seen == "rid-42" || rec.Header().Get("X-Request-Id") != seen {
		t.Fatalf("minted id: handler saw %q, response %q", seen, rec.Header().Get("X-Request-Id"))
	}
}

// TestMintedRequestIDText: a minted id reads as the fmt format it was
// written with before, through the counter's sixth and seventh digit.
func TestMintedRequestIDText(t *testing.T) {
	for _, n := range []uint64{1, 999999, 1000000} {
		if got, want := mintRequestID(n), fmt.Sprintf("req-%x-%06d", processEpoch&0xffffff, n); got != want {
			t.Errorf("counter %d: minted %q, want %q", n, got, want)
		}
	}
}
