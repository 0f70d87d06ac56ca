package api

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

var errSentinel = errors.New("sentinel boom")

func testKit() *Kit {
	return &Kit{
		Metrics: NewMetrics(),
		MapError: func(err error) *Error {
			if errors.Is(err, errSentinel) {
				return Wrap(http.StatusTeapot, "teapot", err)
			}
			return Wrap(http.StatusBadRequest, CodeInvalidArgument, err)
		},
	}
}

type echoReq struct {
	Msg string `json:"msg"`
}

type echoResp struct {
	Echo string `json:"echo"`
}

func TestHandleDecodeAndEncode(t *testing.T) {
	k := testKit()
	h := Handle(k, http.StatusCreated, func(r *http.Request, req echoReq) (echoResp, error) {
		return echoResp{Echo: req.Msg}, nil
	})

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/x", strings.NewReader(`{"msg":"hi"}`)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp echoResp
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Echo != "hi" {
		t.Fatalf("body = %s (%v)", rec.Body, err)
	}

	// Unknown fields are rejected with invalid_request.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/x", strings.NewReader(`{"msg":"hi","nope":1}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", rec.Code)
	}
	assertCode(t, rec, CodeInvalidRequest)

	// Empty body on a body-carrying endpoint is invalid_request too.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/x", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body status = %d", rec.Code)
	}
}

func TestHandleNoneSkipsBody(t *testing.T) {
	k := testKit()
	h := Handle(k, http.StatusOK, func(r *http.Request, _ None) (echoResp, error) {
		return echoResp{Echo: "none"}, nil
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/x", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "none") {
		t.Fatalf("none handler = %d %s", rec.Code, rec.Body)
	}

	// None response writes only the status.
	h2 := Handle(k, http.StatusNoContent, func(r *http.Request, _ None) (None, error) {
		return None{}, nil
	})
	rec = httptest.NewRecorder()
	h2(rec, httptest.NewRequest("POST", "/x", nil))
	if rec.Code != http.StatusNoContent || rec.Body.Len() != 0 {
		t.Fatalf("none response = %d %q", rec.Code, rec.Body)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	k := testKit()
	h := Handle(k, http.StatusOK, func(r *http.Request, _ None) (None, error) {
		return None{}, errSentinel
	})

	// The envelope: structured error with the mapped code and request id.
	wrapped := Chain(http.HandlerFunc(h), RequestID)
	rec := httptest.NewRecorder()
	wrapped.ServeHTTP(rec, httptest.NewRequest("POST", "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "teapot" || env.Error.Message == "" || env.Error.RequestID == "" {
		t.Fatalf("envelope = %+v", env)
	}
	if rec.Header().Get("X-Request-Id") != env.Error.RequestID {
		t.Error("header and envelope request ids differ")
	}
}

func TestRequestIDHonorsIncoming(t *testing.T) {
	// An honored incoming id is echoed on the response header, where
	// RequestIDOf reads it.
	var got string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = RequestIDOf(w, r)
	}), RequestID)
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set("X-Request-Id", "trace-me-42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got != "trace-me-42" {
		t.Fatalf("request id = %q", got)
	}
}

// TestRecoverTurnsPanicInto500: a tracked route that panics answers 500 on
// the wire, and both renderers count it as a 5xx error, not as the 200 an
// unwritten status would default to.
func TestRecoverTurnsPanicInto500(t *testing.T) {
	k := testKit()
	logger := log.New(io.Discard, "", 0)
	h := Chain(k.Metrics.Track("GET /x", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})), RequestID, Recover(k, logger))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	assertCode(t, rec, CodeInternal)

	snap := k.Metrics.Snapshot()
	if len(snap.Routes) != 1 || snap.InFlight != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if r := snap.Routes[0]; r.Count != 1 || r.Status5xx != 1 || r.Errors != 1 || r.Status2xx != 0 {
		t.Errorf("panicking route = %+v, want status_5xx=1 errors=1 status_2xx=0", r)
	}
	var buf strings.Builder
	if err := WriteExposition(&buf, collect(k.Metrics)); err != nil {
		t.Fatal(err)
	}
	if want := `itag_http_responses_total{route="GET /x",class="5xx"} 1` + "\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("scrape lacks %q:\n%s", want, buf.String())
	}
}

func TestMetricsTrack(t *testing.T) {
	m := NewMetrics()
	ok := m.Track("GET /ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	bad := m.Track("GET /bad", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	broken := m.Track("GET /broken", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	for i := 0; i < 3; i++ {
		ok.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok", nil))
	}
	bad.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/bad", nil))
	for i := 0; i < 2; i++ {
		broken.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/broken", nil))
	}

	snap := m.Snapshot()
	if snap.TotalRequests != 6 || snap.InFlight != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	byRoute := map[string]RouteSnapshot{}
	var sum int64
	for _, r := range snap.Routes {
		byRoute[r.Route] = r
		sum += r.Count
		if r.Errors != r.Status4xx+r.Status5xx {
			t.Errorf("%s: errors = %d, want status_4xx + status_5xx = %d", r.Route, r.Errors, r.Status4xx+r.Status5xx)
		}
	}
	if snap.TotalRequests != sum {
		t.Errorf("total_requests = %d, want the routes' counts summed = %d", snap.TotalRequests, sum)
	}
	if r := byRoute["GET /ok"]; r.Count != 3 || r.Errors != 0 || r.Status2xx != 3 {
		t.Errorf("ok route = %+v", r)
	}
	if r := byRoute["GET /bad"]; r.Count != 1 || r.Errors != 1 || r.Status4xx != 1 {
		t.Errorf("bad route = %+v", r)
	}
	if r := byRoute["GET /broken"]; r.Count != 2 || r.Errors != 2 || r.Status5xx != 2 || r.Status2xx != 0 {
		t.Errorf("broken route = %+v", r)
	}
}

func assertCode(t *testing.T, rec *httptest.ResponseRecorder, want string) {
	t.Helper()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decode envelope: %v (%s)", err, rec.Body)
	}
	if env.Error.Code != want {
		t.Fatalf("code = %q, want %q", env.Error.Code, want)
	}
}
