package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"itag/internal/wire"
)

// directReq is echoReq with a direct decoder, counting the bodies it took.
type directReq struct {
	Msg string `json:"msg"`
}

var directTaken int

func (q *directReq) DecodeWire(d *wire.Decoder) bool {
	ok := d.Object(func(key string) (uint, bool) {
		if key == "msg" {
			return 1, d.String(&q.Msg)
		}
		return 0, false
	})
	if ok {
		directTaken++
	}
	return ok
}

// envelopeOf decodes an error envelope's code and message.
func envelopeOf(t *testing.T, rec *httptest.ResponseRecorder) (code, message string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decode envelope: %v (%s)", err, rec.Body)
	}
	return env.Error.Code, env.Error.Message
}

// TestTrailingGarbageRefused: a body holding anything but whitespace after
// its value is 400 invalid_request, as the code table promises, on a route
// whose request decodes through encoding/json and on one whose request
// decodes directly; whitespace after the value is fine on both.
func TestTrailingGarbageRefused(t *testing.T) {
	k := testKit()
	routes := map[string]http.HandlerFunc{
		"encoding/json": Handle(k, http.StatusCreated, func(_ *http.Request, req echoReq) (echoResp, error) {
			return echoResp{Echo: req.Msg}, nil
		}),
		"direct": Handle(k, http.StatusCreated, func(_ *http.Request, req directReq) (echoResp, error) {
			return echoResp{Echo: req.Msg}, nil
		}),
	}
	for name, h := range routes {
		for body, want := range map[string]string{
			`{"msg":"hi"} garbage`:    "invalid request body: invalid character 'g' after top-level value",
			`{"msg":"hi"}{}`:          "invalid request body: invalid character '{' after top-level value",
			`{"msg":"h\/i"} x`:        "invalid request body: invalid character 'x' after top-level value",
			"{\"msg\":\"hi\"}\n\"x\"": `invalid request body: invalid character '"' after top-level value`,
		} {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest("POST", "/x", strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %q: status %d, want 400", name, body, rec.Code)
				continue
			}
			if code, msg := envelopeOf(t, rec); code != CodeInvalidRequest || msg != want {
				t.Errorf("%s %q: %s %q, want %s %q", name, body, code, msg, CodeInvalidRequest, want)
			}
		}
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/x", strings.NewReader(" {\"msg\":\"hi\"} \r\n\t ")))
		if rec.Code != http.StatusCreated {
			t.Errorf("%s: whitespace after the value: status %d (%s)", name, rec.Code, rec.Body)
		}
	}
}

// TestDirectDecodeTakesWhatItCan: a body shaped the way the direct decoder
// takes is decoded by it; one it declines (an escape, a key json matches
// case-insensitively, an unknown key) is left to encoding/json, which decodes
// or refuses it exactly as it always has.
func TestDirectDecodeTakesWhatItCan(t *testing.T) {
	k := testKit()
	h := Handle(k, http.StatusOK, func(_ *http.Request, req directReq) (echoResp, error) {
		return echoResp{Echo: req.Msg}, nil
	})
	for _, c := range []struct {
		body   string
		direct bool
		status int
		echo   string
	}{
		{`{"msg":"hi"}`, true, http.StatusOK, "hi"},
		{`{}`, true, http.StatusOK, ""},
		{`{"msg":"h\/i"}`, false, http.StatusOK, "h/i"},
		{`{"MSG":"hi"}`, false, http.StatusOK, "hi"},
		{`{"msg":null}`, false, http.StatusOK, ""},
		{`{"msg":"hi","nope":1}`, false, http.StatusBadRequest, ""},
		{`{"msg":1}`, false, http.StatusBadRequest, ""},
		{``, false, http.StatusBadRequest, ""},
	} {
		before := directTaken
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/x", strings.NewReader(c.body)))
		if took := directTaken > before; took != c.direct {
			t.Errorf("%q: direct decode took it = %v, want %v", c.body, took, c.direct)
		}
		if rec.Code != c.status {
			t.Errorf("%q: status %d, want %d (%s)", c.body, rec.Code, c.status, rec.Body)
			continue
		}
		var got echoResp
		if c.status == http.StatusOK && (json.Unmarshal(rec.Body.Bytes(), &got) != nil || got.Echo != c.echo) {
			t.Errorf("%q: echoed %s, want %q", c.body, rec.Body, c.echo)
		}
	}
}

// TestRequestBodyCap: a body of MaxBody bytes is read and decoded; one byte
// more answers 413 batch_too_large, whichever decoder the route has and
// whatever Content-Length claims.
func TestRequestBodyCap(t *testing.T) {
	k := testKit()
	h := Handle(k, http.StatusOK, func(_ *http.Request, req directReq) (echoResp, error) {
		return echoResp{Echo: req.Msg}, nil
	})
	value := []byte(`{"msg":"hi"}`)
	atCap := append(value, bytes.Repeat([]byte{' '}, MaxBody-len(value))...)
	for _, c := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"at the cap", atCap, http.StatusOK},
		{"one byte past the cap", append(atCap, ' '), http.StatusRequestEntityTooLarge},
	} {
		for _, length := range []int64{int64(len(c.body)), -1} { // declared, and chunked
			req := httptest.NewRequest("POST", "/x", bytes.NewReader(c.body))
			req.ContentLength = length
			rec := httptest.NewRecorder()
			h(rec, req)
			if rec.Code != c.status {
				t.Fatalf("%s (Content-Length %d): status %d, want %d", c.name, length, rec.Code, c.status)
			}
			if c.status != http.StatusOK {
				if code, _ := envelopeOf(t, rec); code != CodeBatchTooLarge {
					t.Errorf("%s: code %s, want %s", c.name, code, CodeBatchTooLarge)
				}
			}
		}
	}
}

// selfEncoded is a response that encodes itself, and says so in its bytes.
type selfEncoded struct {
	X float64 `json:"x"`
}

func (s selfEncoded) AppendJSON(dst []byte) ([]byte, bool) {
	if math.IsNaN(s.X) {
		return append(dst, "partial"...), false
	}
	return append(dst, `{"x":"appended"}`...), true
}

// TestWriteJSONUsesAppender: an Appender's own bytes go out, newline-ended
// as json.Encoder ends them, through WriteJSON and AppendJSON alike; one that
// declines is encoded by encoding/json, whose error a NaN is.
func TestWriteJSONUsesAppender(t *testing.T) {
	rec := httptest.NewRecorder()
	if err := WriteJSON(rec, http.StatusOK, selfEncoded{X: 1}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != "{\"x\":\"appended\"}\n" || rec.Header().Get("Content-Length") != "17" {
		t.Errorf("WriteJSON wrote %q, Content-Length %s", got, rec.Header().Get("Content-Length"))
	}
	if got, err := AppendJSON([]byte("x"), selfEncoded{X: 1}); err != nil || string(got) != "x{\"x\":\"appended\"}\n" {
		t.Errorf("AppendJSON = %q, %v", got, err)
	}
	rec = httptest.NewRecorder()
	if err := WriteJSON(rec, http.StatusOK, selfEncoded{X: math.NaN()}); err == nil || rec.Body.Len() != 0 {
		t.Errorf("a declined NaN: err %v, wrote %q", err, rec.Body)
	}
}
