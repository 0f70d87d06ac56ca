package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/store"
	"itag/internal/wire"
)

// postRaw sends body as it is and returns the status and the body answered.
func (c *client) postRaw(path string, body []byte) (int, []byte) {
	c.t.Helper()
	resp, err := http.Post(c.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// manualProject creates a project over the uploaded resources and returns its
// ID.
func (c *client) manualProject(provider string, budget int, resources ...string) string {
	c.t.Helper()
	req := CreateProjectReq{ProviderID: provider, Name: "m", Budget: budget, PayPerTask: 0.05}
	for _, id := range resources {
		req.Resources = append(req.Resources, UploadedResource{ID: id, Kind: "url", Name: "name of " + id})
	}
	var created registerResp
	c.do("POST", "/api/v1/projects", req, http.StatusCreated, &created)
	return created.ID
}

// TestTaskRoutesRefuseTrailingGarbage: a body with anything after its value
// is 400 invalid_request — on a route decoded by encoding/json (provider
// registration) and on tasks:batch, whether the body is one its direct
// decoder takes or one only encoding/json decodes (an escaped tag). Nothing
// is registered, leased or posted for it.
func TestTaskRoutesRefuseTrailingGarbage(t *testing.T) {
	c := newV1Client(t)
	prov := c.register("providers", "p")
	tagger := c.register("taggers", "t")
	proj := c.manualProject(prov, 10, "u1", "u2")
	batch := "/api/v1/projects/" + proj + "/tasks:batch"
	direct := fmt.Sprintf(`{"items":[{"tagger_id":%q,"tags":["go"]}]}`, tagger)
	escaped := fmt.Sprintf(`{"items":[{"tagger_id":%q,"tags":["g\u006f"]}]}`, tagger)
	for _, c2 := range []struct{ path, body string }{
		{"/api/v1/providers", `{"name":"q"} garbage`},
		{batch, direct + ` garbage`},
		{batch, direct + `{}`},
		{batch, escaped + ` garbage`},
		{"/api/v1/projects/" + proj + "/tasks", fmt.Sprintf(`{"tagger_id":%q}x`, tagger)},
	} {
		status, body := c.postRaw(c2.path, []byte(c2.body))
		if status != http.StatusBadRequest || !strings.Contains(string(body), `"code":"invalid_request"`) {
			t.Errorf("POST %s %s = %d %s, want 400 invalid_request", c2.path, c2.body, status, body)
		}
	}
	var info core.ProjectInfo
	c.do("GET", "/api/v1/projects/"+proj, nil, http.StatusOK, &info)
	if info.Spent != 0 || info.PendingTasks != 0 {
		t.Errorf("a refused body leased or posted: %+v", info)
	}
	// The same bodies without the garbage go through, on both paths.
	for _, body := range []string{direct, escaped + "\n"} {
		if status, out := c.postRaw(batch, []byte(body)); status != http.StatusOK || !strings.Contains(string(out), `"ok":1`) {
			t.Errorf("POST %s = %d %s", body, status, out)
		}
	}
}

// TestTasksBatchBodyCap: a tasks:batch body of api.MaxBody bytes is decoded
// (and answered by the handler); one byte more is 413 batch_too_large. A
// call at the 10 000-item cap, with a dozen 15-byte tags per item (2.4 MiB),
// fits in half the cap.
func TestTasksBatchBodyCap(t *testing.T) {
	c := newV1Client(t)
	prov := c.register("providers", "p")
	tagger := c.register("taggers", "t")
	proj := c.manualProject(prov, 10, "u1")
	batch := "/api/v1/projects/" + proj + "/tasks:batch"

	value := []byte(fmt.Sprintf(`{"items":[{"tagger_id":%q,"tags":["go"]}]}`, tagger))
	atCap := append(value, bytes.Repeat([]byte{'\n'}, api.MaxBody-len(value))...)
	if status, out := c.postRaw(batch, atCap); status != http.StatusOK {
		t.Fatalf("a body at the cap: %d %s", status, out)
	}
	status, out := c.postRaw(batch, append(atCap, '\n'))
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), `"code":"batch_too_large"`) {
		t.Fatalf("a body one byte past the cap: %d %s", status, out)
	}

	items := make([]core.BatchItem, maxBatchItems)
	for i := range items {
		items[i] = core.BatchItem{TaggerID: fmt.Sprintf("tag-%06d", i)}
		for j := 0; j < 12; j++ {
			items[i].Tags = append(items[i].Tags, fmt.Sprintf("tag-%011d", j))
		}
	}
	full, err := json.Marshal(batchTasksReq{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) > api.MaxBody/2 {
		t.Errorf("a %d-item call is %d bytes, more than half the %d-byte cap", maxBatchItems, len(full), api.MaxBody)
	}
}

// TestUploadedResourceIDsDoNotCollide: a project may not upload a resource ID
// another project holds — resource keys are bare IDs, so the second upload
// would overwrite the first project's row. The second create answers 409
// conflict and writes nothing: the first project still lists and exports its
// resource, and no second project exists.
func TestUploadedResourceIDsDoNotCollide(t *testing.T) {
	c := newV1Client(t)
	prov := c.register("providers", "p")
	first := c.manualProject(prov, 10, "u1", "u2")
	c.do("POST", "/api/v1/projects", CreateProjectReq{
		ProviderID: prov, Name: "second", Budget: 10, PayPerTask: 0.05,
		Resources: []UploadedResource{{ID: "u3", Kind: "url", Name: "x"}, {ID: "u1", Kind: "url", Name: "y"}},
	}, http.StatusConflict, nil)

	var page exportPage
	c.do("GET", "/api/v1/projects/"+first+"/export", nil, http.StatusOK, &page)
	if len(page.Items) != 2 || page.Items[0].ID != "u1" || page.Items[0].Name != "name of u1" {
		t.Errorf("the first project's export after the refused create: %+v", page.Items)
	}
	var projects projectsPage
	c.do("GET", "/api/v1/projects", nil, http.StatusOK, &projects)
	if len(projects.Items) != 1 {
		t.Errorf("%d projects after the refused create, want 1", len(projects.Items))
	}
	// u3 was not written either: a later project may upload it.
	c.manualProject(prov, 10, "u3")
}

// --- request decode parity --------------------------------------------------------

// strictDecode is the request decode Handle has always run — one
// json.Decoder.Decode with unknown fields disallowed — plus the refusal of
// anything but whitespace after the value.
func strictDecode(body []byte, v any) (trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return false, err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return true, errors.New("trailing data")
	}
	return false, nil
}

// requestParity holds one request type's direct decoder and the route
// decode to encoding/json for one body: what the direct decoder takes,
// strictDecode takes to a reflect.DeepEqual value; and Handle, given the
// body, answers what strictDecode decided — the decoded value (echoed), or
// 400 invalid_request with encoding/json's own message.
func requestParity[T any, P interface {
	*T
	api.Decodable
}](t *testing.T, body []byte) {
	var fast, want T
	trailing, wantErr := strictDecode(body, &want)
	if wire.Into(body, &fast, func(d *wire.Decoder, v *T) bool { return P(v).DecodeWire(d) }) {
		if wantErr != nil {
			t.Fatalf("%T: the direct decoder took %q, which encoding/json refuses: %v", fast, body, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%T %q: direct decode\n got %#v\nwant %#v", fast, body, fast, want)
		}
	}

	h := api.Handle(&api.Kit{}, http.StatusOK, func(_ *http.Request, req T) (T, error) { return req, nil })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/", bytes.NewReader(body)))
	if wantErr == nil {
		echo, _ := json.Marshal(want)
		if rec.Code != http.StatusOK || rec.Body.String() != string(echo)+"\n" {
			t.Fatalf("%T %q: answered %d %s, want 200 %s", want, body, rec.Code, rec.Body, echo)
		}
		return
	}
	var env struct{ Error api.Error }
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != api.CodeInvalidRequest {
		t.Fatalf("%T %q: answered %d %s, want 400 invalid_request", want, body, rec.Code, rec.Body)
	}
	if msg := "invalid request body: " + wantErr.Error(); !trailing && env.Error.Message != msg {
		t.Fatalf("%T %q: message %q, want %q", want, body, env.Error.Message, msg)
	}
}

// requestSeeds are the task routes' bodies as the SDK writes them, and one
// body per rule the direct decoders decline by.
var requestSeeds = []string{
	`{"tagger_id":"tag-000002"}`,
	`{"tags":["cat","tabby"]}`,
	`{"tags":null}`,
	`{"tags":[]}`,
	`{"items":[{"tagger_id":"tag-000002","tags":["cat","tabby"]},{"tagger_id":"tag-000003"}]}`,
	`{"items":[]}`,
	`{"items":null}`,
	`{}`,
	` {"items":[{"tags":["a"],"tagger_id":"t"}]} ` + "\n",
	`{"tagger_id":"t\u0031"}`,                  // an escape
	`{"Tagger_ID":"t"}`,                        // a key json matches case-insensitively
	`{"tagger_id":"t","extra":1}`,              // an unknown key
	`{"tagger_id":null}`,                       // null for a string
	`{"tags":["a",null]}`,                      // ... in a list
	`{"items":[null]}`,                         // null for an object
	`{"items":[{"tagger_id":"t","tags":"a"}]}`, // a string for a list
	`{"tags":["a"],"tags":["b"]}`,              // a repeated key
	"{\"tagger_id\":\"\xff\"}",                 // invalid UTF-8
	"{\"tags\":[\"a\tb\"]}",                    // a raw control character
	`{"tagger_id":"t"} x`,                      // trailing bytes
	`{"tagger_id":"t"}{}`,                      // ... a second value
	`{"tagger_id":1}`,                          // a number for a string
	`{"tagger_id":"t"`,                         // truncated
	`[]`,                                       // not an object
	``,                                         // nothing
}

// FuzzRequestDecodeParity: for any body and each task route's request type,
// the direct decoder takes only what the strict encoding/json decode takes,
// to a reflect.DeepEqual value, and the route answers exactly what that
// decode decides: the value, or 400 invalid_request with json's message.
//
//	go test -run '^$' -fuzz '^FuzzRequestDecodeParity$' -fuzztime 30s ./internal/server
func FuzzRequestDecodeParity(f *testing.F) {
	for _, body := range requestSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		requestParity[requestTaskReq](t, body)
		requestParity[submitTaskReq](t, body)
		requestParity[batchTasksReq](t, body)
	})
}

// TestSDKRequestsTakeDirectPath: the bodies the SDK sends on the task routes
// (json.Marshal of the maps it always sent) are the ones the direct decoders
// take. A change to either side that pushed them onto encoding/json would
// pass every parity test, slower; it fails here.
func TestSDKRequestsTakeDirectPath(t *testing.T) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var lease requestTaskReq
	var submit submitTaskReq
	var batch batchTasksReq
	for _, c := range []struct {
		body  []byte
		parse func(*wire.Decoder) bool
	}{
		{marshal(map[string]string{"tagger_id": "tag-000002"}), lease.DecodeWire},
		{marshal(map[string][]string{"tags": {"cat", "tabby", "café"}}), submit.DecodeWire},
		{marshal(map[string][]core.BatchItem{"items": {{TaggerID: "tag-000002", Tags: []string{"cat"}}, {TaggerID: "tag-000003"}}}), batch.DecodeWire},
	} {
		if !wire.Into(c.body, new(struct{}), func(d *wire.Decoder, _ *struct{}) bool { return c.parse(d) }) {
			t.Errorf("the direct decoder declines the SDK's %s", c.body)
		}
	}
	if len(batch.Items) != 2 || batch.Items[1].Tags != nil || lease.TaggerID != "tag-000002" || len(submit.Tags) != 3 {
		t.Errorf("decoded %+v, %+v, %+v", lease, submit, batch)
	}
}

// --- response encode parity ------------------------------------------------------

var trickyStrings = []string{"", "a", "<&>", `"\`, "\x00\x1f", "\u2028", "é世😀", "\xff", "tag-000002"}

var trickyFloats = []float64{0, 0.05, 1e-7, 1e21, -1, 123.456, math.NaN(), math.Inf(1)}

// responseParity holds each task route's response encoder to json.Marshal
// for values built from a, b, x and n: the same bytes, or — for a task record
// json.Marshal refuses — a decline.
func responseParity(t *testing.T, a, b string, x float64, n int64, flag bool) {
	t.Helper()
	tm := time.Unix(n%(1<<35), n%1e9).UTC()
	if flag {
		tm = tm.In(time.FixedZone("", int(n%(30*3600))))
	}
	res := []batchTaskResult{
		{TaskID: a, ResourceID: b, Submitted: flag},
		{},
		{Error: &itemError{Code: b, Message: a}},
		{TaskID: a, Submitted: !flag, Error: &itemError{}},
	}
	for _, v := range []api.Appender{
		submitResp{Submitted: flag},
		batchTasksResp{Results: res[:n&3], OK: int(n), Failed: int(x)},
		batchTasksResp{Results: res, OK: 1},
		batchTasksResp{},
		store.TaskRec{ID: a, ProjectID: b, ResourceID: a, WorkerID: b, Status: store.TaskStatus(a), Reward: x, CreatedAt: tm, DoneAt: tm},
	} {
		want, wantErr := json.Marshal(v)
		got, ok := v.AppendJSON([]byte("prefix"))
		switch {
		case wantErr != nil:
			if ok {
				t.Fatalf("%#v: AppendJSON encodes what json.Marshal refuses (%v): %s", v, wantErr, got)
			}
		case !ok:
			t.Fatalf("%#v: AppendJSON declines what json.Marshal encodes: %s", v, want)
		case string(got) != "prefix"+string(want):
			t.Fatalf("%#v:\nAppendJSON   %s\njson.Marshal %s", v, got[len("prefix"):], want)
		}
	}
}

// TestTaskResponsesMatchMarshal runs seeded values through every task-route
// response encoder: strings with HTML characters, quotes, control bytes,
// U+2028 and invalid UTF-8; NaN and infinite rewards; zoned times.
func TestTaskResponsesMatchMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		responseParity(t, trickyStrings[r.Intn(len(trickyStrings))], trickyStrings[r.Intn(len(trickyStrings))],
			trickyFloats[r.Intn(len(trickyFloats))], r.Int63()-r.Int63(), r.Intn(2) == 0)
	}
}

// FuzzTaskResponseEncoding is TestTaskResponsesMatchMarshal over any input.
//
//	go test -run '^$' -fuzz '^FuzzTaskResponseEncoding$' -fuzztime 30s ./internal/server
func FuzzTaskResponseEncoding(f *testing.F) {
	f.Add("tag-000002", "<a&b>", 0.05, int64(1760531400), true)
	f.Add("\xff\u2028", "\x00\"\\", 1e21, int64(-7), false)
	f.Fuzz(func(t *testing.T, a, b string, x float64, n int64, flag bool) {
		responseParity(t, a, b, x, n, flag)
	})
}
