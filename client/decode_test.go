package client_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"itag/client"
	"itag/internal/core"
	"itag/internal/server"
	"itag/internal/store"
)

// serverBody is one 200 body as a server.New stack writes it, with the type
// the SDK decodes it into.
type serverBody struct {
	name string
	into func() any // a new zero value of the route's response type
	body []byte
	fast bool // the direct decode must take it
}

// serverBodies drives a server.New stack into every shape the three
// dashboard routes answer with — a page with and without next_cursor, an
// empty page, a row whose top_tags is null, non-ASCII tags, a simulated
// resource carrying oracle and series — and the two tagger routes decoded
// directly — a leased task, a batch with submitted, leased-only and failed
// items — and returns the raw bodies. A tag holding '&' is written as a \u
// escape by the server's encoder, and so is a quote in an item's error
// message, so those bodies are the ones the direct decode must leave to
// encoding/json.
func serverBodies(tb testing.TB) []serverBody {
	tb.Helper()
	ctx := context.Background()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 7)
	srv := httptest.NewServer(server.New(svc, nil))
	defer svc.Close()
	defer srv.Close()
	c := client.New(srv.URL, srv.Client())
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	prov, err := c.RegisterProvider(ctx, "prov")
	must(err)
	tagger, err := c.RegisterTagger(ctx, "tagr")
	must(err)
	manual := func(name string, posts map[string][][]string, resources ...string) string {
		req := client.CreateProjectReq{ProviderID: prov, Name: name, Budget: 100, PayPerTask: 0.05}
		for _, id := range resources {
			req.Resources = append(req.Resources, client.UploadedResource{ID: id, Kind: "url", Name: "name of " + id})
		}
		proj, err := c.CreateProject(ctx, req)
		must(err)
		for _, id := range resources {
			for _, tags := range posts[id] {
				must(c.PromoteResource(ctx, proj, id))
				task, err := c.RequestTask(ctx, proj, tagger)
				must(err)
				if task.ResourceID != id {
					tb.Fatalf("lease went to %s, want the promoted %s", task.ResourceID, id)
				}
				must(c.SubmitTask(ctx, proj, task.ID, tags))
			}
		}
		return proj
	}
	dash := manual("dash", map[string][][]string{
		"a1": {{"go", "café"}, {"go", "データベース"}, {"Go", "db"}},
		"a3": {{"web"}},
	}, "a1", "a2", "a3")
	amp := manual("amp", map[string][][]string{"e1": {{"r&d", "go"}}}, "e1")

	// Created through the Service, so the resources keep the latent
	// distributions an oracle is measured against: an upload carries none.
	world := simWorld(tb, 3, "sim-")
	sim, err := svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: prov, Name: "sim", Budget: 30, PayPerTask: 0.05, Resources: world.Dataset.Resources,
	})
	must(err)
	tagSimulated(tb, ctx, c, sim, tagger, world, 30)
	simPage, err := c.Export(ctx, sim, "", 0)
	must(err)

	post := func(path, body string) []byte {
		tb.Helper()
		resp, err := http.Post(srv.URL+"/api/v1/projects/"+path, "application/json", strings.NewReader(body))
		must(err)
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		must(err)
		if resp.StatusCode/100 != 2 {
			tb.Fatalf("POST %s = %d %s", path, resp.StatusCode, out)
		}
		return out
	}
	tasks, err := c.CreateProject(ctx, client.CreateProjectReq{ // a lease and two batch items spend it
		ProviderID: prov, Name: "tasks", Budget: 3, PayPerTask: 0.05,
		Resources: []client.UploadedResource{{ID: "b1", Kind: "url", Name: "b1"}, {ID: "b2", Kind: "url", Name: "b2"}},
	})
	must(err)
	leased := post(tasks+"/tasks", `{"tagger_id":"`+tagger+`"}`)
	batched := post(tasks+"/tasks:batch", `{"items":[{"tagger_id":"`+tagger+`","tags":["go"]},{"tagger_id":"`+tagger+`"},{"tagger_id":"`+tagger+`","tags":["x"]}]}`)
	refused := post(tasks+"/tasks:batch", `{"items":[{"tagger_id":"ghost","tags":["go"]}]}`)

	get := func(path string) []byte {
		tb.Helper()
		resp, err := http.Get(srv.URL + "/api/v1/projects/" + path)
		must(err)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		must(err)
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("GET %s = %d %s", path, resp.StatusCode, body)
		}
		return body
	}
	page := func() any { return new(client.ExportPage) }
	screen := func() any { return new(client.ResourceStatus) }
	row := func() any { return new(client.ProjectInfo) }
	past := base64.RawURLEncoding.EncodeToString([]byte("zzz"))
	bodies := []serverBody{
		{"page with next_cursor", page, get(dash + "/export?limit=1"), true},
		{"last page, null top_tags, non-ASCII tags", page, get(dash + "/export"), true},
		{"empty page", page, get(dash + "/export?cursor=" + past), true},
		{"simulated page", page, get(sim + "/export"), true},
		{"screen with series", screen, get(dash + "/resources/a1"), true},
		{"screen with no posts", screen, get(dash + "/resources/a2"), true},
		{"screen with oracle and series", screen, get(sim + "/resources/" + simPage.Items[0].ID), true},
		{"project row", row, get(dash), true},
		{"simulated project row", row, get(sim), true},
		{"leased task", func() any { return new(client.Task) }, leased, true},
		{"batch with a submit, a lease and an exhausted budget", func() any { return new(client.BatchTasksResp) }, batched, true},
		{"page with an escaped &", page, get(amp + "/export"), false},
		{"screen with an escaped &", screen, get(amp + "/resources/e1"), false},
		{"batch with an escaped quote", func() any { return new(client.BatchTasksResp) }, refused, false},
	}
	// Each case is only worth its name while the server still writes that
	// shape.
	for i, shows := range []string{
		`"next_cursor":`, `"top_tags":null`, `{"items":[]}`, `"items":[{`,
		`"series":[0,`, `"posts":0,`, `"oracle":`, `"created_at":"`, `"mean_oracle":`,
		`"done_at":"0001-01-01T00:00:00Z"`, `"},{"error":{"code":"exhausted","message":"core: project budget exhausted"}}]`,
		"r\\u", "r\\u", `\"ghost\"`,
	} {
		if !strings.Contains(string(bodies[i].body), shows) {
			tb.Fatalf("%s: the body no longer shows %s:\n%s", bodies[i].name, shows, bodies[i].body)
		}
	}
	for _, want := range []string{"café", "データベース"} {
		if !strings.Contains(string(bodies[1].body), want) {
			tb.Fatalf("%s: no %s in\n%s", bodies[1].name, want, bodies[1].body)
		}
	}
	return bodies
}

// TestServerBodiesTakeFastPath: what the server writes for the three
// dashboard routes is what the direct decode accepts, and it decodes to what
// encoding/json does. A server-side format change that pushed every decode
// onto the fallback would pass every other test, slower; it fails here.
func TestServerBodiesTakeFastPath(t *testing.T) {
	for _, sb := range serverBodies(t) {
		want, fast, full := sb.into(), sb.into(), sb.into()
		if err := json.Unmarshal(sb.body, want); err != nil {
			t.Fatalf("%s: encoding/json: %v", sb.name, err)
		}
		if got := client.DecodeDirect(sb.body, fast); got != sb.fast {
			t.Errorf("%s: direct decode took it = %v, want %v\n%s", sb.name, got, sb.fast, sb.body)
			continue
		}
		if sb.fast && !reflect.DeepEqual(fast, want) {
			t.Errorf("%s: direct decode\n got %+v\nwant %+v", sb.name, fast, want)
		}
		// The rows' tags share one array: growing one row's must not write
		// over the next row's.
		if p, ok := fast.(*client.ExportPage); ok && sb.fast {
			for i := range p.Items {
				p.Items[i].TopTags = append(p.Items[i].TopTags, client.TagFreq{Tag: "SPILL"})
			}
			for i, row := range want.(*client.ExportPage).Items {
				for j, tf := range row.TopTags {
					if p.Items[i].TopTags[j] != tf {
						t.Errorf("%s: an append to a row's tags wrote over row %d's tag %d: %+v", sb.name, i, j, p.Items[i].TopTags[j])
					}
				}
			}
		}
		if err := client.Decode(sb.body, full); err != nil || !reflect.DeepEqual(full, want) {
			t.Errorf("%s: decode = %+v, %v\nwant %+v", sb.name, full, err, want)
		}
	}
}

// declined are bodies the direct decode must leave to encoding/json, one
// per rule; each is a fuzz seed too.
var declined = []string{
	`{"id":"a\/b"}`,                  // a backslash escape
	`{"id":"r","extra":1}`,           // an unknown key
	`{"ID":"r"}`,                     // a key json matches case-insensitively
	`{"posts":null}`,                 // null in a scalar
	`{"promoted":null}`,              // ... a bool
	"{\"id\":\"\xff\"}",              // invalid UTF-8
	`{"id":"r"} x`,                   // trailing bytes
	`{"id":"r"}{}`,                   // ... a second value
	`{"posts":01}`,                   // a leading zero
	`{"posts":+1}`,                   // a plus sign
	`{"stability":1.}`,               // a bare decimal point
	`{"stability":1e}`,               // an empty exponent
	`{"posts":1.5}`,                  // a fraction in an int
	`{"posts":99999999999999999999}`, // an int out of range
	`{"stability":1e999}`,            // a float out of range
	`{"id":"a","id":"b"}`,            // a repeated key
	"{\"id\":\"a\tb\"}",              // a raw control character
	`{"series":[1,null]}`,            // null in a number array
	`{"top_tags":[null]}`,            // null for an object
	`{"top_tags":[{"tag":"a"}],"top_tags":[{"count":2}]}`, // json merges the second into the first
	`{"project":{"created_at":"yesterday"}}`,              // a time json rejects
	`{"project":{"created_at":null}}`,                     // null for a time
	`{"project":null}`,                                    // null for an object
	`null`,                                                // null for the response
	`[]`,                                                  // not an object
	``,                                                    // nothing
	`{"results":[{"error":null}]}`,                        // null for an item's error
	`{"results":[{"submitted":1}]}`,                       // a number for a bool
	`{"done_at":"2026-13-01T00:00:00Z"}`,                  // a time json rejects
}

// TestDirectDecodeDeclines: each rule's body is left to encoding/json, for
// every type that could hold it, and decodes (or fails) as json decides.
func TestDirectDecodeDeclines(t *testing.T) {
	for _, body := range declined {
		for _, into := range []func() any{
			func() any { return new(client.ExportPage) },
			func() any { return new(client.ResourceStatus) },
			func() any { return new(client.ProjectInfo) },
			func() any { return new(client.Task) },
			func() any { return new(client.BatchTasksResp) },
		} {
			fast, full, want := into(), into(), into()
			if client.DecodeDirect([]byte(body), fast) {
				t.Errorf("%T: direct decode took %q", fast, body)
			}
			if !reflect.DeepEqual(fast, into()) {
				t.Errorf("%T: a declined decode of %q wrote %+v", fast, body, fast)
			}
			err, wantErr := client.Decode([]byte(body), full), json.Unmarshal([]byte(body), want)
			if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(full, want) {
				t.Errorf("%T %q: decode = %+v, %v; json = %+v, %v", full, body, full, err, want, wantErr)
			}
		}
	}
}

// FuzzDecodeParity: for any bytes and each directly decoded type, either the
// direct decode declines (and leaves its target as it found it), or
// json.Unmarshal accepts the same bytes and decodes a reflect.DeepEqual
// value; and the decode every 200 goes through errors exactly when
// json.Unmarshal does, with the same result. Seeds are real server bodies
// plus one body per rule the direct decode declines by.
//
//	go test -run '^$' -fuzz '^FuzzDecodeParity$' -fuzztime 30s ./client
func FuzzDecodeParity(f *testing.F) {
	for _, sb := range serverBodies(f) {
		f.Add(sb.body)
	}
	for _, body := range declined {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		parity[client.ExportPage](t, body)
		parity[client.ResourceStatus](t, body)
		parity[client.ProjectInfo](t, body)
		parity[client.Task](t, body)
		parity[client.BatchTasksResp](t, body)
	})
}

func parity[T any](t *testing.T, body []byte) {
	var fast, full, want, zero T
	wantErr := json.Unmarshal(body, &want)
	if client.DecodeDirect(body, &fast) {
		if wantErr != nil {
			t.Fatalf("%T: direct decode took %q, which json rejects: %v", fast, body, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%T %q: direct decode\n got %#v\nwant %#v", fast, body, fast, want)
		}
	} else if !reflect.DeepEqual(fast, zero) {
		t.Fatalf("%T: a declined decode of %q wrote %#v", fast, body, fast)
	}
	err := client.Decode(body, &full)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%T %q: decode error %v, json error %v", full, body, err, wantErr)
	}
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("%T %q: decode\n got %#v\nwant %#v", full, body, full, want)
	}
}

// BenchmarkDecodeExportPage times the decode of one 50-row export page of ten
// Zipf-drawn tags a row, encoded the way the server encodes it: fast is the
// SDK's decode of a 200 (the direct decode), encoding_json is json.Unmarshal
// of the same bytes, the decode every 200 went through before.
//
//	go test -run '^$' -bench DecodeExportPage -benchmem ./client
func BenchmarkDecodeExportPage(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.2, 4, 4095)
	var page client.ExportPage
	for i := 0; i < 50; i++ {
		row := client.ExportedResource{ID: fmt.Sprintf("res-%05d", i), Name: fmt.Sprintf("resource %d", i), Posts: 20 + r.Intn(200), Stability: r.Float64()}
		for j := 0; j < 10; j++ {
			n := 10 - j + r.Intn(3)
			row.TopTags = append(row.TopTags, client.TagFreq{Tag: fmt.Sprintf("tag-%d", zipf.Uint64()), Count: n, Freq: float64(n) / float64(row.Posts)})
		}
		page.Items = append(page.Items, row)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(page); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	if strings.Contains(string(body), `\`) {
		b.Fatal("the page holds an escape: it measures the fallback")
	}
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got client.ExportPage
			if err := client.Decode(body, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got client.ExportPage
			if err := json.Unmarshal(body, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
