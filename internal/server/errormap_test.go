package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"itag/internal/api"
)

// TestErrorMapping table-tests that every service sentinel produces the
// documented HTTP status and machine-readable code (docs/API.md error-code
// table).
func TestErrorMapping(t *testing.T) {
	c := newV1Client(t)
	prov := c.register("providers", "alice")
	tagr := c.register("taggers", "bob")
	running := c.createSimProject(prov, 50).id

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{
			name:   "store.ErrNotFound on user lookup",
			method: "GET", path: "/api/v1/users/ghost",
			wantStatus: http.StatusNotFound, wantCode: api.CodeNotFound,
		},
		{
			name:   "store.ErrNotFound on project lookup",
			method: "GET", path: "/api/v1/projects/ghost",
			wantStatus: http.StatusNotFound, wantCode: api.CodeNotFound,
		},
		{
			name:       "store.ErrNotFound judging a missing post",
			method:     "POST",
			path:       "/api/v1/projects/" + running + "/posts/no-such-resource/1/judge",
			body:       judgeReq{Approved: true},
			wantStatus: http.StatusNotFound, wantCode: api.CodeNotFound,
		},
		{
			// A served project has one kind: there is no simulated run to
			// start.
			name:       "retired start route",
			method:     "POST",
			path:       "/api/v1/projects/" + running + "/start",
			wantStatus: http.StatusNotFound, wantCode: api.CodeNotFound,
		},
		{
			name:       "core.ErrInvalidRole rating a tagger",
			method:     "POST",
			path:       "/api/v1/providers/" + tagr + "/rate",
			body:       rateReq{Positive: true},
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidRole,
		},
		{
			name:   "validation error on create",
			method: "POST", path: "/api/v1/projects",
			body:       CreateProjectReq{},
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidArgument,
		},
		{
			name:   "negative pay per task on create",
			method: "POST", path: "/api/v1/projects",
			body:       CreateProjectReq{ProviderID: prov, Name: "p", Budget: 10, PayPerTask: -0.05, Resources: []UploadedResource{{ID: "u1"}}},
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidArgument,
		},
		{
			name:   "retired simulate field on create",
			method: "POST", path: "/api/v1/projects",
			body:       map[string]any{"provider_id": prov, "name": "p", "budget": 10, "simulate": true},
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidRequest,
		},
		{
			name:   "malformed body",
			method: "POST", path: "/api/v1/projects",
			body:       map[string]any{"unknown_field": 1},
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidRequest,
		},
		{
			name:       "unknown series",
			method:     "GET",
			path:       "/api/v1/projects/" + running + "/series?name=nope",
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidArgument,
		},
		{
			name:       "bad pagination cursor",
			method:     "GET",
			path:       "/api/v1/projects?cursor=%21%21not-base64%21%21",
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidArgument,
		},
		{
			name:       "bad pagination limit",
			method:     "GET",
			path:       "/api/v1/projects?limit=minus-one",
			wantStatus: http.StatusBadRequest, wantCode: api.CodeInvalidArgument,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := rawDo(t, c, tc.method, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			var env struct {
				Error struct {
					Code      string `json:"code"`
					Message   string `json:"message"`
					RequestID string `json:"request_id"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("envelope: %v (%s)", err, body)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" || env.Error.RequestID == "" {
				t.Errorf("envelope incomplete: %+v", env.Error)
			}
		})
	}
}

// rawDo issues a request and returns the status and raw body (unlike
// client.do it does not assert).
func rawDo(t *testing.T, c *client, method, path string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}
