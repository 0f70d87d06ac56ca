package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/server"
	"itag/internal/store"
)

// TestNoRouteOutsideV1 pins /api/v1 as the only way in. For every pattern
// the server mounts, the same method and path under the retired /api prefix
// answers the mux's 404 — no alias, no Deprecation or Link header — on a
// standalone Server and through a cluster node, where the path carries no
// routing key: the local slot answers it, never a 421 naming another node.
// And no scrape describes a route outside /api/v1.
func TestNoRouteOutsideV1(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
	defer svc.Close()
	srv := server.New(svc, nil)
	routes := srv.Metrics().Snapshot().Routes
	if len(routes) == 0 {
		t.Fatal("the server registered no route labels")
	}

	tc := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	node := tc.nodes["alpha"]
	// A key another slot leads, so that a path still routed by key would
	// show as a 421 here.
	foreign := ""
	for i := 0; foreign == ""; i++ {
		if id := fmt.Sprintf("proj-%06d", i); node.Ring().Owner(id) != "alpha" {
			foreign = id
		}
	}
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/projects/"+foreign, nil))
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("GET /api/v1/projects/%s on alpha = %d, want 421", foreign, rec.Code)
	}

	surfaces := []struct {
		name      string
		api, prom http.Handler
	}{
		{"standalone server", srv, srv.PromHandler()},
		{"cluster node", node.Handler(), node.PromHandler()},
	}
	wildcard := regexp.MustCompile(`\{[a-z]+\}`)
	for _, sf := range surfaces {
		for _, route := range routes {
			method, path, _ := strings.Cut(route.Route, " ")
			if !strings.HasPrefix(path, "/api/v1/") {
				t.Errorf("%s mounts %q outside /api/v1", sf.name, route.Route)
				continue
			}
			old := "/api" + strings.TrimPrefix(wildcard.ReplaceAllString(path, foreign), "/api/v1")
			rec := httptest.NewRecorder()
			sf.api.ServeHTTP(rec, httptest.NewRequest(method, old, strings.NewReader("{}")))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s: %s %s = %d, want 404", sf.name, method, old, rec.Code)
			}
			for _, h := range []string{"Deprecation", "Link", HeaderOwner} {
				if v := rec.Header().Get(h); v != "" {
					t.Errorf("%s: %s %s carries %s: %q", sf.name, method, old, h, v)
				}
			}
		}

		rec := httptest.NewRecorder()
		sf.prom.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		labelled := 0
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			_, label, ok := strings.Cut(line, `route="`)
			if !ok {
				continue
			}
			labelled++
			if _, path, _ := strings.Cut(label, " "); !strings.HasPrefix(path, "/api/v1/") {
				t.Errorf("%s scrape describes a route outside /api/v1: %s", sf.name, line)
			}
		}
		if labelled == 0 {
			t.Errorf("%s scrape carries no route label at all", sf.name)
		}
	}
}

// TestDocsNameOnlyMountedRoutes keeps the prose honest: every
// "METHOD /api/…" that README.md or a file under docs/ writes down resolves
// to a pattern that is actually mounted — one of the server route labels
// TestNoRouteOutsideV1 enumerates, or a cluster control route on the node's
// own mux. A route that was renamed or removed (the /api/* aliases of PR 20)
// fails here until the sentence naming it is fixed.
func TestDocsNameOnlyMountedRoutes(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
	defer svc.Close()
	served := http.NewServeMux()
	for _, route := range server.New(svc, nil).Metrics().Snapshot().Routes {
		served.Handle(route.Route, http.NotFoundHandler())
	}
	tc := startCluster(t, []string{"alpha"}, nil)
	control := tc.nodes["alpha"].handler.(*http.ServeMux)

	// The node's own routes are these six; the retired poll route
	// (GET /api/v1/cluster/wal) falls through to the slot's server and its 404.
	for _, route := range []string{
		"GET /api/v1/cluster/ring", "POST /api/v1/cluster/ring", "GET /api/v1/cluster/status",
		"POST /api/v1/cluster/replicate", "POST /api/v1/cluster/promote", "GET /api/v1/healthz",
	} {
		method, path, _ := strings.Cut(route, " ")
		if _, pattern := control.Handler(httptest.NewRequest(method, path, nil)); pattern != route {
			t.Errorf("%s is served by pattern %q", route, pattern)
		}
	}
	rec := httptest.NewRecorder()
	control.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/cluster/wal?slot=alpha&from=0", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /api/v1/cluster/wal = %d, want the slot server's 404", rec.Code)
	}

	files, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(files) == 0 {
		t.Fatalf("no docs found: %v", err)
	}
	mention := regexp.MustCompile("\\b(GET|POST|PUT|PATCH|DELETE) (/api/[^\\s`\"')|,]*)")
	wildcard := regexp.MustCompile(`\{[a-z]+\}`)
	checked := 0
	for _, file := range append(files, "../../README.md") {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllStringSubmatch(string(text), -1) {
			method, path, _ := strings.Cut(m[0], " ")
			path, _, _ = strings.Cut(path, "?")
			path = strings.TrimRight(path, ".:;")
			req := httptest.NewRequest(method, wildcard.ReplaceAllString(path, "x"), nil)
			_, pattern := control.Handler(req)
			if pattern == "/" { // not a control route: the slot's server answers
				_, pattern = served.Handler(req)
			}
			if pattern == "" {
				t.Errorf("%s names %q, which no mounted pattern serves", filepath.Base(file), m[0])
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d route mentions found: the scan is not reading the docs", checked)
	}
}

// TestNotOwnerCarriesRequestID: a node's own 421 is written by its bare mux,
// outside any RequestID middleware, and still names the request: a request
// without an X-Request-Id gets one minted, on the response header and in the
// envelope alike, and one that sends an id gets that id back in both.
func TestNotOwnerCarriesRequestID(t *testing.T) {
	tc := startCluster(t, []string{"alpha", "beta"}, nil)
	node := tc.nodes["alpha"]
	foreign := ""
	for i := 0; foreign == ""; i++ {
		if id := fmt.Sprintf("proj-%06d", i); node.Ring().Owner(id) != "alpha" {
			foreign = id
		}
	}
	for _, sent := range []string{"", "trace-421"} {
		req := httptest.NewRequest("GET", "/api/v1/projects/"+foreign, nil)
		if sent != "" {
			req.Header.Set("X-Request-Id", sent)
		}
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusMisdirectedRequest {
			t.Fatalf("sent id %q: status %d, want 421", sent, rec.Code)
		}
		var env struct {
			Error struct {
				Code      string `json:"code"`
				RequestID string `json:"request_id"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != api.CodeNotOwner {
			t.Fatalf("sent id %q: body %s (%v)", sent, rec.Body, err)
		}
		got := rec.Header().Get("X-Request-Id")
		if got == "" || got != env.Error.RequestID || sent != "" && got != sent {
			t.Errorf("sent id %q: header X-Request-Id %q, envelope request_id %q", sent, got, env.Error.RequestID)
		}
	}
}
