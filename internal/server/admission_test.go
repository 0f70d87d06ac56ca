package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"itag/internal/core"
	"itag/internal/store"
)

// newAdmissionServer builds a server with admission control on and the
// prom endpoint mounted, returning the Server for limiter manipulation.
func newAdmissionServer(t *testing.T) (*Server, *httptest.Server, *httptest.Server) {
	t.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	s := NewWith(svc, Options{Admission: &AdmissionOptions{SLO: 100 * time.Millisecond}})
	srv := httptest.NewServer(s)
	prom := httptest.NewServer(s.PromHandler())
	t.Cleanup(func() {
		srv.Close()
		prom.Close()
		svc.Close()
	})
	return s, srv, prom
}

// TestAdmissionShedsWithRetryAfter pins the shed contract end to end:
// with the gate saturated, a task request gets 429, the taxonomy code,
// a Retry-After hint in whole seconds and the request-ID-stamped envelope
// — while health and metrics are never gated, and releasing the slot
// re-admits traffic.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	s, srv, prom := newAdmissionServer(t)

	// Saturate: ceiling of 1 with the only slot held.
	lim := s.Admission().Limiter()
	lim.SetLimit(1)
	release, ok := lim.TryAcquire()
	if !ok {
		t.Fatal("setup: could not take the only slot")
	}

	// Every gated route sheds the same way.
	for _, shed := range []struct{ path, body string }{
		{"/api/v1/projects/p-000001/tasks", `{"tagger_id":"t-000001"}`},
		{"/api/v1/projects/p-000001/tasks/p-000001-task-00001/submit", `{"tags":["go"]}`},
	} {
		resp, err := http.Post(srv.URL+shed.path, "application/json", strings.NewReader(shed.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: shed status = %d, want 429 (body %s)", shed.path, resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Errorf("%s: Retry-After = %q, want whole seconds ≥ 1", shed.path, resp.Header.Get("Retry-After"))
		}
		var env struct {
			Error struct {
				Code      string `json:"code"`
				Message   string `json:"message"`
				RequestID string `json:"request_id"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: shed body %s: %v", shed.path, body, err)
		}
		if env.Error.Code != "resource_exhausted" || env.Error.Message == "" {
			t.Errorf("%s: shed envelope = %+v, want code resource_exhausted", shed.path, env.Error)
		}
		if env.Error.RequestID == "" || env.Error.RequestID != resp.Header.Get("X-Request-Id") {
			t.Errorf("%s: shed envelope request_id = %q, header %q", shed.path, env.Error.RequestID, resp.Header.Get("X-Request-Id"))
		}
	}

	// Health and metrics are never gated, saturated or not.
	for _, path := range []string{"/api/v1/healthz", "/api/v1/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s under saturation = %d, want 200", path, resp.StatusCode)
		}
	}

	// Every shed is observable: limiter families and the error matrix.
	fams := scrape(t, prom.URL)
	if got := gaugeValue(fams, "itag_admission_limit"); got != 1 {
		t.Errorf("itag_admission_limit = %v, want 1", got)
	}
	if got := gaugeValue(fams, "itag_admission_shed_total"); got < 2 {
		t.Errorf("itag_admission_shed_total = %v, want ≥ 2", got)
	}
	if got := errorCellValue(fams, "api", "rate_limited"); got < 2 {
		t.Errorf("error matrix cell (api, rate_limited) = %v, want ≥ 2", got)
	}

	// Releasing the slot re-admits: the same request now reaches the
	// handler (404 unknown project — anything but 429).
	release()
	resp, err := http.Post(srv.URL+"/api/v1/projects/p-000001/tasks", "application/json",
		strings.NewReader(`{"tagger_id":"t-000001"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Error("request shed after the slot was released")
	}
}

// TestAdmissionOffByDefault: without Options.Admission nothing is gated
// and no admission families appear on the scrape.
func TestAdmissionOffByDefault(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	s := New(svc, nil)
	prom := httptest.NewServer(s.PromHandler())
	defer prom.Close()
	if s.Admission() != nil {
		t.Fatal("admission governor built without opting in")
	}
	for _, f := range scrape(t, prom.URL) {
		if strings.HasPrefix(f.Name, "itag_admission_") {
			t.Errorf("family %s exposed with admission off", f.Name)
		}
	}
}

// TestAdmissionScrapeShedRace floods the gated route from many
// goroutines (all shedding against a held 1-slot gate) while scrapers
// hammer the Prometheus endpoint — run under -race this proves the new
// limiter families never tear against the shed hot path.
func TestAdmissionScrapeShedRace(t *testing.T) {
	s, srv, prom := newAdmissionServer(t)
	lim := s.Admission().Limiter()
	lim.SetLimit(1)
	release, ok := lim.TryAcquire()
	if !ok {
		t.Fatal("setup: could not take the only slot")
	}
	defer release()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(srv.URL+"/api/v1/projects/p-000001/tasks",
					"application/json", strings.NewReader(`{"tagger_id":"t-1"}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status = %d, want 429", resp.StatusCode)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(prom.URL)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	fams := scrape(t, prom.URL)
	if got := gaugeValue(fams, "itag_admission_shed_total"); got < 200 {
		t.Errorf("itag_admission_shed_total = %v, want 200", got)
	}
	// Shed responses must stay out of the task route's latency histogram
	// (they would drag the p99 down exactly when the governor needs to
	// see overload); the error matrix carries them instead.
	if n, _, ok := s.Metrics().RouteObservations("POST /api/v1/projects/{id}/tasks"); ok && n > 0 {
		t.Errorf("%d shed requests leaked into the route histogram", n)
	}
}
