package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"itag/internal/api"
	"itag/internal/chaos"
	"itag/internal/core"
	"itag/internal/errs"
	"itag/internal/store"
)

// --- taxonomy coverage ----------------------------------------------------------

// TestTaxonomyCoverage walks the full error-code contract (api.CodeTable)
// and proves every code is unique, carries the documented status, and —
// for taxonomy-derived codes — is exactly what mapErr produces for an
// error of that category. This is the test that keeps the taxonomy, the
// transport mapping and the docs table from drifting apart.
func TestTaxonomyCoverage(t *testing.T) {
	seen := make(map[string]bool)
	for _, spec := range api.CodeTable() {
		if seen[spec.Code] {
			t.Errorf("duplicate code %q in CodeTable", spec.Code)
		}
		seen[spec.Code] = true
	}

	// Transport-level codes raised outside mapErr: by the kit itself, or —
	// for not_owner — by the cluster router before a handler is reached.
	transport := map[string]bool{
		api.CodeInvalidRequest: true,
		api.CodeBatchTooLarge:  true,
		api.CodeNotOwner:       true,
		api.CodeUnavailable:    true,
		api.CodeTimeout:        true,
		api.CodeCanceled:       true,
		api.CodeInternal:       true,
	}
	for _, spec := range api.CodeTable() {
		if transport[spec.Code] {
			continue
		}
		err := errs.New(errs.ComponentCore, spec.Category, "probe")
		if spec.Code != spec.Category.DefaultCode() {
			err = err.WithCode(spec.Code) // sentinel refinement (project_running, invalid_role)
		}
		ae := mapErr(err)
		if ae.Status != spec.Status || ae.Code != spec.Code {
			t.Errorf("mapErr(category %s, code %s) = %d/%s, want %d/%s",
				spec.Category, spec.Code, ae.Status, ae.Code, spec.Status, spec.Code)
		}
	}

	// Context sentinels keep their dedicated transport codes even when the
	// interrupted operation carried a taxonomy.
	if ae := mapErr(context.DeadlineExceeded); ae.Status != http.StatusGatewayTimeout || ae.Code != api.CodeTimeout {
		t.Errorf("deadline = %d/%s", ae.Status, ae.Code)
	}
	if ae := mapErr(context.Canceled); ae.Status != statusClientClosedRequest || ae.Code != api.CodeCanceled {
		t.Errorf("canceled = %d/%s", ae.Status, ae.Code)
	}
	wrapped := fmt.Errorf("op: %w", context.DeadlineExceeded)
	if ae := mapErr(wrapped); ae.Code != api.CodeTimeout {
		t.Errorf("wrapped deadline = %s", ae.Code)
	}
}

// TestTaxonomyEnvelopes drives one error of every taxonomy category
// through the real write path and asserts the envelope: the structured
// object, with the status derived from the category.
func TestTaxonomyEnvelopes(t *testing.T) {
	kit := &api.Kit{MapError: mapErr, Metrics: api.NewMetrics()}
	for _, cat := range errs.Categories() {
		err := errs.New(errs.ComponentQuality, cat, "probe failure")
		wantStatus := cat.HTTPStatus()
		wantCode := cat.DefaultCode()

		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			kit.WriteError(w, r, err)
		})

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/probe", nil))
		if rec.Code != wantStatus {
			t.Errorf("%s: v1 status = %d, want %d", cat, rec.Code, wantStatus)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if jerr := json.Unmarshal(rec.Body.Bytes(), &env); jerr != nil {
			t.Fatalf("%s: v1 body %s: %v", cat, rec.Body.Bytes(), jerr)
		}
		if env.Error.Code != wantCode || env.Error.Message != "quality: probe failure" {
			t.Errorf("%s: v1 envelope = %+v, want code %s", cat, env.Error, wantCode)
		}
	}
}

// --- fault injection ------------------------------------------------------------

// TestFaultInjectionIOInMetrics tears the store's next append and
// follows the failure end to end: the write returns 500/io_failure on the
// wire, and the scrape shows the error attributed to component=store,
// category=io.
func TestFaultInjectionIOInMetrics(t *testing.T) {
	tear := chaos.NewSchedule(1, chaos.Fault{Kind: chaos.KindTornWrite, Host: ".seg-"})
	db, err := store.Open(filepath.Join(t.TempDir(), "db"), store.Options{Fault: tear.Disk})
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(store.NewCatalog(db), 99)
	s := New(svc, nil)
	srv := httptest.NewServer(s)
	prom := httptest.NewServer(s.PromHandler())
	t.Cleanup(func() {
		srv.Close()
		prom.Close()
		svc.Close()
		db.Close()
	})

	// Healthy write first: the store must be live before the fault.
	status, _ := httpJSON(t, srv.URL+"/api/v1/providers", registerReq{Name: "ok"})
	if status != http.StatusCreated {
		t.Fatalf("healthy write status = %d", status)
	}

	tear.Start() // the next append tears at half
	status, body := httpJSON(t, srv.URL+"/api/v1/providers", registerReq{Name: "boom"})
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted write status = %d (body %s)", status, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != api.CodeIOFailure {
		t.Fatalf("faulted write code = %q (body %s)", env.Error.Code, body)
	}

	fams := scrape(t, prom.URL)
	if got := errorCellValue(fams, "store", "io"); got < 1 {
		t.Errorf("itag_http_errors_total{component=store,category=io} = %g, want >= 1", got)
	}
	// The scrape itself must stay conformant with store families included.
	if err := api.CheckHistograms(fams); err != nil {
		t.Errorf("scrape histograms: %v", err)
	}
	foundStore := false
	for _, f := range fams {
		if f.Name == "itag_store_commits_total" && len(f.Samples) == 1 && f.Samples[0].Value >= 1 {
			foundStore = true
		}
	}
	if !foundStore {
		t.Error("store families missing from scrape")
	}
}

// TestCorruptionCategoryOnReopen corrupts a committed WAL record on disk
// and asserts the reopen fails with the corruption category — the code
// path that makes integrity failures distinguishable from plain IO errors
// in both logs and metrics.
func TestCorruptionCategoryOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := store.NewCatalog(db)
	for i := 0; i < 3; i++ {
		if err := cat.PutUser(store.UserRec{ID: fmt.Sprintf("u%d", i), Role: store.RoleTagger}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(path + ".seg-*")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first record's JSON body (offset 12 is past
	// the 8-hex-digit CRC and the separating space), keeping the newline:
	// a complete-but-mismatching record, not a torn tail.
	data[12] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = store.Open(path, store.Options{})
	if err == nil {
		t.Fatal("reopen of corrupted WAL succeeded")
	}
	if got := errs.CategoryOf(err); got != errs.CategoryCorruption {
		t.Errorf("reopen error category = %q, want corruption (%v)", got, err)
	}
	if errs.ComponentOf(err) != errs.ComponentStore {
		t.Errorf("reopen error component = %q", errs.ComponentOf(err))
	}
}

// --- SSE drop accounting --------------------------------------------------------

// TestSSEDroppedSurfacesInMetrics tags a project to its budget against a
// subscriber with a 1-slot buffer that reads nothing until the tagging is
// over: the notifications it could not hold must be counted as dropped in
// the metrics registry and surface on the scrape.
func TestSSEDroppedSurfacesInMetrics(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	s := NewWith(svc, Options{SSEBuffer: 1})
	// The stream handler reads nothing from its subscription until the
	// tagging is over: all of its telemetry meets a minimum-size buffer, so
	// the overflow is forced rather than left to scheduling.
	gate := make(chan struct{})
	s.sseGate = gate
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	c := &client{t: t, srv: srv}

	prov := c.register("providers", "p")
	p := c.createSimProject(prov, 60)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/api/v1/projects/"+p.id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	c.tag(p, 60)
	close(gate)

	// Read the stream up to its dropped event. The handler counts drops
	// before it writes that event, so by then the registry holds them.
	sawDropped := false
	sc := bufio.NewScanner(resp.Body)
	for !sawDropped && sc.Scan() {
		sawDropped = strings.HasPrefix(sc.Text(), "event: dropped")
	}
	if !sawDropped {
		t.Fatal("stream carried no dropped event for a subscriber held behind a whole project")
	}
	if got := s.Metrics().SSEDropped(); got == 0 {
		t.Error("SSEDropped = 0 after a subscriber held behind a whole project")
	}
	var x api.Exposition
	s.Metrics().Collect(&x)
	fams := x.Families()
	if got := gaugeValue(fams, "itag_sse_dropped_events_total"); got < 1 {
		t.Errorf("itag_sse_dropped_events_total = %g, want >= 1", got)
	}
}

// --- scrape race ----------------------------------------------------------------

// TestMetricsScrapeRace hammers the Prometheus endpoint and the JSON
// metrics endpoint while mixed v1 traffic runs — run under -race this
// proves scrapes never tear against the lock-free histogram writers.
func TestMetricsScrapeRace(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	s := New(svc, nil)
	srv := httptest.NewServer(s)
	prom := httptest.NewServer(s.PromHandler())
	t.Cleanup(func() {
		srv.Close()
		prom.Close()
		svc.Close()
	})
	c := &client{t: t, srv: srv}
	prov := c.register("providers", "p")

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0: // scrape exposition and keep it conformant
					fams := scrape(t, prom.URL)
					if err := api.CheckHistograms(fams); err != nil {
						t.Errorf("scrape %d/%d: %v", w, i, err)
						return
					}
				case 1: // JSON metrics
					resp, err := http.Get(srv.URL + "/api/v1/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				case 2: // writes
					httpJSON(t, srv.URL+"/api/v1/taggers", registerReq{Name: fmt.Sprintf("t%d-%d", w, i)})
				default: // reads, including a 404 to exercise error counters
					resp, err := http.Get(srv.URL + "/api/v1/users/ghost-" + fmt.Sprint(i))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					resp, err = http.Get(srv.URL + "/api/v1/users/" + prov)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()

	// A final scrape must account every 404 the hammer generated.
	fams := scrape(t, prom.URL)
	if got := errorCellValue(fams, "store", "not_found"); got < 1 {
		t.Errorf("not_found errors uncounted after hammer (got %g)", got)
	}
}

// --- docs drift -----------------------------------------------------------------

// TestAPIDocsErrorTable pins docs/API.md's error-code table to
// api.CodeTable: every code appears in the docs with its documented
// status, and the docs list no codes the server cannot emit.
func TestAPIDocsErrorTable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	documented := make(map[string]int)
	for _, line := range strings.Split(doc, "\n") {
		// Table rows look like: | `code` | 404 | description |
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		code := strings.Trim(strings.TrimSpace(cells[1]), "`")
		var status int
		if _, err := fmt.Sscanf(strings.TrimSpace(cells[2]), "%d", &status); err != nil {
			continue
		}
		documented[code] = status
	}

	want := api.CodeTable()
	for _, spec := range want {
		got, ok := documented[spec.Code]
		if !ok {
			t.Errorf("code %q missing from docs/API.md error table", spec.Code)
			continue
		}
		if got != spec.Status {
			t.Errorf("docs list %q as %d, server emits %d", spec.Code, got, spec.Status)
		}
	}
	if len(documented) != len(want) {
		t.Errorf("docs table has %d codes, CodeTable has %d", len(documented), len(want))
	}
}

// --- helpers --------------------------------------------------------------------

func httpJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

// scrape fetches and strictly parses a Prometheus exposition.
func scrape(t *testing.T, url string) []api.Family {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.ExpositionContentType {
		t.Fatalf("scrape content type = %q, want %q", ct, api.ExpositionContentType)
	}
	fams, err := api.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape grammar: %v", err)
	}
	return fams
}

func errorCellValue(fams []api.Family, component, category string) float64 {
	for _, f := range fams {
		if f.Name != "itag_http_errors_total" {
			continue
		}
		for _, s := range f.Samples {
			comp, cat := "", ""
			for _, l := range s.Labels {
				switch l.Name {
				case "component":
					comp = l.Value
				case "category":
					cat = l.Value
				}
			}
			if comp == component && cat == category {
				return s.Value
			}
		}
	}
	return 0
}

func gaugeValue(fams []api.Family, name string) float64 {
	for _, f := range fams {
		if f.Name == name && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
	}
	return 0
}
