package api

import (
	"bytes"
	"flag"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"itag/internal/errs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// populatedMetrics builds a registry with a deterministic clock and a
// known mix of traffic: the fixture behind the golden and conformance
// tests.
func populatedMetrics() *Metrics {
	m := NewMetrics()
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	m.started = epoch
	m.now = func() time.Time { return epoch.Add(90 * time.Second) }

	health := m.register("GET /api/v1/healthz")
	health.observe(http.StatusOK, 80*time.Microsecond)
	health.observe(http.StatusOK, 300*time.Microsecond)
	health.observe(http.StatusOK, 2*time.Millisecond)

	create := m.register("POST /api/v1/projects")
	create.observe(http.StatusCreated, 4*time.Millisecond)
	create.observe(http.StatusBadRequest, 700*time.Microsecond)
	create.observe(http.StatusInternalServerError, 11*time.Second) // +Inf overflow

	m.ObserveError(errs.ComponentStore, errs.CategoryIO)
	m.ObserveError(errs.ComponentStore, errs.CategoryIO)
	m.ObserveError(errs.ComponentCore, errs.CategoryValidation)
	m.ObserveError("", "") // unattributed → api/internal
	m.AddSSEStream(1)
	m.AddSSEDropped(3)
	return m
}

// collect builds one scrape of m.
func collect(m *Metrics) []Family {
	var x Exposition
	m.Collect(&x)
	return x.Families()
}

// TestExpositionGolden pins the full exposition byte-for-byte: HELP/TYPE
// lines, label ordering, cumulative bucket layout, float formatting.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, collect(populatedMetrics())); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/api -run Golden -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionConformance runs the grammar and histogram-semantics
// checks over a populated registry: every line parses, every family has
// HELP and TYPE, buckets are monotone cumulative, +Inf == _count, and
// _sum is consistent with the observed totals.
func TestExpositionConformance(t *testing.T) {
	m := populatedMetrics()
	var buf bytes.Buffer
	if err := WriteExposition(&buf, collect(m)); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("grammar: %v", err)
	}
	if err := CheckHistograms(fams); err != nil {
		t.Fatalf("histogram semantics: %v", err)
	}

	byName := make(map[string]Family)
	for _, f := range fams {
		if f.Help == "" {
			t.Errorf("family %s has no HELP", f.Name)
		}
		byName[f.Name] = f
	}
	for _, want := range []string{
		"itag_uptime_seconds", "itag_http_requests_in_flight", "itag_http_requests_total",
		"itag_http_responses_total", "itag_http_request_duration_seconds",
		"itag_http_errors_total", "itag_sse_streams_active", "itag_sse_dropped_events_total",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("family %s missing", want)
		}
	}
	if got := byName["itag_uptime_seconds"].Samples[0].Value; got != 90 {
		t.Errorf("uptime = %g, want 90", got)
	}

	// The error matrix: store/io counted twice, core/validation once, and
	// the unattributed error folded into api/internal.
	errSamples := byName["itag_http_errors_total"].Samples
	got := make(map[string]float64)
	for _, s := range errSamples {
		var comp, cat string
		for _, l := range s.Labels {
			switch l.Name {
			case "component":
				comp = l.Value
			case "category":
				cat = l.Value
			}
		}
		got[comp+"/"+cat] = s.Value
	}
	want := map[string]float64{"store/io": 2, "core/validation": 1, "api/internal": 1}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("errors_total[%s] = %g, want %g (all: %v)", k, got[k], v, got)
		}
	}

	// Histogram sanity on a known route: 3 healthz observations, one in
	// the first bucket (<=100µs), cumulative reaching 3 at +Inf.
	var healthBuckets []float64
	var healthCount float64
	for _, s := range byName["itag_http_request_duration_seconds"].Samples {
		onRoute := false
		for _, l := range s.Labels {
			if l.Name == "route" && l.Value == "GET /api/v1/healthz" {
				onRoute = true
			}
		}
		if !onRoute {
			continue
		}
		switch s.Suffix {
		case "_bucket":
			healthBuckets = append(healthBuckets, s.Value)
		case "_count":
			healthCount = s.Value
		}
	}
	if healthCount != 3 {
		t.Errorf("healthz _count = %g", healthCount)
	}
	if len(healthBuckets) != numLatencyBuckets { // finite bounds + +Inf
		t.Errorf("healthz buckets = %d, want %d", len(healthBuckets), numLatencyBuckets)
	}
	if healthBuckets[0] != 1 || healthBuckets[len(healthBuckets)-1] != 3 {
		t.Errorf("healthz cumulative buckets = %v", healthBuckets)
	}

	// An idle registry scrapes too, and declares only families that have a
	// sample: no routes means no route families, no errors no error matrix.
	buf.Reset()
	if err := WriteExposition(&buf, collect(NewMetrics())); err != nil {
		t.Fatal(err)
	}
	idle, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("idle grammar: %v", err)
	}
	for _, f := range idle {
		if len(f.Samples) == 0 {
			t.Errorf("idle scrape declares %s without a sample", f.Name)
		}
	}
	if len(idle) == 0 {
		t.Error("idle scrape is empty")
	}
}

// TestExpositionEscaping round-trips hostile label values and help text
// through the writer and the strict parser.
func TestExpositionEscaping(t *testing.T) {
	hostile := []string{
		`plain`, `with "quotes"`, `back\slash`, "new\nline", `both "\` + "\n", ``,
	}
	fam := Family{
		Name: "itag_escape_test", Type: TypeGauge,
		Help: "help with \\ backslash and\nnewline",
	}
	for i, v := range hostile {
		fam.Samples = append(fam.Samples, Sample{
			Labels: []Label{{"value", v}, {"idx", string(rune('a' + i))}},
			Value:  float64(i),
		})
	}
	var buf bytes.Buffer
	if err := WriteExposition(&buf, []Family{fam}); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("parse escaped output: %v\n%s", err, buf.String())
	}
	if len(fams) != 1 || len(fams[0].Samples) != len(hostile) {
		t.Fatalf("round trip lost samples: %+v", fams)
	}
	for i, s := range fams[0].Samples {
		if s.Labels[0].Value != hostile[i] {
			t.Errorf("label %d = %q, want %q", i, s.Labels[0].Value, hostile[i])
		}
	}
	if fams[0].Help != "help with \\\\ backslash and\\nnewline" {
		t.Errorf("help escaping = %q", fams[0].Help)
	}
}

// TestExpositionRejectsBadInput pins the parser's strictness — the
// conformance value of the suite depends on these being errors.
func TestExpositionRejectsBadInput(t *testing.T) {
	bad := map[string]string{
		"sample before TYPE":  "itag_x 1\n",
		"bad metric name":     "# TYPE itag-x counter\nitag-x 1\n",
		"unknown type":        "# TYPE itag_x foo\n",
		"bad value":           "# TYPE itag_x counter\nitag_x one\n",
		"unterminated label":  "# TYPE itag_x counter\nitag_x{a=\"b 1\n",
		"bad escape":          "# TYPE itag_x counter\nitag_x{a=\"\\q\"} 1\n",
		"duplicate TYPE":      "# TYPE itag_x counter\n# TYPE itag_x counter\nitag_x 1\n",
		"histogram bad sufix": "# TYPE itag_h histogram\nitag_h_quantile 1\n",
		"timestamped sample":  "# TYPE itag_x counter\nitag_x 1 1700000000\n",
	}
	for name, input := range bad {
		if _, err := ParseExposition(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parser accepted %q", name, input)
		}
	}

	// Histogram semantics failures get past the grammar but must fail
	// CheckHistograms.
	brokenHists := map[string]string{
		"non-monotone buckets": "# TYPE itag_h histogram\n" +
			`itag_h_bucket{le="0.1"} 5` + "\n" +
			`itag_h_bucket{le="+Inf"} 3` + "\n" +
			"itag_h_sum 1\nitag_h_count 3\n",
		"inf != count": "# TYPE itag_h histogram\n" +
			`itag_h_bucket{le="0.1"} 1` + "\n" +
			`itag_h_bucket{le="+Inf"} 2` + "\n" +
			"itag_h_sum 1\nitag_h_count 3\n",
		"missing sum": "# TYPE itag_h histogram\n" +
			`itag_h_bucket{le="+Inf"} 2` + "\n" +
			"itag_h_count 2\n",
	}
	for name, input := range brokenHists {
		fams, err := ParseExposition(strings.NewReader(input))
		if err != nil {
			t.Errorf("%s: grammar rejected (want semantic rejection): %v", name, err)
			continue
		}
		if err := CheckHistograms(fams); err == nil {
			t.Errorf("%s: CheckHistograms accepted broken histogram", name)
		}
	}
}

// TestFloatFormatting pins the special values the exposition grammar
// spells out.
func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0:            "0",
		2.5:          "2.5",
		0.0001:       "0.0001",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("NaN = %q", got)
	}
}

// FuzzExposition: arbitrary names, label values and sample values must
// never produce output the strict parser rejects — the writer sanitizes
// and escapes everything.
func FuzzExposition(f *testing.F) {
	f.Add("itag_ok", "route", "GET /x", 1.5)
	f.Add("", "", "", math.Inf(1))
	f.Add("9starts_with_digit", "bad-label", "quote\"back\\slash\nnl", -0.0)
	f.Add("name with spaces", "le", "+Inf", math.NaN())
	f.Fuzz(func(t *testing.T, name, labelName, labelValue string, value float64) {
		fams := []Family{
			{
				Name: name, Type: TypeGauge, Help: "fuzz " + name,
				Samples: []Sample{{Labels: []Label{{labelName, labelValue}}, Value: value}},
			},
			{
				Name: name + "_h", Type: TypeHistogram,
				Samples: []Sample{
					{Suffix: "_bucket", Labels: []Label{{labelName, labelValue}, {"le", "+Inf"}}, Value: 1},
					{Suffix: "_sum", Labels: []Label{{labelName, labelValue}}, Value: value},
					{Suffix: "_count", Labels: []Label{{labelName, labelValue}}, Value: 1},
				},
			},
		}
		var buf bytes.Buffer
		if err := WriteExposition(&buf, fams); err != nil {
			t.Fatalf("write: %v", err)
		}
		parsed, err := ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("writer produced unparsable exposition: %v\n%s", err, buf.String())
		}
		// Label values survive the round trip verbatim (names may have
		// been sanitized, values must not be).
		for _, fam := range parsed {
			for _, s := range fam.Samples {
				for _, l := range s.Labels {
					if l.Name == "le" {
						continue
					}
					if l.Value != labelValue {
						t.Fatalf("label value %q round-tripped to %q", labelValue, l.Value)
					}
				}
			}
		}
	})
}

// TestFamiliesStableOrder: Collect must emit routes in sorted order for
// stable scrapes.
func TestFamiliesStableOrder(t *testing.T) {
	m := populatedMetrics()
	a, b := new(bytes.Buffer), new(bytes.Buffer)
	if err := WriteExposition(a, collect(m)); err != nil {
		t.Fatal(err)
	}
	if err := WriteExposition(b, collect(m)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two back-to-back scrapes of an idle registry differ")
	}
	var routes []string
	for _, s := range collect(m)[2].Samples { // itag_http_requests_total
		routes = append(routes, s.Labels[0].Value)
	}
	if !sort.StringsAreSorted(routes) {
		t.Errorf("routes not sorted: %v", routes)
	}
}
