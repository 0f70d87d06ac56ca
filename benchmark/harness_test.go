package main

import (
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// These are the harness's self-tests: no child process, a few seconds. They
// run from benchmark/ (`bash benchmark/run.sh --selftest` does, at
// GOMAXPROCS 1, 2 and 4), because the benchmark is a module of its own and
// the repository's `go test ./...` does not descend into it.

func TestOpStreamRepeatsPerSeed(t *testing.T) {
	for _, w := range workloadTable {
		a := generate(w, 7, 300).digest()
		b := generate(w, 7, 300).digest()
		c := generate(w, 8, 300).digest()
		if a != b {
			t.Errorf("%s: same seed gave different op streams (%x vs %x)", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

func TestOpStreamShape(t *testing.T) {
	for _, w := range workloadTable {
		s := generate(w, 3, 50)
		pages := (w.resources + exportLimit - 1) / exportLimit
		for _, rd := range s.rounds {
			if int(rd.Project) >= w.projects {
				t.Fatalf("%s: project %d out of range", w.name, rd.Project)
			}
			wantPosts := w.postsPerRound
			if w.batchItems > 0 {
				wantPosts = w.batchItems
			}
			if len(rd.Posts) != wantPosts || len(rd.Views) != w.viewsPerRound {
				t.Fatalf("%s: round has %d posts, %d views", w.name, len(rd.Posts), len(rd.Views))
			}
			for _, v := range rd.Views {
				if int(v.Page) >= pages || int(v.Resources[0]) >= w.resources {
					t.Fatalf("%s: view out of range: %+v", w.name, v)
				}
			}
			for _, p := range rd.Posts {
				if p.Tags[0] == p.Tags[1] || p.Tags[1] == p.Tags[2] || p.Tags[0] == p.Tags[2] {
					t.Fatalf("%s: post repeats a tag: %v", w.name, p.Tags)
				}
			}
		}
	}
	if v := vocabulary(); len(v) != vocabSize || v[0] != vocabulary()[0] {
		t.Fatalf("vocabulary is not the fixed %d words", vocabSize)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestCalibrationArithmetic(t *testing.T) {
	base := sliceStat{OK: 700, WallS: 0.7, OpP50MS: 2, PostP50MS: 1.5, ViewP50MS: 0.5, RefP50US: refNominalUS}
	quiet := make([]sliceStat, measuredSlices)
	for i := range quiet {
		quiet[i] = base
	}
	want := calibrate(quiet, refNominalUS)
	if !near(want.OpsPerS, 1000) || !near(want.OpP50MS, 2) {
		t.Fatalf("undisturbed run: %+v", want)
	}

	// The box slows 1.3x for the whole run: workload and reference alike.
	slow := make([]sliceStat, measuredSlices)
	for i := range slow {
		slow[i] = base
		slow[i].WallS *= 1.3
		slow[i].OpP50MS *= 1.3
		slow[i].PostP50MS *= 1.3
		slow[i].ViewP50MS *= 1.3
		slow[i].RefP50US *= 1.3
	}
	got := calibrate(slow, refNominalUS)
	if !near(got.OpsPerS, want.OpsPerS) || !near(got.OpP50MS, want.OpP50MS) || !near(got.PostP50MS, want.PostP50MS) {
		t.Errorf("a box 1.3x slower reports %+v, want the undisturbed %+v", got, want)
	}
	if !near(got.RawOpP50MS, 2.6) || !near(got.MedianK, 1.3) {
		t.Errorf("raw values and k must stay visible: %+v", got)
	}

	// One slice slowed 1.3x together with its reference: no effect at all.
	one := append([]sliceStat(nil), quiet...)
	one[5] = slow[5]
	got = calibrate(one, refNominalUS)
	if !near(got.OpsPerS, want.OpsPerS) || !near(got.OpP50MS, want.OpP50MS) {
		t.Errorf("one slowed slice moved the result: %+v", got)
	}

	// One slice disturbed 5x while its reference calls were not: an outlier
	// the median over slices ignores.
	out := append([]sliceStat(nil), quiet...)
	out[9].OpP50MS *= 5
	out[9].WallS *= 5
	got = calibrate(out, refNominalUS)
	if !near(got.OpsPerS, want.OpsPerS) || !near(got.OpP50MS, want.OpP50MS) {
		t.Errorf("one outlier slice moved the median: %+v", got)
	}
}

func TestTailQuantileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailQuantile(xs, 0.99); ok {
		t.Error("p99 reported from 999 samples: fewer than ten lie beyond it")
	}
	xs = append(xs, 999)
	v, ok := tailQuantile(xs, 0.99)
	if !ok || v < 985 || v > 995 {
		t.Errorf("p99 of 0..999 = %v, %v", v, ok)
	}
	if _, ok := tailQuantile(xs[:100], 0.9); !ok {
		t.Error("p90 of 100 samples has ten beyond it and must be reported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if !near(spread(xs), 1.0) {
		t.Errorf("spread = %v, want 1.0", spread(xs))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.call", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "client.roundtrip", Start: 20, End: 80},
		// Two children overlap each other (30–50 and 40–70) and one sticks
		// out of its parent (75–95 against a parent ending at 80).
		{ID: 4, Parent: 3, Name: "server.handle", Start: 30, End: 50},
		{ID: 5, Parent: 3, Name: "server.handle", Start: 40, End: 70},
		{ID: 6, Parent: 3, Name: "server.handle", Start: 75, End: 95},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 20, 2: 20, 3: 60 - 40 - 5, 4: 20, 5: 30, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestQuorumWaitAttribution(t *testing.T) {
	var next atomic.Int64
	next.Store(100)
	spans := []span{
		{ID: 1, Name: "cluster.handle", Node: 0, Write: true, Start: 0, End: 100, Trace: 4},
		{ID: 2, Name: "cluster.handle", Node: 0, Write: false, Start: 0, End: 100, Trace: 5}, // a read never waits
		{ID: 3, Name: "cluster.handle", Node: 1, Write: true, Start: 0, End: 100, Trace: 6},  // another node's pushes
		{ID: 4, Name: "cluster.push", Node: 0, Start: 40, End: 70, Trace: -1},
		{ID: 5, Name: "cluster.push", Node: 0, Start: 60, End: 120, Trace: -1},
	}
	out := attachQuorumWaits(spans, &next)
	var waits []span
	for _, s := range out {
		if s.Name == "cluster.quorum_wait" {
			waits = append(waits, s)
		}
	}
	if len(waits) != 1 || waits[0].Parent != 1 || waits[0].Start != 40 || waits[0].End != 100 || waits[0].Trace != 4 {
		t.Fatalf("quorum waits = %+v, want one 40–100 under span 1", waits)
	}
	sum := summarize(out, map[int64]bool{4: true, 5: true, 6: true})
	if sum.quorumWaitNS != 60 || sum.selfNS["cluster"] != 60 || sum.selfNS["server"] != 40+100+100 || sum.writes != 2 {
		t.Errorf("summary = %+v", sum)
	}
}

const promSample = `# HELP itag_http_requests_total HTTP requests served, by route.
# TYPE itag_http_requests_total counter
itag_http_requests_total{route="GET /api/v1/projects/{id}"} 12
itag_http_requests_total{route="POST /api/v1/projects/{id}/tasks/{tid}/submit"} 7
itag_http_request_duration_seconds_sum{route="POST /api/v1/projects/{id}/tasks/{tid}/submit"} 0.0035
itag_http_request_duration_seconds_bucket{route="GET /api/v1/projects/{id}",le="+Inf"} 12
itag_http_errors_total{component="core",category="validation"} 2
itag_http_errors_total{component="store",category="not_found"} 1
itag_store_fsyncs_total 41
itag_store_recovery_seconds 0.000193
itag_cluster_replica_lag{slot="s1"} 3
itag_cluster_replica_lag{slot="s2"} 9
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(strings.NewReader(promSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.route("itag_http_requests_total", "POST /api/v1/projects/{id}/tasks/{tid}/submit"); got != 7 {
		t.Errorf("route lookup with braces in the label = %v, want 7", got)
	}
	if got := p.sum("itag_http_errors_total"); got != 3 {
		t.Errorf("sum over labels = %v, want 3", got)
	}
	if got := p.sum("itag_store_fsyncs_total"); got != 41 {
		t.Errorf("unlabelled family = %v, want 41", got)
	}
	if got := p.sum("itag_http_requests"); got != 0 {
		t.Errorf("a family name must not match as a prefix of another: %v", got)
	}
	if got := p.max("itag_cluster_replica_lag"); got != 9 {
		t.Errorf("max = %v, want 9", got)
	}
	later, _ := parseProm(strings.NewReader(strings.Replace(promSample, "itag_store_fsyncs_total 41", "itag_store_fsyncs_total 50", 1)))
	if d := later.minus(p); d.sum("itag_store_fsyncs_total") != 9 || d.sum("itag_http_errors_total") != 0 {
		t.Errorf("delta = %v", d)
	}
	if _, err := parseProm(strings.NewReader("itag_broken\n")); err == nil {
		t.Error("a line without a value must be an error")
	}
}

func TestParseExpvar(t *testing.T) {
	const vars = `{"cmdline": ["./itagd"], "memstats": {"Alloc":943672,"TotalAlloc":1943672,"Mallocs":8386,"Frees":2104,"NumGC":3,"PauseNs":[0,0]}}`
	ms, err := parseExpvar(strings.NewReader(vars))
	if err != nil {
		t.Fatal(err)
	}
	if ms.TotalAlloc != 1943672 || ms.Mallocs != 8386 || ms.NumGC != 3 {
		t.Errorf("memstats = %+v", ms)
	}
	if _, err := parseExpvar(strings.NewReader(`{"cmdline": []}`)); err == nil {
		t.Error("missing memstats must be an error")
	}
}

// TestBenchmarkJSONIsTheSingleSource pins that BENCHMARK.json and the
// harness agree: the workloads are the ones the harness can run, and every
// metric the file names is one the harness produces — found by running the
// code that fills the metrics in, not by comparing against a second list.
func TestBenchmarkJSONIsTheSingleSource(t *testing.T) {
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadTable))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness cannot run", w.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	res := &runResult{Metrics: map[string]float64{}, SetupsS: []float64{1}, SetupsRaw: []float64{1}}
	setupMetrics(res)
	untracedMetrics(res, calibrated{}, nil, snapshot{prom: promSamples{}}, snapshot{prom: promSamples{}}, 0, &driver{})
	traceMetrics(res, traceSummary{selfNS: map[string]int64{}}, calibrated{MedianK: 1}, 0)
	if err := runProbes(generate(workloadTable[0], 1, 10), res.Metrics); err != nil {
		t.Fatalf("probes: %v", err)
	}
	for _, ms := range spec.EndToEnd {
		if _, ok := res.Metrics[ms.Name]; !ok {
			t.Errorf("end-to-end metric %q is not produced by the harness", ms.Name)
		}
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v", ms.Name, ms.Bound)
		}
	}
	var missing []string
	for _, ms := range spec.PerLayer {
		if _, ok := res.Metrics[ms.Name]; !ok {
			missing = append(missing, ms.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("per-layer metrics named by BENCHMARK.json but not produced: %v", missing)
	}
	if _, ok := spec.endToEnd("setup_s"); !ok {
		t.Error("the contract requires an end-to-end metric setup_s")
	}
}

func TestFreePortsAreDistinct(t *testing.T) {
	addrs, err := freePorts(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("port handed out twice: %v", addrs)
		}
		seen[a] = true
	}
}

func TestPlannedChildrenGetDistinctLogs(t *testing.T) {
	p := &procs{}
	a := p.plan("itagd-x-0", "bin", nil, "127.0.0.1:1")
	b := p.plan("itagd-x-0", "bin", nil, "127.0.0.1:2")
	if a.stderrPath == b.stderrPath {
		t.Fatalf("two children share a stderr path: %s", a.stderrPath)
	}
}
