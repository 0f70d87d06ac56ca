package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"itag/client"
)

// runConfig is one invocation of the contract's command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	itagd    string // path of the built itagd binary
	self     string // path of this binary (re-executed as the reference server)
}

// runResult is everything one run learned. metrics holds every value by its
// BENCHMARK.json name (and a few report-only ones); the JSON line printed
// for the driver is cut from it.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Slices    []sliceStat        `json:"slices"`
	SetupsS   []float64          `json:"setups_s"`     // each set-up, calibrated
	SetupsRaw []float64          `json:"setups_raw_s"` // each set-up as the clock read it
	SetupsK   []float64          `json:"setups_k"`     // the ruler reading that followed each
	WallS     float64            `json:"wall_s"`
	Env       map[string]string  `json:"env"`
	Dominant  string             `json:"dominant_layer,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload is the whole of one run: reference server up, set-ups, the
// measured slices, the output checks, and — with --trace 1 — the traced
// pass and the probes.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	began := time.Now()
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Correct: true, Metrics: map[string]float64{}, Env: environment(),
	}
	nclients := runtime.NumCPU()
	rps := w.roundsPerSlice(cfg.seconds)
	ops := generate(w, cfg.seed, rps*(warmSlices+discardSlices+measuredSlices))

	// Everything that will ever be started is planned here, on one
	// goroutine: ports, log paths and directories cannot collide.
	refAddrs, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	ref := owned.plan("ref-server", cfg.self, []string{"--ref-server", refAddrs[0]}, refAddrs[0])
	if err := ref.start(); err != nil {
		return nil, err
	}
	defer owned.release([]*child{ref}, nil)
	hc := &http.Client{Transport: newTransport(), Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	if err := waitHealthy(ctx, hc, "http://"+ref.api+"/healthz", ref); err != nil {
		return nil, err
	}

	// Set up several times; the last deployment is the one measured.
	var st *stack
	var d *driver
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			d.closeClients()
			st.close()
		}
		t0 := time.Now()
		if st, err = planStack(w, cfg.itagd); err != nil {
			return nil, err
		}
		if err := st.start(ctx); err != nil {
			return nil, err
		}
		if err := st.provision(ctx, cfg.seed); err != nil {
			return nil, fmt.Errorf("provision: %w%s", err, st.stderrTails())
		}
		d = newDriver(st, ops, ref.api, nclients, nil)
		warm, err := d.runSlice(ctx, 0, rps*warmSlices, 0)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0)
		res.Attempted += len(warm.samples)
		res.Failed += warm.failed
		// The ruler is read right after each set-up, so a set-up taken on a
		// slow stretch of the box is divided by that stretch's factor. One
		// reading has to do where a slice's is one of many: twice as long.
		lat, err := d.runRef(ctx, 2*refCallsPerSlice)
		if err != nil {
			return nil, err
		}
		k := reduceSlice(sliceResult{refLat: lat}).RefP50US / refNominalUS
		res.SetupsS = append(res.SetupsS, setup.Seconds()/k)
		res.SetupsRaw = append(res.SetupsRaw, setup.Seconds())
		res.SetupsK = append(res.SetupsK, k)
	}
	res.Env["data_dir_fs"] = st.dataFS
	setupMetrics(res)

	// Measured slices.
	var before, after snapshot
	var slices []sliceResult
	next := rps * warmSlices
	for i := 0; i < discardSlices+measuredSlices; i++ {
		if i == discardSlices {
			if before, err = st.snapshot(ctx, hc); err != nil {
				return nil, fmt.Errorf("scrape: %w", err)
			}
		}
		sl, err := d.runSlice(ctx, next, next+rps, refCallsPerSlice)
		if err != nil {
			return nil, err
		}
		next += rps
		res.Attempted += len(sl.samples)
		res.Failed += sl.failed
		if i >= discardSlices {
			slices = append(slices, sl)
		}
	}
	if after, err = st.snapshot(ctx, hc); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	measuredRounds := 0
	for _, sl := range slices {
		st := reduceSlice(sl)
		res.Slices = append(res.Slices, st)
		measuredRounds += st.OK
	}
	cal := calibrate(res.Slices, refNominalUS)
	untracedMetrics(res, cal, slices, before, after, measuredRounds, d)

	checkOutputs(ctx, res, st, d, cfg)
	if d.firstErr != nil {
		res.Problems = append(res.Problems, "first operation error: "+d.firstErr.Error())
	}
	for _, v := range d.violations {
		res.problem("%s", v)
	}
	if res.Failed > 0 {
		res.problem("%d of %d rounds failed%s", res.Failed, res.Attempted, st.stderrTails())
	}
	d.closeClients()
	st.close()

	if cfg.trace {
		if err := tracedPass(ctx, cfg, w, ops, ref.api, nclients, rps, res, cal.OpsPerS); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := runProbes(ops, res.Metrics); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// setupMetrics reports the median of the run's set-ups, calibrated and raw.
func setupMetrics(res *runResult) {
	res.Metrics["setup_s"] = median(res.SetupsS)
	res.Metrics["harness.raw_setup_s"] = median(res.SetupsRaw)
}

// untracedMetrics fills in every metric that comes from the measured run of
// the real children: the end-to-end five, the scrape deltas and harness.*.
func untracedMetrics(res *runResult, cal calibrated, slices []sliceResult, before, after snapshot, rounds int, d *driver) {
	m := res.Metrics
	per := func(v float64) float64 {
		if rounds == 0 {
			return 0
		}
		return v / float64(rounds)
	}
	m["ops_per_s"] = cal.OpsPerS
	m["op_p50_ms"] = cal.OpP50MS
	m["alloc_kb_per_op"] = per(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024
	m["peak_rss_mb"] = after.hwmKB / 1024

	m["harness.box_index"] = 0
	if cal.MedianK > 0 {
		m["harness.box_index"] = 1 / cal.MedianK
	}
	m["harness.ref_p50_us"] = cal.RefP50US
	m["harness.ref_spread"] = cal.RefSpread
	m["harness.raw_ops_per_s"] = cal.RawOpsPerS
	m["harness.raw_op_p50_ms"] = cal.RawOpP50MS
	m["harness.post_p50_ms"] = cal.PostP50MS
	m["harness.view_p50_ms"] = cal.ViewP50MS
	m["harness.samples"] = float64(rounds)
	var all []float64
	for i, sl := range slices {
		if i >= len(cal.K) {
			break
		}
		for _, s := range sl.samples {
			if s.ok {
				all = append(all, msOf(s.total)/cal.K[i])
			}
		}
	}
	m["harness.op_p99_ms"], _ = tailQuantile(all, 0.99) // 0 = too few samples to say

	dp := after.prom.minus(before.prom)
	commits := dp.sum("itag_store_commits_total")
	batches := dp.sum("itag_store_commit_batches_total")
	m["store.fsyncs_per_op"] = per(dp.sum("itag_store_fsyncs_total"))
	m["store.commits_per_op"] = per(commits)
	m["store.avg_commit_batch"] = 0
	if batches > 0 {
		m["store.avg_commit_batch"] = commits / batches
	}
	m["store.wal_kb_per_op"] = per(dp.sum("itag_store_wal_bytes_total")) / 1024
	m["store.rotations"] = dp.sum("itag_store_wal_rotations_total")

	for name, route := range map[string]string{
		"request_task": "POST /api/v1/projects/{id}/tasks",
		"submit_task":  "POST /api/v1/projects/{id}/tasks/{tid}/submit",
		"get_project":  "GET /api/v1/projects/{id}",
		"export":       "GET /api/v1/projects/{id}/export",
		"get_resource": "GET /api/v1/projects/{id}/resources/{rid}",
		"tasks_batch":  "POST /api/v1/projects/{id}/tasks:batch",
	} {
		sum := dp.route("itag_http_request_duration_seconds_sum", route)
		cnt := dp.route("itag_http_request_duration_seconds_count", route)
		m["server.handler_mean_us."+name] = 0
		if cnt > 0 {
			// Server-side means are times too: same ruler.
			m["server.handler_mean_us."+name] = sum / cnt * 1e6 / cal.MedianK
		}
	}
	hits, misses := dp.sum("itag_respcache_hits_total"), dp.sum("itag_respcache_misses_total")
	m["server.respcache_hit_ratio"] = 0
	if hits+misses > 0 {
		m["server.respcache_hit_ratio"] = hits / (hits + misses)
	}
	posts := dp.route("itag_http_request_duration_seconds_count", "POST /api/v1/projects/{id}/tasks/{tid}/submit")
	m["server.respcache_refreshes_per_post"] = 0
	if posts > 0 {
		m["server.respcache_refreshes_per_post"] = dp.sum("itag_respcache_refreshes_total") / posts
	}
	m["server.respcache_evictions"] = dp.sum("itag_respcache_evictions_total")
	m["server.http_errors"] = dp.sum("itag_http_errors_total")

	m["cluster.pushes_per_post"], m["cluster.push_kb_per_post"] = 0, 0
	if posts > 0 {
		m["cluster.pushes_per_post"] = dp.sum("itag_cluster_pushes_total") / posts
		m["cluster.push_kb_per_post"] = dp.sum("itag_cluster_push_bytes_total") / posts / 1024
	}
	m["cluster.quorum_degraded"] = dp.sum("itag_cluster_quorum_degraded_total")
	m["cluster.replica_lag_max"] = after.prom.max("itag_cluster_replica_lag")
	m["cluster.follower_reads"] = dp.sum("itag_cluster_follower_reads_total")
	m["cluster.follower_read_fallbacks"] = dp.sum("itag_cluster_follower_read_fallbacks_total")
	m["cluster.not_owner_hops"] = dp.sum("itag_cluster_not_owner_total")
	m["cluster.pull_errors"] = dp.sum("itag_cluster_pull_errors_total")
	m["cluster.breaker_opens"] = dp.sum("itag_cluster_peer_breaker_opens_total")

	m["runtime.cpu_ms_per_op"] = 0
	if cal.MedianK > 0 {
		m["runtime.cpu_ms_per_op"] = per(after.cpuMS-before.cpuMS) / cal.MedianK
	}
	m["runtime.allocs_per_op"] = per(after.mem.Mallocs - before.mem.Mallocs)
	m["runtime.gc_cycles"] = after.mem.NumGC - before.mem.NumGC

	var calls, trips int64
	for _, lc := range d.clients {
		calls += lc.sdkN
		trips += lc.tap.roundTrips
	}
	m["client.attempts_per_call"] = 0
	if calls > 0 {
		m["client.attempts_per_call"] = float64(trips) / float64(calls)
	}
}

// checkOutputs verifies what the servers hold against the ledger. Every
// failure makes the run incorrect.
func checkOutputs(ctx context.Context, res *runResult, st *stack, d *driver, cfg runConfig) {
	hc := &http.Client{Transport: newTransport(), Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	check := func(when string) {
		for _, p := range st.projects {
			// Read at the slot leader: that is where an acknowledged post must be.
			c := client.New(st.nodes[p.node].base, hc).WithRetry(1, time.Millisecond)
			page, err := c.Export(ctx, p.id, "", 0)
			if err != nil {
				res.problem("%s: final export of %s: %v", when, p.id, err)
				continue
			}
			shown := 0
			for _, row := range page.Items {
				shown += row.Posts
				ri, ok := p.index[row.ID]
				if !ok {
					res.problem("%s: export of %s lists unknown resource %q", when, p.id, row.ID)
					continue
				}
				if want := int(p.preload[ri] + p.acked[ri].Load()); row.Posts != want {
					res.problem("%s: %s holds %d posts, preload+acked is %d", when, row.ID, row.Posts, want)
					break
				}
			}
			if want := p.preloadTotal() + p.ackedTotal(); shown != want || len(page.Items) != len(p.resources) {
				res.problem("%s: project %s exports %d posts over %d resources, want %d over %d",
					when, p.id, shown, len(page.Items), want, len(p.resources))
			}
		}
	}
	check("after the run")
	if st.w.quorum {
		if ok, deg := d.quorumOK.Load(), d.quorumDegraded.Load(); ok+deg == 0 {
			res.problem("quorum workload acknowledged no stamped post")
		}
	}
	if st.w.durable && st.w.nodes == 1 {
		// Process-crash durability: SIGKILL leaves the OS page cache (here
		// tmpfs) intact, so this checks that every acknowledged post was
		// written before its ack — not that it would survive power loss.
		n := st.nodes[0]
		n.proc.kill()
		if err := n.proc.start(); err != nil {
			res.problem("restart after SIGKILL: %v", err)
			return
		}
		if err := waitHealthy(ctx, hc, n.base+"/api/v1/healthz", n.proc); err != nil {
			res.problem("restart after SIGKILL: %v", err)
			return
		}
		check("after SIGKILL and restart")
	}
}

func (s *stack) stderrTails() string {
	out := ""
	for _, n := range s.nodes {
		if n.proc == nil {
			continue
		}
		if tail := n.proc.stderrTail(); tail != "" {
			out += fmt.Sprintf("\n--- %s stderr (%s) ---\n%s", n.proc.name, n.proc.stderrPath, tail)
		}
	}
	return out
}

// tracedPass replays the op stream against the in-process, decorated
// assembly of the same deployment and derives the span-based metrics.
func tracedPass(ctx context.Context, cfg runConfig, w workloadDef, ops *opStream, refAddr string,
	nclients, rps int, res *runResult, untracedOps float64) error {
	rec := newRecorder()
	st, err := inProcStack(w, rec)
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.provision(ctx, cfg.seed); err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	d := newDriver(st, ops, refAddr, nclients, rec)
	defer d.closeClients()
	if _, err := d.runSlice(ctx, 0, rps, refCallsPerSlice); err != nil {
		return err
	}
	rec.mu.Lock()
	rec.spans = rec.spans[:0] // provisioning and warm-up are not part of the trace
	rec.mu.Unlock()

	var stats []sliceStat
	okRounds := map[int64]bool{}
	next := rps
	for i := 0; i < tracedSlices; i++ {
		sl, err := d.runSlice(ctx, next, next+rps, refCallsPerSlice)
		if err != nil {
			return err
		}
		for j, s := range sl.samples {
			if s.ok {
				okRounds[int64(next+j)] = true
			}
		}
		if sl.failed > 0 {
			res.problem("traced pass: %d rounds failed: %v", sl.failed, d.firstErr)
		}
		next += rps
		stats = append(stats, reduceSlice(sl))
	}
	for _, v := range d.violations {
		res.problem("traced pass: %s", v)
	}
	cal := calibrate(stats, refNominalUS)

	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	spans = attachQuorumWaits(spans, &rec.nextID)
	sum := summarize(spans, okRounds)

	traceMetrics(res, sum, cal, untracedOps)
	return writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, cfg.seed, spans)
}

// traceMetrics turns the traced pass's span summary into per-layer metrics.
func traceMetrics(res *runResult, sum traceSummary, cal calibrated, untracedOps float64) {
	m := res.Metrics
	rounds := float64(max(sum.rounds, 1))
	// Spans are times on this box during the traced pass: same ruler.
	us := func(ns int64) float64 { return float64(ns) / 1e3 / cal.MedianK }
	m["client.self_us_per_op"] = us(sum.selfNS["client"]) / rounds
	m["net.self_us_per_op"] = us(sum.selfNS["net"]) / rounds
	m["server.self_us_per_op"] = us(sum.selfNS["server"]) / rounds
	m["store.write_self_us_per_op"] = us(sum.storeWriteNS) / rounds
	m["store.read_self_us_per_op"] = us(sum.storeReadNS) / rounds
	m["store.writes_per_op"] = float64(sum.storeWrites) / rounds
	m["store.reads_per_op"] = float64(sum.storeReads) / rounds
	m["store.keys_scanned_per_op"] = float64(sum.keysScanned) / rounds
	m["cluster.quorum_wait_us"] = us(sum.quorumWaitNS) / float64(max(sum.writes, 1))
	m["cluster.push_rtt_us"] = us(sum.pushNS) / float64(max(sum.pushes, 1))
	m["cluster.replicate_handle_us"] = us(sum.replNS) / float64(max(sum.repls, 1))

	var layered int64
	type share struct {
		layer string
		ns    int64
	}
	var shares []share
	for _, layer := range []string{"client", "net", "server", "store", "cluster"} {
		layered += sum.selfNS[layer]
		shares = append(shares, share{layer, sum.selfNS[layer]})
		res.Metrics["share."+layer] = 0
		if sum.roundNS > 0 {
			res.Metrics["share."+layer] = float64(sum.selfNS[layer]) / float64(sum.roundNS)
		}
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].ns > shares[j].ns })
	res.Dominant = shares[0].layer
	m["harness.trace_sum_ratio"] = 0
	if sum.roundNS > 0 {
		m["harness.trace_sum_ratio"] = float64(layered) / float64(sum.roundNS)
	}
	m["harness.trace_overhead_ratio"] = 0
	if untracedOps > 0 {
		m["harness.trace_overhead_ratio"] = cal.OpsPerS / untracedOps
	}
}

// environment describes the box and the build, for result files and
// baseline.json.
func environment() map[string]string {
	env := map[string]string{
		"nproc":            fmt.Sprint(runtime.NumCPU()),
		"child_gomaxprocs": fmt.Sprint(runtime.NumCPU()) + " (Go default: nproc)",
		"go_version":       runtime.Version(),
		"goos_goarch":      runtime.GOOS + "/" + runtime.GOARCH,
		"ref_nominal_us":   fmt.Sprint(refNominalUS),
		"cpu_model":        cpuModel(),
		"commit":           os.Getenv("ITAG_BENCH_COMMIT"),
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(rel))
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
