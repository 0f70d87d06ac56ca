// Benchmarks regenerating every reproducible table/figure of the iTag demo
// paper (see the experiment index in docs/ARCHITECTURE.md). Each
// BenchmarkE*/BenchmarkA* runs one experiment and logs its result table;
// BenchmarkS* are the systems microbenchmarks.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkE1 -benchtime=1x
// Quick sizes:      go test -bench=. -short
package itag_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"itag"
	"itag/client"
	"itag/internal/bench"
	"itag/internal/cluster"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/rng"
	"itag/internal/server"
	"itag/internal/store"
)

func sizes(b *testing.B) bench.Sizes {
	if testing.Short() {
		return bench.SmallSizes()
	}
	return bench.DefaultSizes()
}

func runExperiment(b *testing.B, f func(bench.Sizes) (bench.Result, error)) {
	sz := sizes(b)
	var res bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = f(sz)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + res.Text())
}

// BenchmarkE1_TableI_StrategyComparison — paper Table I: per-strategy Δq̄
// and characteristic signatures, plus the optimal plan (Σ E[cos(rfd,
// latent)] over Monte-Carlo gain tables; not an upper bound).
func BenchmarkE1_TableI_StrategyComparison(b *testing.B) { runExperiment(b, bench.E1TableI) }

// BenchmarkE2_QualityVsBudget — §IV: q(R) improvement versus budget per
// strategy.
func BenchmarkE2_QualityVsBudget(b *testing.B) { runExperiment(b, bench.E2QualityVsBudget) }

// BenchmarkE3_VsOptimal — §IV: each strategy as a fraction of the optimal
// allocation's improvement.
func BenchmarkE3_VsOptimal(b *testing.B) { runExperiment(b, bench.E3VsOptimal) }

// BenchmarkE4_ThresholdSatisfaction — Table I MU row: resources meeting a
// quality requirement τ.
func BenchmarkE4_ThresholdSatisfaction(b *testing.B) { runExperiment(b, bench.E4ThresholdSatisfaction) }

// BenchmarkE5_LowQualityReduction — Table I FP row: low-quality resource
// count versus budget; FC's popularity skew (Gini).
func BenchmarkE5_LowQualityReduction(b *testing.B) { runExperiment(b, bench.E5LowQualityReduction) }

// BenchmarkE6_MonitoringAndSwitch — Fig. 5 behaviour: live quality curve
// and mid-run FC→FP-MU strategy switch.
func BenchmarkE6_MonitoringAndSwitch(b *testing.B) { runExperiment(b, bench.E6MonitoringAndSwitch) }

// BenchmarkE7_ApprovalFiltering — §III-A approval flow: effect of judging
// + qualification gating with 30% unreliable taggers.
func BenchmarkE7_ApprovalFiltering(b *testing.B) { runExperiment(b, bench.E7ApprovalFiltering) }

// BenchmarkE8_PromoteStop — §III-A promote/stop controls.
func BenchmarkE8_PromoteStop(b *testing.B) { runExperiment(b, bench.E8PromoteStop) }

// BenchmarkE9_TraceReplay — §IV Delicious replay protocol (pre-cutoff seed,
// held-out future posts).
func BenchmarkE9_TraceReplay(b *testing.B) { runExperiment(b, bench.E9TraceReplay) }

// BenchmarkA1_StabilityWindow — ablation: MU stability window W.
func BenchmarkA1_StabilityWindow(b *testing.B) { runExperiment(b, bench.A1StabilityWindow) }

// BenchmarkA2_SwitchPoint — ablation: FP-MU switch trigger.
func BenchmarkA2_SwitchPoint(b *testing.B) { runExperiment(b, bench.A2SwitchPoint) }

// BenchmarkA3_BatchSize — ablation: Algorithm-1 batch size |Rc|.
func BenchmarkA3_BatchSize(b *testing.B) { runExperiment(b, bench.A3BatchSize) }

// BenchmarkS1_StorePostAppend — systems: durable post append throughput
// through the WAL-backed catalog.
func BenchmarkS1_StorePostAppend(b *testing.B) {
	db, err := store.Open(b.TempDir()+"/wal.jsonl", store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	cat := store.NewCatalog(db)
	now := time.Now().UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := store.PostRec{
			ResourceID: fmt.Sprintf("r%03d", i%256),
			TaggerID:   "t1",
			Tags:       []string{"go", "database", "tagging"},
			Time:       now,
		}
		if _, err := cat.AppendPost(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkS2_EngineThroughput — systems: end-to-end tasks/second through
// engine + platform simulator + quality tracking.
func BenchmarkS2_EngineThroughput(b *testing.B) {
	world, err := itag.GenerateWorld(rng.New(1), itag.WorldConfig{NumResources: 200})
	if err != nil {
		b.Fatal(err)
	}
	pop, err := itag.NewPopulation(rng.New(2), itag.PopulationConfig{Size: 50})
	if err != nil {
		b.Fatal(err)
	}
	sim := itag.NewSimulator(world)
	b.ResetTimer()
	tasks := 0
	for i := 0; i < b.N; i++ {
		plat, err := itag.NewPlatform(itag.PlatformConfig{
			Workers: itag.WorkerIDs(pop),
			Post:    itag.GenerativeSource(sim, pop, int64(i)),
			Seed:    int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := itag.NewEngine(itag.EngineConfig{
			Resources: world.Dataset.Resources,
			Strategy:  itag.NewFPMU(),
			Budget:    2000,
			Batch:     32,
			Platform:  plat,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		tasks += eng.Spent()
	}
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/sec")
}

// BenchmarkChooseNext — systems: one task request against the engine's rank
// index, in FP-MU's MU phase. Every resource holds the same two posts, so
// each pick sinks from the top of the heap to the bottom of its tie class —
// the longest path the index has. ns/op should grow with log n (≤ 3× from
// 1e3 to 1e5 resources; a scan of the project would show as 100×) and the
// call allocates nothing.
func BenchmarkChooseNext(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			resources := make([]itag.Resource, n)
			seed := make(map[string][][]string, n)
			for i := range resources {
				id := fmt.Sprintf("r%06d", i)
				resources[i] = itag.Resource{ID: id, Popularity: 1}
				seed[id] = [][]string{{"a", "b"}, {"a", "b"}}
			}
			plat, err := itag.NewPlatform(itag.PlatformConfig{
				Workers: []string{"w"},
				Post:    func(string, string) ([]string, error) { return []string{"a"}, nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			eng, err := itag.NewEngine(itag.EngineConfig{
				Resources: resources, SeedPosts: seed, Platform: plat,
				Strategy: &itag.FPMU{MinPostsTarget: 2}, Budget: b.N + 1, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			eng.ChooseNext() // FP→MU switch: the one O(n) re-key, outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := eng.ChooseNext(); !ok {
					b.Fatal("no task")
				}
			}
		})
	}
}

// BenchmarkStoreCommit — systems: the cost of committing one record into
// tables that already hold n keys, alone (batch=1: one apply per record) and
// as one of a 200-record Apply (batch=200: one sorted merge, so a tree node
// several records touch is built once, at its final size). An op is a record
// in both arms, so B/op is B/record, and both write the same key stream,
// shaped like paid posts: a task record appended under its project
// alternates with a post record under one of n/20 resources. batch=1
// rebuilds one root-to-leaf path per record, so ns/op and B/op grow with
// log n (≤ 3× from 1e3 to 1e5 keys; a copy of anything table-sized would
// show as 10–100×); batch=200 shares the new upper levels and the task
// table's hot leaf, about 0.7–0.85 KB against 1.5–1.65 KB alone on a 2-core
// x86-64 box. B/op includes the record's key and JSON value. A branch on
// the path copies its child pointers and shares its separators with the
// version before; 2.1–2.5 KB alone means branch copies carry their
// separators again, or leaf entries their values as slices.
func BenchmarkStoreCommit(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		for _, batch := range []int{1, 200} {
			b.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(b *testing.B) {
				db := store.OpenMemory()
				for k := 0; k < n; k++ {
					if err := db.Apply([]store.Mutation{storeCommitRecord(k, n)}); err != nil {
						b.Fatal(err)
					}
				}
				muts := make([]store.Mutation, 0, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					muts = append(muts, storeCommitRecord(n+i, n))
					if len(muts) == batch || i == b.N-1 {
						if err := db.Apply(muts); err != nil {
							b.Fatal(err)
						}
						muts = muts[:0]
					}
				}
			})
		}
	}
}

// storeCommitRecord is the k-th record of BenchmarkStoreCommit's stream: a
// completed store.TaskRec or the store.PostRec it paid for, encoded as the
// Catalog stores it (json.Marshal writes the same bytes as its encoders).
func storeCommitRecord(k, n int) store.Mutation {
	at := time.Unix(1760520000+int64(k), 123456789).UTC()
	task := fmt.Sprintf("task-%08d", k/2)
	res := fmt.Sprintf("res-%06d", (k/2*7919)%max(n/20, 1))
	if k%2 == 0 {
		return store.Mutation{Op: store.OpPut, Table: store.TableTasks, Key: "proj/" + task, Value: mustJSON(store.TaskRec{
			ID: task, ProjectID: "proj", ResourceID: res, WorkerID: "tag-000001", Status: store.TaskCompleted,
			Reward: 0.05, CreatedAt: at, DoneAt: at,
		})}
	}
	return store.Mutation{Op: store.OpPut, Table: store.TablePosts, Key: fmt.Sprintf("%s/%012d", res, k/2), Value: mustJSON(store.PostRec{
		ResourceID: res, TaggerID: "tag-000001", TaskID: task, Tags: []string{"go", "database", "tagging"}, Time: at,
	})}
}

func mustJSON(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// BenchmarkStoreRecovery — systems: Open of a WAL holding 1e5 single-record
// commits and no snapshot. Replay merges a whole file's records into the
// tree at once, so it costs a tree build, not 1e5 path copies, and reads
// each line into its reader's buffer and decodes it with the store's cursor
// into exact-size copies: about 2.2–3.4 µs/record and 56 MB/op on a 2-core
// x86-64 box, against 6.2–8.3 µs and 121 MB while each line was its own
// allocation and decoded by json.Unmarshal.
func BenchmarkStoreRecovery(b *testing.B) {
	benchRecovery(b, false)
}

// BenchmarkSnapshotRecovery — systems: BenchmarkStoreRecovery's state
// loaded from a snapshot instead: the same 1e5 records committed one by one,
// then Compact, so Open reads one snapshot and no segment. The snapshot is
// one put frame per entry in key order, decoded by replay's cursor and built
// into each table once: about 1.0–1.7 µs/record, 30 MB/op and 263 k
// allocs/op on a 2-core x86-64 Xeon box, against 3.0–3.8 µs, 67 MB and 314 k
// while it was one JSON object decoded into maps and sorted.
func BenchmarkSnapshotRecovery(b *testing.B) {
	benchRecovery(b, true)
}

// benchRecovery times Open of a store of 1e5 single-record commits, after a
// Compact when snapshot is set (then the snapshot holds every record and no
// segment has one to replay), and reports ns/record.
func benchRecovery(b *testing.B, snapshot bool) {
	const records = 100000
	path := filepath.Join(b.TempDir(), "itag.wal")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < records; k++ {
		m := storeCommitRecord(k, records)
		if err := db.Put(m.Table, m.Key, m.Value); err != nil {
			b.Fatal(err)
		}
	}
	if snapshot {
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	replayed := uint64(records)
	if snapshot {
		replayed = 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := store.Open(path, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st := re.Stats(); st.RecoveredRecords != replayed || (st.SnapshotsLoaded == 1) != snapshot {
			b.Fatalf("recovered %d records (snapshot %d); want %d (snapshot %v)", st.RecoveredRecords, st.SnapshotsLoaded, replayed, snapshot)
		}
		b.StopTimer()
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
}

// BenchmarkCatalogGet — systems: a Catalog point read over a memory store of
// 1 000 resources. hit reads each resource in turn after one warming read:
// one descent of the table's tree for the stored bytes, one record-cache load
// that finds the decode of those same bytes, no JSON decode, 24 B/op (the
// escaped byte-slice header handed to Store.Get). miss reads an ID that was
// never stored: the descent alone and ErrNotFound. A hit costing what a
// decode costs (~0.6 µs, ~200 B and 7 allocs/op; ~2 µs, ~400 B and 10
// through encoding/json) means the cache stopped matching.
func BenchmarkCatalogGet(b *testing.B) {
	const resources = 1000
	cat := store.NewCatalog(store.OpenMemory())
	ids := make([]string, resources)
	for i := range ids {
		ids[i] = fmt.Sprintf("res-%05d", i)
		r := store.ResourceRec{ID: ids[i], ProjectID: "proj-000001", Kind: "url", Name: "https://example.org/" + ids[i], Topic: i % 17, Popularity: 0.5}
		if err := cat.PutResource(r); err != nil {
			b.Fatal(err)
		}
		if _, err := cat.GetResource(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r, err := cat.GetResource(ids[i%resources]); err != nil || r.ID != ids[i%resources] {
				b.Fatalf("GetResource = %q, %v", r.ID, err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cat.GetResource("res-absent"); !errors.Is(err, store.ErrNotFound) {
				b.Fatalf("GetResource of an absent ID = %v", err)
			}
		}
	})
}

// BenchmarkBatchTasks — systems: one 200-item tasks:batch call (request +
// submit per item) through core.Service over a memory catalog, on a project
// of 1 000 resources preloaded with 5 posts each: batch_engine's per-call
// work without HTTP. Per item that is a strategy choice, a quality update and
// the service's bookkeeping; per call, one store commit of 400 records. The
// lines to watch are allocs/op and B/op: about 470 and 164 KB/op at
// -benchtime 400x on a 2-core x86-64 box, the results appended to a
// recycled slice as the server's are (1 050 and 174 KB while every item
// allocated its task ID and its task and post keys, and each call its
// results and a tagger map). About 50 KB more, allocs unchanged, means the
// write set's 400-entry mutation list is allocated per call again instead
// of drawn from its pool; 1 360 and 335 KB was the commit copying a tree
// node again for each record that reached it and splitting over-full nodes
// into two more copies, 2 530 and 455 KB each staged record boxed into the
// mutation and copied again by the store, 5 600 a json.Marshal per value
// and a cache store per written key.
// internal/server's TestBatchTasksAllocs bounds both in tier-1.
func BenchmarkBatchTasks(b *testing.B) {
	const resources, items = 1000, 200
	ctx := context.Background()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
	defer svc.Close()
	prov, err := svc.RegisterProvider(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	taggers := make([]string, 20)
	for i := range taggers {
		if taggers[i], err = svc.RegisterTagger(ctx, fmt.Sprintf("tagger-%02d", i)); err != nil {
			b.Fatal(err)
		}
	}
	vocab := []string{"go", "database", "tagging", "web", "design", "music", "news", "blog", "tools", "howto", "video", "linux"}
	spec := core.ProjectSpec{
		ProviderID: prov, Name: "batch", Budget: (b.N + 1) * items, PayPerTask: 0.05, Strategy: "fp-mu",
		Resources: make([]itag.Resource, resources), SeedPosts: make(map[string][][]string, resources),
	}
	for i := range spec.Resources {
		id := fmt.Sprintf("res-%04d", i)
		spec.Resources[i] = itag.Resource{ID: id, Kind: "url", Name: id, Popularity: 1}
		for p := 0; p < 5; p++ {
			spec.SeedPosts[id] = append(spec.SeedPosts[id], []string{vocab[(i+p)%len(vocab)], vocab[(i*7+p)%len(vocab)]})
		}
	}
	proj, err := svc.CreateProject(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	calls := make([][]core.BatchItem, 16)
	for c := range calls {
		calls[c] = make([]core.BatchItem, items)
		for i := range calls[c] {
			k := c*items + i
			calls[c][i] = core.BatchItem{TaggerID: taggers[k%len(taggers)], Tags: []string{vocab[k%len(vocab)], vocab[(k/3)%len(vocab)], vocab[(k/7)%len(vocab)]}}
		}
	}
	var out []core.BatchResult // recycled, as the server recycles its results
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.BatchTasks(ctx, proj, calls[i%len(calls)], out[:0])
		out = res
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil || !r.Submitted {
				b.Fatalf("item: %+v", r)
			}
		}
	}
}

// BenchmarkBatchTasksHTTP — systems: BenchmarkBatchTasks's call through the
// SDK over loopback TCP to a server.New stack: batch_engine's round without
// the harness. On top of the service's work it pays the SDK's encode of 200
// items, the server's read and decode of them, the encode of 200 results and
// the SDK's decode of those — all four without reflection. On a 2-core
// x86-64 box at -benchtime 400x: ≈ 590 allocs/op and 250–255 KB/op
// (≈ 1 170 and 293 KB while items, tags and results were arrays of their
// own per call and every item allocated its task ID and keys; ≈ 357 KB
// while the mutation list was allocated per call, ≈ 2 660 allocs and
// 570 KB while staged records were boxed); about 470 of the allocs are
// BenchmarkBatchTasks's, the service's. internal/server's
// TestSDKRequestsTakeDirectPath and the client's TestServerBodiesTakeFastPath
// check that neither side falls back to encoding/json.
func BenchmarkBatchTasksHTTP(b *testing.B) {
	const resources, items = 1000, 200
	ctx := context.Background()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
	defer svc.Close()
	srv := httptest.NewServer(server.New(svc, nil))
	defer srv.Close()
	c := client.New(srv.URL, srv.Client())
	prov, err := svc.RegisterProvider(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	taggers := make([]string, 20)
	for i := range taggers {
		if taggers[i], err = svc.RegisterTagger(ctx, fmt.Sprintf("tagger-%02d", i)); err != nil {
			b.Fatal(err)
		}
	}
	vocab := []string{"go", "database", "tagging", "web", "design", "music", "news", "blog", "tools", "howto", "video", "linux"}
	spec := core.ProjectSpec{
		ProviderID: prov, Name: "batch", Budget: (b.N + 1) * items, PayPerTask: 0.05, Strategy: "fp-mu",
		Resources: make([]itag.Resource, resources), SeedPosts: make(map[string][][]string, resources),
	}
	for i := range spec.Resources {
		id := fmt.Sprintf("res-%04d", i)
		spec.Resources[i] = itag.Resource{ID: id, Kind: "url", Name: id, Popularity: 1}
		for p := 0; p < 5; p++ {
			spec.SeedPosts[id] = append(spec.SeedPosts[id], []string{vocab[(i+p)%len(vocab)], vocab[(i*7+p)%len(vocab)]})
		}
	}
	proj, err := svc.CreateProject(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	calls := make([][]client.BatchTaskItem, 16)
	for c := range calls {
		calls[c] = make([]client.BatchTaskItem, items)
		for i := range calls[c] {
			k := c*items + i
			calls[c][i] = client.BatchTaskItem{TaggerID: taggers[k%len(taggers)], Tags: []string{vocab[k%len(vocab)], vocab[(k/3)%len(vocab)], vocab[(k/7)%len(vocab)]}}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.BatchTasks(ctx, proj, calls[i%len(calls)])
		if err != nil || resp.OK != items {
			b.Fatalf("call: %+v, %v", resp, err)
		}
	}
}

// BenchmarkFollowerExportPage — systems: one 50-row export page on a runless
// service (a cluster follower's read path), read as the export route reads
// it (ExportPageStamped), over 200 resources holding 5, 50 or 500 posts
// each, with one replicated post applied between calls — so every call
// finds one row of its page changed. A row is a kept fold plus the posts
// that arrived since (core's folded export rows), not a replay of the
// resource's history: ns/op and B/op at posts=500 stay within 1.5× of
// posts=5. A replay per read shows as linear growth across the three lines.
// The 49 rows whose clock did not move answer from their kept bytes with no
// seek; only the changed row is scanned, folded and encoded.
// The op includes the write and its shipment (≈ 40 µs, the same on every
// line): stopping the timer around them costs a stop-the-world per
// iteration that disturbs the page more than they do.
//
// The outside/ lines are the other case, and the common one: the replicated
// post lands on one of the 150 resources the page does not show, and the page
// is revalidated through a server stack with If-None-Match. Every answer is a
// 304 — the page's stamp holds the clocks of its own 50 rows, none of which
// moved — so nothing is scanned or encoded and the line costs the write, its
// shipment and ~50 atomic loads, flat in posts and under the lines above. A
// table-grain stamp (any post retires every page) fails the 304 check.
func BenchmarkFollowerExportPage(b *testing.B) {
	for _, posts := range []int{5, 50, 500} {
		b.Run(fmt.Sprintf("posts=%d", posts), func(b *testing.B) { followerExportPage(b, posts, false) })
	}
	for _, posts := range []int{5, 50, 500} {
		b.Run(fmt.Sprintf("outside/posts=%d", posts), func(b *testing.B) { followerExportPage(b, posts, true) })
	}
}

func followerExportPage(b *testing.B, posts int, outside bool) {
	dir := b.TempDir()
	ldb, err := store.Open(filepath.Join(dir, "leader.wal"), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ldb.Close()
	fdb, err := store.Open(filepath.Join(dir, "follower.wal"), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer fdb.Close()
	leader, follower := store.NewCatalog(ldb), store.NewCatalog(fdb)
	svc := core.NewService(follower, 1)
	defer svc.Close()
	ship := func() {
		for {
			data, _, err := ldb.ReplTail(fdb.AppliedSeq(), 1<<20, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(data) == 0 {
				return
			}
			if _, err := follower.ApplyReplicated(data); err != nil {
				b.Fatal(err)
			}
		}
	}
	post := func(ws *store.WriteSet, res, k int) {
		if _, err := ws.AppendPost(store.PostRec{
			ResourceID: fmt.Sprintf("res-%04d", res), TaggerID: "tag-000001",
			Tags: []string{"go", fmt.Sprintf("t%d", k%7), fmt.Sprintf("u%d", k%11)}, Time: time.Unix(0, 0).UTC(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	const resources, page = 200, 50
	ws := leader.Begin(resources + 1)
	_ = ws.PutProject(store.ProjectRec{ID: "proj-1", Name: "bench", Budget: 1, Status: store.ProjectActive})
	for r := 0; r < resources; r++ {
		id := fmt.Sprintf("res-%04d", r)
		_ = ws.PutResource(store.ResourceRec{ID: id, ProjectID: "proj-1", Name: id})
	}
	if err := ws.Commit(); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < posts; k++ {
		ws := leader.Begin(resources)
		for r := 0; r < resources; r++ {
			post(ws, r, k+r)
		}
		if err := ws.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	ship()
	ctx := context.Background()
	if rows, _, err := svc.ExportPage(ctx, "proj-1", "", page); err != nil || len(rows) != page || rows[0].Posts != posts {
		b.Fatalf("warm-up page: %d rows, %v", len(rows), err)
	}
	// What an op posts to and how it reads the page: a row of the page, read
	// through the service as the export route reads it (encoded rows) — or a
	// row outside it, revalidated through a server.
	target := func(i int) int { return i % page }
	view := func() {
		if rows, _, err := svc.ExportPageStamped(ctx, "proj-1", "", page, nil); err != nil || len(rows) != page {
			b.Fatalf("page: %d rows, %v", len(rows), err)
		}
	}
	if outside {
		srv := server.New(svc, nil)
		req := httptest.NewRequest("GET", fmt.Sprintf("/api/v1/projects/proj-1/export?limit=%d", page), nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 || rec.Header().Get("Etag") == "" {
			b.Fatalf("first page: status %d, ETag %q", rec.Code, rec.Header().Get("Etag"))
		}
		req.Header.Set("If-None-Match", rec.Header().Get("Etag"))
		target = func(i int) int { return page + i%(resources-page) }
		view = func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 304 {
				b.Fatalf("a post outside the page drew %d, want 304", rec.Code)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := leader.Begin(1)
		post(ws, target(i), i)
		if err := ws.Commit(); err != nil {
			b.Fatal(err)
		}
		ship()
		view()
	}
}

// BenchmarkReplTailSteady — systems: what a caught-up follower's pull costs
// the leader, with 1e2 or 4e4 records already in the active segment. An op
// is one commit and the shipping that follows it when two readers trail the
// writer one record apart (the pushed follower and the pulling one):
// ReplTail for the reader one record behind and, every other commit, for
// the reader two behind — 1.5 calls. Both are answered by copy out of the
// WAL's tail window, so the calls cost the same whatever the segment's
// length and allocate what they ship: tail-ns/call and tail-B/call, taken
// over a separate pass of calls alone, are flat (within 1.2×) and under 2×
// shipped-B/call; ns/op adds the commit, whose writeback noise grows with
// the preloaded file. A file scan per call shows as all of them growing with
// the segment.
func BenchmarkReplTailSteady(b *testing.B) {
	for _, segment := range []int{1e2, 4e4} {
		b.Run(fmt.Sprintf("segment=%d", segment), func(b *testing.B) {
			db, err := store.Open(filepath.Join(b.TempDir(), "leader.wal"), store.Options{SegmentBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			value := strings.Repeat("p", 400) // a paid post's record is ≈ 450 bytes framed
			// 200 keys rewritten over and over: the segment grows, the table
			// (and so the cost of the commit itself) does not.
			for k := 0; k < segment; k++ {
				if err := db.Put("posts", fmt.Sprintf("res-%04d", k%200), value); err != nil {
					b.Fatal(err)
				}
			}
			tail := func(behind uint64) int {
				applied := db.AppliedSeq()
				data, last, err := db.ReplTail(applied-behind, 1<<20, nil)
				if err != nil || last != applied {
					b.Fatalf("ReplTail(%d) = to seq %d, %v; want %d", applied-behind, last, err, applied)
				}
				return len(data)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put("posts", fmt.Sprintf("res-%04d", i%200), value); err != nil {
					b.Fatal(err)
				}
				tail(1)
				if i%2 == 1 {
					tail(2)
				}
			}
			b.StopTimer()
			const calls = 10000
			var before, after runtime.MemStats
			shipped := 0
			runtime.ReadMemStats(&before)
			start := time.Now()
			for k := 0; k < calls; k++ {
				shipped += tail(1 + uint64(k%2))
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(elapsed.Nanoseconds())/calls, "tail-ns/call")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/calls, "tail-B/call")
			b.ReportMetric(float64(shipped)/calls, "shipped-B/call")
		})
	}
}

// followerIngest is a follower node taking shipments on one open replicate
// exchange: beta follows slot alpha, whose leader is not running; the
// shipments come from a leader store of alpha's written beforehand, one
// commit each.
type followerIngest struct {
	tb     testing.TB
	node   *cluster.Node
	x      *cluster.Exchange
	ring   uint64
	frames [][]byte
	next   int
}

// newFollowerIngest commits n submit-shaped write sets — what
// core.Service.SubmitTask stages: the post and the completed task, as one
// batch record — to a leader store, keeps their frames, and starts the
// follower.
func newFollowerIngest(tb testing.TB, n int) *followerIngest {
	dir := tb.TempDir()
	leader, err := store.Open(filepath.Join(dir, "leader.wal"), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cat := store.NewCatalog(leader)
	at := time.Date(2026, 10, 15, 9, 30, 1, 123456789, time.UTC)
	for k := 0; k < n; k++ {
		res := fmt.Sprintf("proj-000001-r%04d", k%200)
		task := store.TaskRec{ID: fmt.Sprintf("task-%06d", k), ProjectID: "proj-000001", ResourceID: res, WorkerID: "tagger-000001",
			Status: store.TaskCompleted, Reward: 0.05, CreatedAt: at, DoneAt: at.Add(time.Second)}
		w := cat.Begin(2)
		if _, err := w.AppendPost(store.PostRec{ResourceID: res, TaggerID: task.WorkerID, TaskID: task.ID,
			Tags: []string{"go", "database", "tagging"}, Time: task.DoneAt}); err != nil {
			tb.Fatal(err)
		}
		if err := w.PutTask(task); err != nil {
			tb.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	data, last, err := leader.ReplTail(0, 1<<30, nil)
	if err != nil || last != uint64(n) {
		tb.Fatalf("leader tail to %d, %v; want %d", last, err, n)
	}
	if err := leader.Close(); err != nil {
		tb.Fatal(err)
	}
	f := &followerIngest{tb: tb, frames: bytes.SplitAfter(data, []byte("\n"))[:n]}

	ring, err := cluster.NewRing([]cluster.Member{{Slot: "alpha", Addr: "http://alpha"}, {Slot: "beta", Addr: "http://beta"}})
	if err != nil {
		tb.Fatal(err)
	}
	tr := cluster.NewHandlerTransport()
	f.node, err = cluster.New(cluster.Options{
		Slot: "beta", Ring: ring, Dir: filepath.Join(dir, "beta"), Replicas: 1,
		PullInterval: time.Hour, PullMaxBackoff: time.Hour, HTTPClient: tr.Client(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = f.node.Close() })
	tr.Register("beta", f.node.Handler())
	f.ring = ring.Version
	if f.x, err = cluster.OpenExchange(context.Background(), tr, "http://beta", "alpha", "http://alpha", f.ring); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.x.Close)
	return f
}

// ship sends the next shipment to the follower and checks its ack.
func (f *followerIngest) ship() {
	from := f.next
	ack, err := f.x.Ship(cluster.Shipment{Format: cluster.FormatFrames, From: uint64(from), Applied: uint64(len(f.frames)),
		RingVersion: f.ring, Payload: f.frames[from]})
	if err != nil || ack.Applied != uint64(from+1) {
		f.tb.Fatalf("shipment %d: ack %+v, %v; want applied %d", from+1, ack, err, from+1)
	}
	f.next++
}

// BenchmarkFollowerIngest — systems: one shipment a follower takes, shaped
// like a paid post's submit (a batch record of the post and the completed
// task, ≈ 560 bytes framed), as one frame on an open replicate exchange over
// NewHandlerTransport to a durable replica: the frame's read into the
// exchange's buffer, its fence, the records' check and decode, the WAL
// append and fsync, the apply, the Catalog's invalidations and the ack.
// Opening the exchange is not in it: an exchange lives as long as its
// sender. quorum_mixed runs this about twice per post.
// TestFollowerIngestAllocs bounds it in tier-1.
func BenchmarkFollowerIngest(b *testing.B) {
	f := newFollowerIngest(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ship()
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// followerIngestAllocs and followerIngestBytes bound one
// BenchmarkFollowerIngest shipment. With Go 1.24 on x86-64 a warm shipment
// on an open exchange allocates 22.3 times and 2.36 KB, all of it the
// store's decode, commit and apply. A whole HTTP request per shipment, as
// before the exchange, read 68 allocations and 7.8 KB; a payload read into
// a new buffer per frame, not the exchange's, reads 23.3 and 3.0 KB.
const (
	followerIngestAllocs = 25
	followerIngestBytes  = 2816
)

// TestFollowerIngestAllocs holds a shipment under followerIngestAllocs
// allocations and followerIngestBytes bytes, measured over 300 shipments
// after 100 that warm the follower up.
func TestFollowerIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops items at random under -race, so allocation counts are not the product's")
	}
	const warm, shipments = 100, 300
	f := newFollowerIngest(t, warm+shipments)
	for range warm {
		f.ship()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range shipments {
		f.ship()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / shipments
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / shipments
	t.Logf("a shipment allocates %.1f times and %.0f B (bounds %d and %d)", allocs, bytes, followerIngestAllocs, followerIngestBytes)
	if allocs > followerIngestAllocs || bytes > followerIngestBytes {
		t.Errorf("a shipment allocates %.1f times and %.0f B, want at most %d and %d", allocs, bytes, followerIngestAllocs, followerIngestBytes)
	}
}

// promoteRing boots a 3-node in-process ring (alpha, beta, gamma; two
// followers a slot) in dir, provisions on alpha a live fp-mu project of
// resources resources holding 20 seed posts each, waits until both followers
// of alpha have applied all of it, reads the project's whole export from the
// follower the caller promotes (which folds a row for every resource), and
// then closes alpha and drops it off the network. It returns the live nodes
// and that follower.
func promoteRing(tb testing.TB, dir string, resources int) (nodes []*cluster.Node, follower *cluster.Node) {
	ctx := context.Background()
	ring, err := cluster.NewRing([]cluster.Member{
		{Slot: "alpha", Addr: "http://alpha"}, {Slot: "beta", Addr: "http://beta"}, {Slot: "gamma", Addr: "http://gamma"}})
	if err != nil {
		tb.Fatal(err)
	}
	tr := cluster.NewHandlerTransport()
	bySlot := map[string]*cluster.Node{}
	for _, slot := range []string{"alpha", "beta", "gamma"} {
		n, err := cluster.New(cluster.Options{Slot: slot, Ring: ring.Clone(), Dir: filepath.Join(dir, slot), Seed: 1,
			PullInterval: 5 * time.Millisecond, HTTPClient: tr.Client()})
		if err != nil {
			tb.Fatal(err)
		}
		bySlot[slot] = n
		tr.Register(slot, n.Handler())
	}
	svc := bySlot["alpha"].Service("alpha")
	prov, err := svc.RegisterProvider(ctx, "prov")
	if err != nil {
		tb.Fatal(err)
	}
	spec := core.ProjectSpec{ProviderID: prov, Name: "promote", Budget: 1 << 30, PayPerTask: 0.01, Strategy: "fp-mu",
		SeedPosts: make(map[string][][]string, resources)}
	for i := 0; i < resources; i++ {
		id := fmt.Sprintf("res-%05d", i)
		spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Kind: dataset.KindURL, Name: id, Popularity: 1})
		for k := 0; k < 20; k++ {
			spec.SeedPosts[id] = append(spec.SeedPosts[id], []string{"go", fmt.Sprintf("t%d", (i+k)%7), fmt.Sprintf("u%d", (i*k)%11)})
		}
	}
	project, err := svc.CreateProject(ctx, spec)
	if err != nil {
		tb.Fatal(err)
	}
	want := bySlot["alpha"].DB("alpha").AppliedSeq()
	followers := ring.Followers("alpha", 2)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(2 * time.Millisecond) {
		caught := true
		for _, slot := range followers {
			if rep := bySlot[slot].ReplicaDB("alpha"); rep == nil || rep.AppliedSeq() < want {
				caught = false
			}
		}
		if caught {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("the followers of alpha never applied seq %d", want)
		}
	}
	follower = bySlot[followers[0]]
	req := httptest.NewRequest(http.MethodGet, "/api/v1/projects/"+project+"/export", nil)
	req.Header.Set(cluster.HeaderRead, cluster.ReadFollower)
	w := httptest.NewRecorder()
	follower.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Header().Get(cluster.HeaderServedBy) == "" {
		tb.Fatalf("follower export read: %d, served by %q", w.Code, w.Header().Get(cluster.HeaderServedBy))
	}
	tr.Register("alpha", nil)
	if err := bySlot["alpha"].Close(); err != nil {
		tb.Fatal(err)
	}
	return []*cluster.Node{bySlot["beta"], bySlot["gamma"]}, follower
}

// BenchmarkPromote — systems: a failover's own cost. An op is one
// Node.Promote of a follower's replica of a slot whose leader is gone, on a
// 3-node in-process ring, timed from the call to its return: the role change,
// the run resume that rebuilds the project's engine from its resources and
// seed posts (20 a resource), and the ring push to the third node. Each op
// boots its own ring; the boot, the project's replication and the teardown
// are not timed. heap-MB is the live heap of the two surviving nodes once
// the third has re-followed the promoted leader, after a GC: what the kept
// stack carries over from its follower days shows there. Keep -benchtime
// small (5x): a boot at resources=5e3 commits and ships 1e5 posts.
func BenchmarkPromote(b *testing.B) {
	for _, size := range []struct {
		name      string
		resources int
	}{{"1e3", 1000}, {"5e3", 5000}} {
		b.Run("resources="+size.name, func(b *testing.B) {
			var heap uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nodes, follower := promoteRing(b, b.TempDir(), size.resources)
				b.StartTimer()
				if err := follower.Promote(context.Background(), "alpha"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				heap += promotedHeap(b, nodes, follower)
				for _, n := range nodes {
					if err := n.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(heap)/float64(b.N)/(1<<20), "heap-MB")
		})
	}
}

// promotedHeap waits until the node that did not take alpha over has applied
// everything the promoted leader holds, and returns the live heap after a GC.
func promotedHeap(tb testing.TB, nodes []*cluster.Node, leader *cluster.Node) uint64 {
	want := leader.DB("alpha").AppliedSeq()
	for _, n := range nodes {
		if n == leader {
			continue
		}
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(2 * time.Millisecond) {
			if rep := n.ReplicaDB("alpha"); rep != nil && rep.AppliedSeq() >= want {
				break
			}
			if time.Now().After(deadline) {
				tb.Fatalf("the third node never re-followed alpha up to seq %d", want)
			}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// exportFill is a live manual project of 1 000 resources holding 12 posts
// each and a server over it: fill posts once on a row of the first 50-row
// export page (promote + lease + submit through core.Service), then GETs
// that page through the server's handler chain into a writer that keeps
// nothing. The post retires the page, so every GET is a response-cache fill.
type exportFill struct {
	tb     testing.TB
	svc    *core.Service
	srv    *server.Server
	proj   string
	tagger string
	ids    []string
	req    *http.Request
	w      discardWriter
	n      int
}

const exportFillPage = 50

func newExportFill(tb testing.TB) *exportFill {
	ctx := context.Background()
	f := &exportFill{tb: tb, svc: core.NewService(store.NewCatalog(store.OpenMemory()), 1)}
	tb.Cleanup(f.svc.Close)
	f.srv = server.New(f.svc, nil)
	prov, err := f.svc.RegisterProvider(ctx, "prov")
	if err != nil {
		tb.Fatal(err)
	}
	if f.tagger, err = f.svc.RegisterTagger(ctx, "tagr"); err != nil {
		tb.Fatal(err)
	}
	spec := core.ProjectSpec{ProviderID: prov, Name: "fill", Budget: 1 << 30, PayPerTask: 0.01, Strategy: "fp-mu", SeedPosts: map[string][][]string{}}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("res-%04d", i)
		f.ids = append(f.ids, id)
		spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Kind: dataset.KindURL, Name: "resource " + id, Popularity: 1})
		for k := 0; k < 12; k++ {
			spec.SeedPosts[id] = append(spec.SeedPosts[id], []string{"go", fmt.Sprintf("t%d", (i+k)%7), fmt.Sprintf("u%d", (i*k)%11)})
		}
	}
	if f.proj, err = f.svc.CreateProject(ctx, spec); err != nil {
		tb.Fatal(err)
	}
	f.req = httptest.NewRequest("GET", fmt.Sprintf("/api/v1/projects/%s/export?limit=%d", f.proj, exportFillPage), nil)
	f.w.h = make(http.Header)
	f.get() // every row encoded once, as a warm server has them
	return f
}

// fill is one op: a post on a row of the page, then the page.
func (f *exportFill) fill() {
	ctx := context.Background()
	target := f.ids[f.n%exportFillPage]
	f.n++
	if err := f.svc.Promote(ctx, f.proj, target); err != nil {
		f.tb.Fatal(err)
	}
	task, err := f.svc.RequestTask(ctx, f.proj, f.tagger)
	if err != nil || task.ResourceID != target {
		f.tb.Fatalf("lease: %+v, %v; want one on %s", task, err, target)
	}
	if err := f.svc.SubmitTask(ctx, f.proj, task.ID, []string{"go", "fill", fmt.Sprint("t", f.n%5)}); err != nil {
		f.tb.Fatal(err)
	}
	f.get()
}

func (f *exportFill) get() {
	f.w.code, f.w.n = 0, 0
	f.srv.ServeHTTP(&f.w, f.req)
	if f.w.code != http.StatusOK || strconv.Itoa(f.w.n) != f.w.h.Get("Content-Length") {
		f.tb.Fatalf("export page: status %d, %d bytes under Content-Length %s", f.w.code, f.w.n, f.w.h.Get("Content-Length"))
	}
}

// discardWriter is a ResponseWriter that counts the body and keeps nothing.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// BenchmarkExportPageFill — systems: what a dashboard's export page costs to
// fill after a post on one of its rows, the miss a provider watching
// quality converge takes on most refreshes. An op is one paid post on a row
// of a 50-row page (exportFill.fill) and one GET of that page through the
// server's handler chain, a response-cache fill. A fill encodes the one row
// whose clock moved and serves the other 49 as the bytes kept beside their
// clocks, written as the page's pieces without being copied into one body.
// TestExportPageFillAllocs bounds its B/op in tier-1.
func BenchmarkExportPageFill(b *testing.B) {
	f := newExportFill(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.fill()
	}
}

// exportPageFillBytes bounds one BenchmarkExportPageFill op. With Go 1.24 on
// x86-64 a warm op allocates 113 times and 14.4 KB, the post and the
// promotion that steers it included (a stored promotion is two resource
// writes: Promote's and the consuming lease's); encoding
// every row of the page through encoding/json and copying it into a fresh
// body, as fills did before rows were kept encoded, 129 times and 66.5 KB.
const exportPageFillBytes = 24 << 10

// TestExportPageFillAllocs holds a post and the page fill after it under
// exportPageFillBytes bytes, measured over 200 ops after 50 that warm up.
func TestExportPageFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops items at random under -race, so allocation counts are not the product's")
	}
	const warm, ops = 50, 200
	f := newExportFill(t)
	for range warm {
		f.fill()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range ops {
		f.fill()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / ops
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / ops
	t.Logf("a post and a page fill allocate %.1f times and %.0f B (bound %d B)", allocs, bytes, exportPageFillBytes)
	if bytes > exportPageFillBytes {
		t.Errorf("a post and a page fill allocate %.0f B, want at most %d", bytes, exportPageFillBytes)
	}
}

// BenchmarkDashboardRefresh — systems: what a provider's refresh costs while
// taggers post. An op is one paid post (promote + request + submit, over
// HTTP) on a resource OUTSIDE the page being watched, then one view through
// the SDK: the project row, one 50-row export page, two resource screens on
// that page. The post moves the project's totals, so the row is a 200 (which
// the SDK decodes directly, without encoding/json); the
// page and both screens show nothing that was written, so their validators
// stand — three of the four GETs are 304s (304/view), answered by the
// server from ~50 atomic loads and by the SDK from the value it kept, with
// nothing rendered, encoded, read or decoded. ns/op and B/op are flat
// (within 1.5×) across projects of 1e2, 1e3 and 1e4 resources. Under a
// process-wide version every view re-rendered, re-encoded and re-decoded
// the whole page (304/view 0, B/op ≈ 10× this).
func BenchmarkDashboardRefresh(b *testing.B) {
	for _, resources := range []int{1e2, 1e3, 1e4} {
		b.Run(fmt.Sprintf("resources=%d", resources), func(b *testing.B) {
			ctx := context.Background()
			svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
			defer svc.Close()
			web := server.New(svc, nil)
			srv := httptest.NewServer(web)
			defer srv.Close()
			c := client.New(srv.URL, srv.Client())

			prov, err := c.RegisterProvider(ctx, "prov")
			if err != nil {
				b.Fatal(err)
			}
			tagger, err := c.RegisterTagger(ctx, "tagr")
			if err != nil {
				b.Fatal(err)
			}
			req := client.CreateProjectReq{ProviderID: prov, Name: "refresh", Budget: 1 << 30, PayPerTask: 0.01, Strategy: "fp-mu"}
			ids := make([]string, resources)
			for i := range ids {
				ids[i] = fmt.Sprintf("res-%05d", i)
				req.Resources = append(req.Resources, client.UploadedResource{ID: ids[i], Kind: "url", Name: ids[i]})
			}
			proj, err := c.CreateProject(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			const page = 50
			post := func(i int) {
				target := ids[page+i%(resources-page)] // never a row of the first page
				if err := c.PromoteResource(ctx, proj, target); err != nil {
					b.Fatal(err)
				}
				task, err := c.RequestTask(ctx, proj, tagger)
				if err != nil || task.ResourceID != target {
					b.Fatalf("lease = %q, %v; want the promoted %s", task.ResourceID, err, target)
				}
				if err := c.SubmitTask(ctx, proj, task.ID, []string{"go", fmt.Sprintf("t%d", i%7), fmt.Sprintf("u%d", i%11)}); err != nil {
					b.Fatal(err)
				}
			}
			view := func(spent int) {
				info, err := c.GetProject(ctx, proj)
				if err != nil || info.Spent != spent {
					b.Fatalf("project shows %d spent, %v; want %d", info.Spent, err, spent)
				}
				if rows, err := c.Export(ctx, proj, "", page); err != nil || len(rows.Items) != page {
					b.Fatalf("export page: %d rows, %v", len(rows.Items), err)
				}
				for _, id := range ids[:2] {
					if _, err := c.GetResource(ctx, proj, id); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Every resource gets a few posts so rows carry tags, then the
			// view is warm: validators held, entries hot.
			for k := 0; k < 3; k++ {
				items := make([]client.BatchTaskItem, resources)
				for i := range items {
					items[i] = client.BatchTaskItem{TaggerID: tagger, Tags: []string{"go", fmt.Sprintf("t%d", (i+k)%7)}}
				}
				if resp, err := c.BatchTasks(ctx, proj, items); err != nil || resp.Failed != 0 {
					b.Fatalf("preload: %+v, %v", resp, err)
				}
			}
			spent := 3 * resources
			for i := 0; i < 8; i++ {
				view(spent)
			}
			before := web.RespCacheStats().NotModified
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(i)
				spent++
				view(spent)
			}
			b.StopTimer()
			b.ReportMetric(float64(web.RespCacheStats().NotModified-before)/float64(b.N), "304/view")
		})
	}
}

// BenchmarkTaggerRound — systems: the paper's manual loop, one tagger's
// RequestTask + SubmitTask through the SDK over loopback TCP, against a server
// on a memory store (tag_durable's round without the WAL). conns/op counts
// the connections the server accepted per round: about 0, since every call
// reads its response to EOF and the next one reuses the connection. About 1
// means a body is closed unread again, so each submit drops its connection
// and the next lease pays a dial, an accept, a handler goroutine and a close.
func BenchmarkTaggerRound(b *testing.B) {
	ctx := context.Background()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
	defer svc.Close()
	srv := httptest.NewUnstartedServer(server.New(svc, nil))
	var opened atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := client.New(srv.URL, srv.Client())

	prov, err := c.RegisterProvider(ctx, "prov")
	if err != nil {
		b.Fatal(err)
	}
	tagger, err := c.RegisterTagger(ctx, "tagr")
	if err != nil {
		b.Fatal(err)
	}
	req := client.CreateProjectReq{ProviderID: prov, Name: "round", Budget: b.N + 1, PayPerTask: 0.01, Strategy: "fp-mu"}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("res-%03d", i)
		req.Resources = append(req.Resources, client.UploadedResource{ID: id, Kind: "url", Name: id})
	}
	proj, err := c.CreateProject(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	tags := [][]string{{"go", "database"}, {"go", "tagging"}, {"web", "design"}}
	before := opened.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task, err := c.RequestTask(ctx, proj, tagger)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.SubmitTask(ctx, proj, task.ID, tags[i%len(tags)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(opened.Load()-before)/float64(b.N), "conns/op")
}
