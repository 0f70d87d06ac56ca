package bench

import (
	"fmt"
	"sync"
	"time"

	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/quality"
	"itag/internal/store"
	"itag/internal/strategy"
)

// This file holds the systems contention experiments (S3, S4) behind the
// sharded-store + worker-pool redesign: S3 measures catalog throughput
// under concurrent tagger traffic across shard counts, S4 drives a fleet
// of projects through the core.Pool pipeline instead of serially.

// s3Shards × s3Taggers is the contention matrix.
var (
	s3Shards  = []int{1, 4, 16}
	s3Taggers = []int{1, 8, 64}
)

// s3ResourcesPerTagger keeps shard routing realistic: each simulated tagger
// works a handful of distinct resources, as the engine's batch assignment
// does.
const s3ResourcesPerTagger = 4

// contentionCell runs one (shards × taggers) cell: every tagger loops
// append-post → read-back (the engine's UPDATE plus the provider UI's
// post-count read) against a shared catalog, and the cell's throughput is
// total ops over wall time.
func contentionCell(shards, taggers, opsPer int) (opsPerSec float64, err error) {
	cat := store.NewCatalog(store.NewSharded(shards))
	now := time.Now().UTC()
	var wg sync.WaitGroup
	errCh := make(chan error, taggers)
	start := time.Now()
	for w := 0; w < taggers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				rid := fmt.Sprintf("w%03d-r%d", w, i%s3ResourcesPerTagger)
				if _, perr := cat.AppendPost(store.PostRec{
					ResourceID: rid,
					TaggerID:   fmt.Sprintf("tagger-%03d", w),
					Tags:       []string{"go", "tagging", "bench"},
					Time:       now,
				}); perr != nil {
					errCh <- perr
					return
				}
				// The read half of the hot path: the monitor/UI reads a
				// resource's post count after every completed task.
				cat.CountPosts(rid)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errCh)
	for e := range errCh {
		return 0, e
	}
	return float64(taggers*opsPer) / wall.Seconds(), nil
}

// S3StoreContention measures store throughput for every cell of the
// 1/4/16-shard × 1/8/64-tagger matrix. Information only, no gate: reads
// are lock-free and a commit copies one O(log n) tree path whatever the
// shard count, so what the speedup column shows is how much is *left* for
// sharding to buy — write-lock splitting, which grows with core count.
func S3StoreContention(sz Sizes) (Result, error) {
	opsPer := 48
	if sz.N <= SmallSizes().N {
		opsPer = 16
	}
	res := Result{
		ID:     "S3",
		Title:  "store contention: shards × concurrent taggers (append-post + read-back)",
		Header: []string{"shards", "taggers", "ops", "ops/sec", "speedup vs 1 shard"},
	}
	// Discarded warm-up so the first measured cell doesn't pay scheduler
	// and allocator warm-up costs.
	if _, err := contentionCell(2, 4, opsPer); err != nil {
		return Result{}, err
	}
	baseline := make(map[int]float64) // taggers → 1-shard ops/sec
	for _, shards := range s3Shards {
		for _, taggers := range s3Taggers {
			ops, err := contentionCell(shards, taggers, opsPer)
			if err != nil {
				return Result{}, err
			}
			if shards == 1 {
				baseline[taggers] = ops
			}
			res.Rows = append(res.Rows, []string{
				d(shards), d(taggers), d(taggers * opsPer),
				fmt.Sprintf("%.0f", ops), ratio(ops, baseline[taggers]),
			})
		}
	}
	res.Notes = append(res.Notes,
		"per-op work: 1 durable-free AppendPost + 1 CountPosts prefix read-back",
		"no gate: the ratio this experiment used to gate (16 shards vs 1 on RWMutex-locked filter-and-sort scans) measured a read path that no longer exists",
	)
	return res, nil
}

// S4ProjectFleet runs a fleet of simulated projects once serially
// (Engine.Run back to back) and once through the core.Pool worker pipeline,
// comparing wall time and aggregate task throughput. On a multicore host
// the pool overlaps the projects' platform driving and model updates; on
// one core it still interleaves them so no project starves behind another.
func S4ProjectFleet(sz Sizes) (Result, error) {
	const projects = 8
	budget := sz.Budget / 4
	if budget < 60 {
		budget = 60
	}
	h, err := NewHarness(HarnessConfig{
		NumResources: sz.N / 2, Taggers: sz.Taggers, Seed: sz.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	build := func() ([]*core.Engine, error) {
		engines := make([]*core.Engine, projects)
		for i := range engines {
			plat, err := crowd.NewSim(crowd.SimConfig{
				Workers:     core.WorkerIDs(h.Pop),
				Post:        core.GenerativeSource(h.Sim, h.Pop, sz.Seed+int64(10*i+1)),
				MeanLatency: 1,
				Seed:        sz.Seed + int64(10*i+2),
			})
			if err != nil {
				return nil, err
			}
			engines[i], err = core.New(core.Config{
				Resources: h.World.Dataset.Resources,
				SeedPosts: h.SeedPosts,
				Strategy:  strategy.FewestPosts{},
				Budget:    budget,
				Batch:     sz.Batch,
				Quality:   quality.Config{},
				Platform:  plat,
				Seed:      sz.Seed + int64(10*i+3),
			})
			if err != nil {
				return nil, err
			}
		}
		return engines, nil
	}

	res := Result{
		ID:     "S4",
		Title:  "project fleet: serial Engine.Run vs core.Pool pipeline",
		Header: []string{"mode", "projects", "workers", "tasks", "wall", "tasks/sec"},
	}
	run := func(mode string, workers int, drive func([]*core.Engine) error) error {
		engines, err := build()
		if err != nil {
			return err
		}
		start := time.Now()
		if err := drive(engines); err != nil {
			return err
		}
		wall := time.Since(start)
		tasks := 0
		for _, e := range engines {
			tasks += e.Spent()
		}
		res.Rows = append(res.Rows, []string{
			mode, d(projects), d(workers), d(tasks),
			wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(tasks)/wall.Seconds()),
		})
		return nil
	}
	if err := run("serial", 1, func(engines []*core.Engine) error {
		for _, e := range engines {
			if err := e.Run(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return Result{}, err
	}
	if err := run("pool", core.DefaultPoolWorkers, func(engines []*core.Engine) error {
		for i, err := range core.RunEngines(engines, core.DefaultPoolWorkers) {
			if err != nil {
				return fmt.Errorf("engine %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return Result{}, err
	}
	res.Notes = append(res.Notes,
		"identical worlds, seeds and budgets per mode; the pool interleaves Algorithm-1 steps of all projects across its workers",
	)
	return res, nil
}
