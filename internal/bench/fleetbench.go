package bench

import (
	"fmt"
	"time"

	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/quality"
	"itag/internal/strategy"
)

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
