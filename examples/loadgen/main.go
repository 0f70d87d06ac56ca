// Load generator: drives N concurrent simulated taggers through the v1
// batch endpoints with the Go SDK — the "heavy traffic" smoke for the
// versioned API (ISSUE 2 / ROADMAP "millions of users" direction).
//
// Two phases:
//
//  1. Manual fan-out: register a tagger fleet with one taggers:batch
//     call, then hammer a manual project with -workers concurrent
//     tasks:batch calls (-batches × -batch-size request+submit pairs
//     each) while an SSE stream watches the quality ticks.
//  2. Simulated run: start a simulated project and follow its SSE stream
//     until the finished event.
//
// The process exits non-zero on any unexpected non-2xx response, any
// per-item error, any dropped SSE event, or a missing tick/finished
// event — making it usable as a CI gate (`make loadgen`).
//
//	go run ./examples/loadgen                       # self-hosted in-process server
//	go run ./examples/loadgen -addr http://host:8080   # against a running itagd
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"itag/client"
	"itag/internal/core"
	"itag/internal/server"
	"itag/internal/store"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running itagd; empty starts an in-process server")
	taggers := flag.Int("taggers", 200, "tagger fleet size (one taggers:batch call)")
	workers := flag.Int("workers", 4, "concurrent batch writers")
	batches := flag.Int("batches", 2, "tasks:batch calls per worker")
	batchSize := flag.Int("batch-size", 1000, "request+submit pairs per batch call")
	resources := flag.Int("resources", 40, "uploaded resources in the manual project")
	simBudget := flag.Int("sim-budget", 200, "budget of the simulated SSE-watched project")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("loadgen ")

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	base := *addr
	if base == "" {
		svc := core.NewService(store.NewCatalog(store.OpenMemory()), 1)
		ts := httptest.NewServer(server.New(svc, nil))
		defer ts.Close()
		defer svc.Close()
		base = ts.URL
		log.Printf("in-process server at %s", base)
	}
	c := client.New(base, nil)

	if err := waitHealthy(ctx, c); err != nil {
		fail("server never became healthy: %v", err)
	}

	failures := 0
	failures += manualPhase(ctx, c, *taggers, *workers, *batches, *batchSize, *resources)
	failures += simulatedPhase(ctx, c, *simBudget)

	if failures > 0 {
		fail("%d check(s) failed", failures)
	}
	log.Print("PASS")
}

func fail(format string, args ...any) {
	log.Printf("FAIL: "+format, args...)
	os.Exit(1)
}

func waitHealthy(ctx context.Context, c *client.Client) error {
	var err error
	for i := 0; i < 100; i++ {
		if err = c.Health(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	return err
}

// manualPhase returns the number of failed checks (0 = clean).
func manualPhase(ctx context.Context, c *client.Client, taggers, workers, batches, batchSize, resources int) int {
	prov, err := c.RegisterProvider(ctx, "loadgen-provider")
	if err != nil {
		fail("register provider: %v", err)
	}

	names := make([]string, taggers)
	for i := range names {
		names[i] = fmt.Sprintf("loadgen-tagger-%04d", i)
	}
	reg, err := c.RegisterTaggers(ctx, names)
	if err != nil || reg.Failed > 0 {
		fail("batch tagger registration: %+v, %v", reg, err)
	}
	ids := make([]string, len(reg.Results))
	for i, r := range reg.Results {
		ids[i] = r.ID
	}
	log.Printf("registered %d taggers (%s..%s) in one round-trip", len(ids), ids[0], ids[len(ids)-1])

	uploaded := make([]client.UploadedResource, resources)
	for i := range uploaded {
		uploaded[i] = client.UploadedResource{
			ID: fmt.Sprintf("res-%04d", i), Kind: "url", Name: fmt.Sprintf("r%d.example.com", i),
		}
	}
	total := workers * batches * batchSize
	proj, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: prov, Name: "loadgen-manual", Budget: total, PayPerTask: 0.01,
		Strategy: "fp", Resources: uploaded,
	})
	if err != nil {
		fail("create manual project: %v", err)
	}
	log.Printf("manual phase: provider %s, project %s", prov, proj)

	stream, err := c.StreamEvents(ctx, proj)
	if err != nil {
		fail("subscribe SSE: %v", err)
	}
	var ticks, dropped atomic.Int64
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		for ev := range stream.C {
			switch ev.Type {
			case client.EventTick:
				ticks.Add(1)
			case client.EventDropped:
				dropped.Add(1)
			}
		}
	}()

	var itemErrors atomic.Int64
	var submitted atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				items := make([]client.BatchTaskItem, batchSize)
				for i := range items {
					items[i] = client.BatchTaskItem{
						TaggerID: ids[(w*batches*batchSize+b*batchSize+i)%len(ids)],
						Tags:     []string{"go", fmt.Sprintf("w%d", w), fmt.Sprintf("t%d", i%11)},
					}
				}
				resp, err := c.BatchTasks(ctx, proj, items)
				if err != nil {
					log.Printf("worker %d batch %d: %v", w, b, err)
					itemErrors.Add(int64(batchSize))
					continue
				}
				itemErrors.Add(int64(resp.Failed))
				submitted.Add(int64(resp.OK))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Give the stream a beat to deliver the trailing ticks, then close.
	time.Sleep(200 * time.Millisecond)
	stream.Close()
	<-sseDone

	rate := float64(submitted.Load()) / elapsed.Seconds()
	log.Printf("manual phase: %d/%d pairs submitted in %s (%.0f tasks/s), %d ticks streamed",
		submitted.Load(), total, elapsed.Round(time.Millisecond), rate, ticks.Load())

	failures := 0
	if got := submitted.Load(); got != int64(total) {
		log.Printf("FAIL-CHECK: submitted %d of %d pairs", got, total)
		failures++
	}
	if errs := itemErrors.Load(); errs > 0 {
		log.Printf("FAIL-CHECK: %d per-item errors", errs)
		failures++
	}
	if d := dropped.Load(); d > 0 {
		log.Printf("FAIL-CHECK: %d dropped SSE events", d)
		failures++
	}
	if ticks.Load() == 0 {
		log.Print("FAIL-CHECK: no SSE ticks during the manual burst")
		failures++
	}
	if err := stream.Err(); err != nil {
		log.Printf("FAIL-CHECK: SSE stream error: %v", err)
		failures++
	}
	return failures
}

// simulatedPhase returns the number of failed checks (0 = clean).
func simulatedPhase(ctx context.Context, c *client.Client, budget int) int {
	prov, err := c.RegisterProvider(ctx, "loadgen-sim-provider")
	if err != nil {
		fail("register provider: %v", err)
	}
	proj, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: prov, Name: "loadgen-sim", Budget: budget, PayPerTask: 0.05,
		Simulate: true, NumResources: 20,
	})
	if err != nil {
		fail("create simulated project: %v", err)
	}
	log.Printf("simulated phase: provider %s, project %s", prov, proj)
	stream, err := c.StreamEvents(ctx, proj)
	if err != nil {
		fail("subscribe SSE: %v", err)
	}
	defer stream.Close()
	if err := c.StartProject(ctx, proj); err != nil {
		fail("start project: %v", err)
	}

	var ticks, dropped int
	var finished *client.Finished
	for ev := range stream.C {
		switch ev.Type {
		case client.EventTick:
			ticks++
		case client.EventDropped:
			dropped++
		case client.EventFinished:
			if f, ok := ev.Finished(); ok {
				finished = &f
			}
		}
	}

	failures := 0
	if err := stream.Err(); err != nil {
		log.Printf("FAIL-CHECK: simulated SSE stream error: %v", err)
		failures++
	}
	if ticks == 0 {
		log.Print("FAIL-CHECK: no quality ticks during the simulated run")
		failures++
	}
	if dropped > 0 {
		log.Printf("FAIL-CHECK: %d dropped SSE events in the simulated run", dropped)
		failures++
	}
	switch {
	case finished == nil:
		log.Print("FAIL-CHECK: simulated run never finished")
		failures++
	case finished.Error != "":
		log.Printf("FAIL-CHECK: simulated run failed: %s", finished.Error)
		failures++
	case finished.Spent != budget:
		log.Printf("FAIL-CHECK: simulated run spent %d of %d", finished.Spent, budget)
		failures++
	}
	log.Printf("simulated phase: %d ticks, finished=%+v", ticks, finished)
	return failures
}
