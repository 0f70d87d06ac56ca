// Load generator: drives the v1 API with the Go SDK as a crowd of taggers
// and their provider — the "heavy traffic" smoke for the versioned API.
//
// Two phases:
//
//  1. Manual fan-out: register a tagger fleet with one taggers:batch
//     call, then hammer a project with -workers concurrent tasks:batch
//     calls (-batches × -batch-size request+submit pairs each) while an
//     SSE stream watches the quality ticks.
//  2. Simulated marketplace: the paper's MTurk stand-in, played as a
//     client. It generates a world (resources with latent tag
//     distributions), uploads its resources like any provider, registers
//     a simulated tagger population, then leases, posts what each tagger
//     would post, submits, and approves or rejects by the latent-overlap
//     rule, one task at a time, until the budget is spent. Halfway through
//     it logs "half its budget submitted"; if the server goes away after
//     that (make loadgen SIGKILLs it there and boots it again on its WAL),
//     it waits for /healthz and sends the call again, then checks the
//     project's books through the SDK.
//
// The process exits non-zero on any unexpected non-2xx response, any
// per-item error, any dropped SSE event, a missing tick, or books that do
// not balance — making it usable as a CI gate (`make loadgen`).
//
//	go run ./examples/loadgen                       # self-hosted in-process server
//	go run ./examples/loadgen -addr http://host:8080   # against a running itagd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"itag/client"
	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/rng"
	"itag/internal/server"
	"itag/internal/store"
	"itag/internal/taggersim"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running itagd; empty starts an in-process server")
	taggers := flag.Int("taggers", 200, "tagger fleet size (one taggers:batch call)")
	workers := flag.Int("workers", 4, "concurrent batch writers")
	batches := flag.Int("batches", 2, "tasks:batch calls per worker")
	batchSize := flag.Int("batch-size", 1000, "request+submit pairs per batch call")
	resources := flag.Int("resources", 40, "uploaded resources in the manual project")
	simBudget := flag.Int("sim-budget", 200, "budget of the simulated marketplace's project")
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

	// Resource IDs are global: prefix them with the provider's, so a second
	// run against the same store uploads new ones.
	uploaded := make([]client.UploadedResource, resources)
	for i := range uploaded {
		uploaded[i] = client.UploadedResource{
			ID: fmt.Sprintf("%s-res-%04d", prov, i), Kind: "url", Name: fmt.Sprintf("r%d.example.com", i),
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

// simPay is what the simulated provider pays per approved post.
const simPay = 0.05

// simulatedPhase returns the number of failed checks (0 = clean).
func simulatedPhase(ctx context.Context, c *client.Client, budget int) int {
	prov, err := c.RegisterProvider(ctx, "loadgen-sim-provider")
	if err != nil {
		fail("register provider: %v", err)
	}
	world, err := dataset.Generate(rng.New(7), dataset.GeneratorConfig{NumResources: 20})
	if err != nil {
		fail("generate world: %v", err)
	}
	res := world.Dataset.Resources
	uploaded := make([]client.UploadedResource, len(res))
	for i := range res {
		// Before the simulator or the judge index them: see manualPhase.
		res[i].ID = prov + "-" + res[i].ID
		uploaded[i] = client.UploadedResource{ID: res[i].ID, Kind: string(res[i].Kind), Name: res[i].Name}
	}
	sim := taggersim.NewSimulator(world)
	judge := core.LatentOverlapJudge(world, 0.5)
	pop, err := taggersim.NewPopulation(rng.New(8), taggersim.PopulationConfig{Size: 40, UnreliableFraction: 0.1})
	if err != nil {
		fail("tagger population: %v", err)
	}
	reg, err := c.RegisterTaggers(ctx, core.WorkerIDs(pop))
	if err != nil || reg.Failed > 0 {
		fail("register the simulated taggers: %+v, %v", reg, err)
	}
	proj, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: prov, Name: "loadgen-sim", Budget: budget, PayPerTask: simPay,
		Strategy: "fp-mu", Platform: "mturk-sim", Resources: uploaded,
	})
	if err != nil {
		fail("create the simulated marketplace's project: %v", err)
	}
	log.Printf("simulated phase: provider %s, project %s, %d taggers", prov, proj, len(reg.Results))

	r := rng.New(9)
	seqs := make(map[string]uint64) // resource → posts committed on it, so the next post's seq
	submitted, judged, approved := 0, 0, 0
	for {
		who := r.Intn(pop.Size())
		var task client.Task
		err := settle(ctx, c, func() (err error) {
			task, err = c.RequestTask(ctx, proj, reg.Results[who].ID)
			return err
		}, nil)
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Code == client.CodeExhausted {
			break
		}
		if err != nil {
			fail("request task: %v", err)
		}
		tags, err := sim.GeneratePost(r, &pop.Profiles[who], task.ResourceID)
		if err != nil {
			fail("generate post: %v", err)
		}
		// A re-submit of a task whose submit committed answers 400.
		if err := settle(ctx, c, func() error { return c.SubmitTask(ctx, proj, task.ID, tags) },
			func(ae *client.APIError) bool { return ae.Status == http.StatusBadRequest }); err != nil {
			fail("submit %s: %v", task.ID, err)
		}
		seqs[task.ResourceID]++
		if submitted++; submitted == budget/2 {
			log.Printf("simulated phase: %d posts, half its budget submitted", submitted)
		}
		ok := judge(crowd.Result{Task: crowd.Task{ResourceID: task.ResourceID}, Tags: tags})
		// A re-judge of a post whose verdict committed answers 409.
		if err := settle(ctx, c, func() error { return c.JudgePost(ctx, proj, task.ResourceID, seqs[task.ResourceID], ok) },
			func(ae *client.APIError) bool { return ae.Status == http.StatusConflict }); err != nil {
			fail("judge %s/%d: %v", task.ResourceID, seqs[task.ResourceID], err)
		}
		judged++
		if ok {
			approved++
		}
	}
	log.Printf("simulated phase: %d posts submitted, %d judged, %d approved", submitted, judged, approved)
	return checkBooks(ctx, c, proj, reg, budget, submitted, judged, approved)
}

// settle sends call until the server answers it. A transport error leaves
// the call ambiguous: it may have committed before the server went away.
// So once /healthz answers, the call is sent again, and an error answer to
// the resend that committed recognises as "the first attempt went in" is a
// success.
func settle(ctx context.Context, c *client.Client, call func() error, committed func(*client.APIError) bool) error {
	err := call()
	resent := false
	var ae *client.APIError
	for err != nil && !errors.As(err, &ae) && ctx.Err() == nil {
		log.Printf("simulated phase: %v; waiting for the server", err)
		if herr := waitHealthy(ctx, c); herr != nil {
			return herr
		}
		err, resent = call(), true
	}
	if resent && ae != nil && committed != nil && committed(ae) {
		return nil
	}
	return err
}

// checkBooks checks the simulated project's books through the SDK against
// what the load generator sent, and returns the number of failed checks.
func checkBooks(ctx context.Context, c *client.Client, proj string, reg client.BatchRegisterResp, budget, submitted, judged, approved int) int {
	failures := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			log.Printf("FAIL-CHECK: simulated phase: "+format, args...)
			failures++
		}
	}
	info, err := c.GetProject(ctx, proj)
	if err != nil {
		fail("get project: %v", err)
	}
	// A lease counts as spent when it is taken; a lease whose answer a
	// server kill lost stays pending.
	check(info.Spent == budget, "spent %d of %d", info.Spent, budget)
	check(info.PendingTasks <= 1, "%d tasks still pending", info.PendingTasks)
	check(submitted == budget-info.PendingTasks, "%d posts submitted, want %d spent less %d pending",
		submitted, budget, info.PendingTasks)
	page, err := c.Export(ctx, proj, "", 0)
	if err != nil {
		fail("export: %v", err)
	}
	posts := 0
	for _, row := range page.Items {
		posts += row.Posts
	}
	// One post per completed task: a task completed twice shows as a post
	// the load generator did not count.
	check(posts == submitted, "export holds %d posts, the load generator submitted %d", posts, submitted)
	var users client.User
	for _, t := range reg.Results {
		u, err := c.GetUser(ctx, t.ID)
		if err != nil {
			fail("get tagger %s: %v", t.ID, err)
		}
		users.Judged += u.Judged
		users.JudgedOK += u.JudgedOK
		users.Earned += u.Earned
	}
	check(users.Judged == judged, "taggers hold %d verdicts, the load generator sent %d", users.Judged, judged)
	check(users.JudgedOK == approved, "taggers hold %d approvals, the load generator sent %d", users.JudgedOK, approved)
	check(math.Abs(users.Earned-float64(users.JudgedOK)*simPay) < 1e-6,
		"taggers earned %.2f for %d approvals at %.2f", users.Earned, users.JudgedOK, simPay)
	return failures
}
