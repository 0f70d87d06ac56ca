package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"itag/client"
	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/rng"
	"itag/internal/server"
	"itag/internal/store"
	"itag/internal/taggersim"
)

func newTestClient(t *testing.T) *client.Client {
	t.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 7)
	srv := httptest.NewServer(server.New(svc, nil))
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Close)
	return client.New(srv.URL, srv.Client())
}

func TestSDKUsersAndErrors(t *testing.T) {
	ctx := context.Background()
	c := newTestClient(t)
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	prov, err := c.RegisterProvider(ctx, "alice")
	if err != nil || prov == "" {
		t.Fatalf("provider: %q, %v", prov, err)
	}
	tagr, err := c.RegisterTagger(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.GetUser(ctx, tagr)
	if err != nil || u.Role != "tagger" || u.ApprovalRate != 1 {
		t.Fatalf("user = %+v, %v", u, err)
	}

	// Rating a provider works; rating a tagger is invalid_role.
	if err := c.RateProvider(ctx, prov, true); err != nil {
		t.Fatal(err)
	}
	err = c.RateProvider(ctx, tagr, true)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != client.CodeInvalidRole || ae.Status != 400 {
		t.Fatalf("rate tagger = %v", err)
	}
	if ae.RequestID == "" {
		t.Error("error envelope missing request id")
	}

	// Unknown user is a typed not_found.
	_, err = c.GetUser(ctx, "ghost")
	if !errors.As(err, &ae) || ae.Code != client.CodeNotFound || ae.Status != 404 {
		t.Fatalf("ghost user = %v", err)
	}

	// Batch registration returns per-item ids.
	names := make([]string, 25)
	for i := range names {
		names[i] = fmt.Sprintf("tagger-%02d", i)
	}
	batch, err := c.RegisterTaggers(ctx, names)
	if err != nil || batch.OK != 25 || batch.Failed != 0 {
		t.Fatalf("batch register = %+v, %v", batch, err)
	}
	for _, res := range batch.Results {
		if res.ID == "" {
			t.Fatalf("batch item missing id: %+v", res)
		}
	}
}

// TestSDKBatchTasks drives 1000 request+submit pairs through a single
// tasks:batch round-trip (the ISSUE acceptance bar) with per-item error
// reporting for invalid items.
func TestSDKBatchTasks(t *testing.T) {
	ctx := context.Background()
	c := newTestClient(t)

	prov, err := c.RegisterProvider(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	resources := make([]client.UploadedResource, 50)
	for i := range resources {
		resources[i] = client.UploadedResource{
			ID: fmt.Sprintf("res-%03d", i), Kind: "url", Name: fmt.Sprintf("r%d.example.com", i),
		}
	}
	proj, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: prov, Name: "bulk", Budget: 1000, PayPerTask: 0.01,
		Strategy: "fp", Resources: resources,
	})
	if err != nil {
		t.Fatal(err)
	}

	names := make([]string, 100)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
	}
	reg, err := c.RegisterTaggers(ctx, names)
	if err != nil || reg.OK != 100 {
		t.Fatalf("register taggers: %+v, %v", reg, err)
	}

	// 1000 valid request+submit pairs plus 5 bogus tagger ids.
	items := make([]client.BatchTaskItem, 0, 1005)
	for i := 0; i < 1000; i++ {
		items = append(items, client.BatchTaskItem{
			TaggerID: reg.Results[i%100].ID,
			Tags:     []string{"go", fmt.Sprintf("tag-%d", i%7)},
		})
	}
	for i := 0; i < 5; i++ {
		items = append(items, client.BatchTaskItem{TaggerID: "ghost", Tags: []string{"x"}})
	}
	resp, err := c.BatchTasks(ctx, proj, items)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK != 1000 || resp.Failed != 5 {
		t.Fatalf("batch = ok %d, failed %d", resp.OK, resp.Failed)
	}
	for _, res := range resp.Results[:1000] {
		if res.Error != nil || !res.Submitted || res.TaskID == "" || res.ResourceID == "" {
			t.Fatalf("good item = %+v", res)
		}
	}
	for _, res := range resp.Results[1000:] {
		if res.Error == nil || res.Error.Code != client.CodeInvalidArgument {
			t.Fatalf("bad item = %+v", res)
		}
	}

	// Budget is exhausted now: the next item fails per-item, not per-call.
	resp, err = c.BatchTasks(ctx, proj, []client.BatchTaskItem{
		{TaggerID: reg.Results[0].ID, Tags: []string{"late"}},
	})
	if err != nil || resp.Failed != 1 {
		t.Fatalf("post-budget batch = %+v, %v", resp, err)
	}

	// Pagination walks all 50 resources in pages of 20.
	var rows []client.ExportedResource
	cursor := ""
	pages := 0
	for {
		page, err := c.Export(ctx, proj, cursor, 20)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, page.Items...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(rows) != 50 || pages != 3 {
		t.Fatalf("export pagination: %d rows in %d pages", len(rows), pages)
	}
	totalPosts := 0
	for _, row := range rows {
		totalPosts += row.Posts
	}
	if totalPosts != 1000 {
		t.Errorf("exported posts = %d, want 1000", totalPosts)
	}

	// Oversized batches are rejected as a whole.
	big := make([]client.BatchTaskItem, 10001)
	for i := range big {
		big[i] = client.BatchTaskItem{TaggerID: "t"}
	}
	_, err = c.BatchTasks(ctx, proj, big)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != client.CodeBatchTooLarge {
		t.Fatalf("oversized batch = %v", err)
	}
}

// simWorld is a generated world of n resources whose IDs carry prefix, so
// that the projects of one server never share a resource.
func simWorld(tb testing.TB, n int, prefix string) *dataset.World {
	tb.Helper()
	world, err := dataset.Generate(rng.New(1), dataset.GeneratorConfig{NumResources: n})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range world.Dataset.Resources {
		world.Dataset.Resources[i].ID = prefix + world.Dataset.Resources[i].ID
	}
	return world
}

// uploaded is the world's resources as a provider uploads them.
func uploaded(world *dataset.World) []client.UploadedResource {
	out := make([]client.UploadedResource, len(world.Dataset.Resources))
	for i, r := range world.Dataset.Resources {
		out[i] = client.UploadedResource{ID: r.ID, Kind: string(r.Kind), Name: r.Name}
	}
	return out
}

// tagSimulated has tagger lease and submit n tasks of proj through the SDK,
// each post what a simulated tagger would post on the world's resources.
func tagSimulated(tb testing.TB, ctx context.Context, c *client.Client, proj, tagger string, world *dataset.World, n int) {
	tb.Helper()
	pop, err := taggersim.NewPopulation(rng.New(2), taggersim.PopulationConfig{Size: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sim, r := taggersim.NewSimulator(world), rng.New(3)
	for i := 0; i < n; i++ {
		task, err := c.RequestTask(ctx, proj, tagger)
		if err != nil {
			tb.Fatal(err)
		}
		tags, err := sim.GeneratePost(r, &pop.Profiles[0], task.ResourceID)
		if err != nil {
			tb.Fatal(err)
		}
		if err := c.SubmitTask(ctx, proj, task.ID, tags); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSDKSimulatedRunWithSSE watches a project over generated resources,
// tagged to its budget by a simulated tagger, over the SSE stream: hello,
// then quality ticks up to the last post, nothing dropped.
func TestSDKSimulatedRunWithSSE(t *testing.T) {
	ctx := context.Background()
	c := newTestClient(t)

	prov, err := c.RegisterProvider(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := c.RegisterTagger(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	world := simWorld(t, 10, prov+"-")
	proj, err := c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: prov, Name: "live", Budget: 120, PayPerTask: 0.05, Resources: uploaded(world),
	})
	if err != nil {
		t.Fatal(err)
	}

	stream, err := c.StreamEvents(ctx, proj)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	tagSimulated(t, ctx, c, proj, tagger, world, 120)

	var hello, ticks int
	deadline := time.After(30 * time.Second)
collect:
	for {
		select {
		case ev, ok := <-stream.C:
			if !ok {
				t.Fatalf("stream ended before the last post's tick: %v", stream.Err())
			}
			switch ev.Type {
			case client.EventHello:
				hello++
			case client.EventTick:
				tick, ok := ev.Tick()
				if !ok || tick.Series == "" {
					t.Fatalf("bad tick: %s", ev.Data)
				}
				ticks++
				if tick.Series == "mean_stability" && tick.X == 120 {
					break collect
				}
			case client.EventDropped:
				t.Fatalf("dropped events on a small project: %s", ev.Data)
			}
		case <-deadline:
			t.Fatal("no tick for the last post within 30s")
		}
	}
	if hello != 1 || ticks == 0 {
		t.Errorf("%d hello, %d ticks", hello, ticks)
	}

	// The series endpoint agrees the tagging produced data.
	series, err := c.GetSeries(ctx, proj, "")
	if err != nil || len(series.X) == 0 {
		t.Fatalf("series: %d points, %v", len(series.X), err)
	}

	// Metrics counted the traffic.
	m, err := c.Metrics(ctx)
	if err != nil || m.TotalRequests == 0 {
		t.Fatalf("metrics = %+v, %v", m, err)
	}
}

func TestSDKProjectsPagination(t *testing.T) {
	ctx := context.Background()
	c := newTestClient(t)
	prov, err := c.RegisterProvider(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.CreateProject(ctx, client.CreateProjectReq{
			ProviderID: prov, Name: fmt.Sprintf("p%d", i), Budget: 10,
			Resources: uploaded(simWorld(t, 3, fmt.Sprintf("p%d-", i))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	cursor := ""
	for {
		page, err := c.ListProjects(ctx, prov, cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Items) > 2 {
			t.Fatalf("page overflow: %d items", len(page.Items))
		}
		for _, info := range page.Items {
			ids = append(ids, info.Project.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(ids) != 5 {
		t.Fatalf("paginated projects = %d, want 5", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate project %s across pages", id)
		}
		seen[id] = true
	}
}
