// Crowd server: the full system end-to-end over HTTP — itagd's API driven
// by a provider client and simulated audience taggers, mirroring the demo's
// audience-participation mode (paper §IV).
//
// The program starts the HTTP server in-process, registers a provider and
// three taggers, creates two projects (one simulated MTurk run, one manual
// audience project), drives both to completion through the /api/v1 surface
// with the client SDK, and prints the provider's dashboard.
//
//	go run ./examples/crowdserver
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"itag"
	"itag/client"
	"itag/internal/server"
)

func main() {
	svc := itag.NewService(itag.NewCatalog(itag.OpenMemoryStore()), 42)
	ts := httptest.NewServer(server.New(svc, nil))
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, nil)

	// Provider and taggers register.
	provider := must(c.RegisterProvider(ctx, "alice"))
	var taggers []string
	for _, name := range []string{"bob", "carol", "dave"} {
		taggers = append(taggers, must(c.RegisterTagger(ctx, name)))
	}
	fmt.Printf("registered provider %s and %d audience taggers\n\n", provider, len(taggers))

	// Project 1: simulated crowdsourcing (MTurk-like) run.
	simProj := must(c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: provider, Name: "web-urls", Budget: 300,
		PayPerTask: 0.05, Strategy: "fp-mu", Simulate: true, NumResources: 30,
	}))
	check(c.StartProject(ctx, simProj))
	info := waitDone(ctx, c, simProj)
	fmt.Printf("simulated project %s: spent %d tasks, mean stability %.4f\n",
		simProj, info.Spent, info.MeanStability)

	// Project 2: manual audience tagging of uploaded resources.
	manProj := must(c.CreateProject(ctx, client.CreateProjectReq{
		ProviderID: provider, Name: "audience", Budget: 6, PayPerTask: 0.25,
		Strategy: "fp",
		Resources: []client.UploadedResource{
			{ID: "paper-1", Kind: "paper", Name: "iTag (ICDE'14)"},
			{ID: "paper-2", Kind: "paper", Name: "On Incentive-Based Tagging (ICDE'13)"},
		},
	}))

	posts := map[string][][]string{
		"paper-1": {{"crowdsourcing", "tagging", "incentives"}, {"tagging", "demo", "icde"}, {"crowdsourcing", "tagging"}},
		"paper-2": {{"tagging", "quality", "budget"}, {"allocation", "tagging", "quality"}, {"quality", "stability"}},
	}
	for i := 0; i < 6; i++ {
		task := must(c.RequestTask(ctx, manProj, taggers[i%len(taggers)]))
		rid := task.ResourceID
		pick := posts[rid][0]
		posts[rid] = posts[rid][1:]
		check(c.SubmitTask(ctx, manProj, task.ID, pick))
		// The provider reviews and approves the post; payment flows.
		check(c.JudgePost(ctx, manProj, rid, uint64(3-len(posts[rid])), true))
	}

	fmt.Println("\naudience project export:")
	for _, row := range must(c.Export(ctx, manProj, "", 0)).Items {
		fmt.Printf("  %-8s posts=%d stability=%.3f tags=", row.ID, row.Posts, row.Stability)
		for _, tf := range row.TopTags {
			fmt.Printf("%s ", tf.Tag)
		}
		fmt.Println()
	}

	// Tagger earnings after approvals.
	fmt.Println("\ntagger earnings:")
	for _, id := range taggers {
		u := must(c.GetUser(ctx, id))
		fmt.Printf("  %-12s rate=%.2f earned=$%.2f\n", u.Name, u.ApprovalRate, u.EarnedTotal)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

func waitDone(ctx context.Context, c *client.Client, projectID string) client.ProjectInfo {
	for i := 0; i < 1000; i++ {
		info := must(c.GetProject(ctx, projectID))
		if !info.Running && info.Spent > 0 {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatal("project did not finish")
	return client.ProjectInfo{}
}
