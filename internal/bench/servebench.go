package bench

import (
	"context"
	"fmt"

	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/store"
)

// This file holds the S7 cached-serving experiment: the interactive loop of
// paper §III is read-dominated — every provider dashboard refresh is a
// ResourceDetail — so S7 provisions a serving world over the store's
// lock-free trees and gates a cached hit through the full HTTP stack on
// allocations and tail latency (servecache.go). Serving throughput under a
// mixed load is measured absolutely by benchmark/ (dash_live, tag_durable).

// s7Dims sizes the serving world: the acceptance configuration is 1k
// resources × 10k seeded posts.
type s7Dims struct {
	resources, postsPer int
}

func s7Sizes(sz Sizes) s7Dims {
	if sz.N <= SmallSizes().N {
		return s7Dims{resources: 250, postsPer: 8}
	}
	return s7Dims{resources: 1000, postsPer: 10}
}

// s7World is one fully provisioned serving stack.
type s7World struct {
	svc     *core.Service
	cat     *store.Catalog
	project string
}

// s7Setup provisions a service over an in-memory store: one manual project
// with dims.resources uploaded resources and dims.postsPer seeded posts
// each. Setup cost is paid before the clock starts.
func s7Setup(dims s7Dims, seed int64) (*s7World, error) {
	cat := store.NewCatalog(store.OpenMemory())
	svc := core.NewService(cat, seed)
	ctx := context.Background()
	provider, err := svc.RegisterProvider(ctx, "s7-provider")
	if err != nil {
		return nil, err
	}
	w := &s7World{svc: svc, cat: cat}
	resources := make([]dataset.Resource, dims.resources)
	seeds := make(map[string][][]string, dims.resources)
	for i := range resources {
		id := fmt.Sprintf("res-%04d", i)
		resources[i] = dataset.Resource{ID: id, Name: id, Popularity: 1}
		posts := make([][]string, dims.postsPer)
		for p := range posts {
			posts[p] = []string{"go", fmt.Sprintf("topic-%d", i%13), fmt.Sprintf("tag-%d", (i+p)%29)}
		}
		seeds[id] = posts
	}
	w.project, err = svc.CreateProject(ctx, core.ProjectSpec{
		ProviderID: provider, Name: "s7-serving",
		Budget: 10 * dims.resources, PayPerTask: 0.05,
		Strategy: "random", Resources: resources, SeedPosts: seeds,
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// S7ServingReadPath gates the cached-serving cell: a ResourceDetail hit
// through the full HTTP stack (mux, middleware, encoded-response cache) must
// stay under its allocation and p99 ceilings.
func S7ServingReadPath(sz Sizes) (Result, error) {
	dims := s7Sizes(sz)
	res := Result{
		ID: "S7",
		Title: fmt.Sprintf("cached serving: a ResourceDetail hit through the full HTTP stack (%d resources × %d posts)",
			dims.resources, dims.resources*dims.postsPer),
		Header: []string{"mode", "resources", "seed posts", "hits", "hits/sec", "allocs/op", "p50", "p99"},
	}
	cs, err := s7CachedCell(dims, sz.Seed)
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, []string{
		"http cached hit", d(dims.resources), d(dims.resources * dims.postsPer), d(s7CachedOps),
		fmt.Sprintf("%.0f", cs.opsPerSec), fmt.Sprintf("%.1f", cs.allocsPerOp), cs.p50.String(), cs.p99.String(),
	})
	// Denominators are floored so a perfect (zero) measurement yields a large
	// finite gate ratio instead of +Inf in the JSON artifact.
	allocRatio := float64(s7AllocBudget) / max(cs.allocsPerOp, 0.5)
	p99Ratio := float64(s7P99Budget) / max(float64(cs.p99), 1)
	res.Gates = append(res.Gates,
		Gate{Name: "cached_detail_allocs_under_10", Ratio: allocRatio, Min: 1},
		Gate{Name: "cached_detail_p99_under_10us", Ratio: p99Ratio, Min: 1},
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("cached serving (full HTTP stack, encoded-response cache hit on one ResourceDetail): %.1f allocs/op, %.1f allocs/op on the If-None-Match 304 path, p50 %s, p99 %s, respcache hit rate %.1f%%",
			cs.allocsPerOp, cs.allocs304, cs.p50, cs.p99, 100*cs.hitRate),
		fmt.Sprintf("cached-serving gates: < %d allocs/op (measured %.1f) and p99 ≤ %s (measured %s) per cached hit",
			s7AllocBudget, cs.allocsPerOp, s7P99Budget, cs.p99),
	)
	return res, nil
}
