package quality

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"itag/internal/rfd"
	"itag/internal/vocab"
)

// These property tests pin the tentpole refactor's contract: the interned
// quality path (Tracker over vocab.Interner + rfd.IHistory/Ref) is
// numerically equivalent — within 1e-12 — to the map-path oracle
// (MapTracker over rfd.History, maptracker_test.go) on randomized post streams, for
// every metric. CI runs this package under -race, so the shared interner is
// also exercised for data races when trackers are built concurrently.

const parityTol = 1e-12

func parityPool() []string {
	return []string{
		"go", "Go", " GO ", "database", "tagging", "web", "toread", "design",
		"paper", "icde", "crowd", "quality", "rfd", "stability", "alpha",
		"beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
	}
}

func parityPost(r *rand.Rand, pool []string) []string {
	if r.Intn(40) == 0 {
		return nil // exercise the empty-post error path
	}
	if r.Intn(40) == 0 {
		return []string{" ", ""} // exercise the no-usable-tags error path
	}
	n := 1 + r.Intn(5)
	post := make([]string, 0, n)
	for i := 0; i < n; i++ {
		post = append(post, pool[r.Intn(len(pool))])
	}
	return post
}

func TestPropertyInternedTrackerMatchesMapPath(t *testing.T) {
	metrics := []Metric{MetricCosine, MetricJSD, MetricL1, MetricHellinger}
	shared := vocab.NewInterner() // one vocabulary across all streams, as in an engine
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Metric:   metrics[int(seed)%len(metrics)],
			Window:   1 + r.Intn(12),
			MinPosts: 1 + r.Intn(3),
		}
		ti := NewTrackerShared(cfg, shared)
		tm := NewMapTracker(cfg)
		for p := 0; p < 160; p++ {
			post := parityPost(r, parityPool())
			errI, errM := ti.AddPost(post), tm.AddPost(post)
			if (errI == nil) != (errM == nil) {
				t.Fatalf("seed %d post %d: interned err %v vs map err %v", seed, p, errI, errM)
			}
			if errI != nil {
				continue
			}
			if d := math.Abs(ti.Quality() - tm.Quality()); d > parityTol {
				t.Fatalf("seed %d post %d (%s): quality diverges by %g (%v vs %v)",
					seed, p, cfg.Metric, d, ti.Quality(), tm.Quality())
			}
		}
		si, sm := ti.Series(), tm.Series()
		if len(si) != len(sm) {
			t.Fatalf("seed %d: series lengths %d vs %d", seed, len(si), len(sm))
		}
		for i := range si {
			if math.Abs(si[i]-sm[i]) > parityTol {
				t.Fatalf("seed %d: series[%d] diverges: %v vs %v", seed, i, si[i], sm[i])
			}
		}
		if ti.Posts() != tm.Posts() {
			t.Fatalf("seed %d: posts %d vs %d", seed, ti.Posts(), tm.Posts())
		}
		di, dm := ti.Dist(), tm.Dist()
		if len(di) != len(dm) {
			t.Fatalf("seed %d: dist supports %d vs %d", seed, len(di), len(dm))
		}
		for tag, v := range dm {
			if math.Abs(di[tag]-v) > parityTol {
				t.Fatalf("seed %d: dist[%q] = %v vs %v", seed, tag, di[tag], v)
			}
		}
		if !reflect.DeepEqual(ti.Counts().TopK(10), tm.Counts().TopK(10)) {
			t.Fatalf("seed %d: TopK diverges", seed)
		}
		if ti.Converged(0.5, 3) != tm.Converged(0.5, 3) {
			t.Fatalf("seed %d: Converged diverges", seed)
		}
	}
}

// TestPropertyOracleRefMatchesOracle checks the interned oracle path
// against the map-path Oracle for every metric while the tracked rfd grows.
func TestPropertyOracleRefMatchesOracle(t *testing.T) {
	metrics := []Metric{MetricCosine, MetricJSD, MetricL1, MetricHellinger}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		pool := parityPool()
		// Random latent reference over a mix of posted and never-posted tags.
		ref := rfd.Dist{}
		for i := 0; i < 8; i++ {
			ref[pool[r.Intn(len(pool))]] = r.Float64()
		}
		ref["latent-only-tag"] = 0.5
		ref = rfd.Normalized(ref)

		tr := NewTrackerShared(Config{}, vocab.NewInterner())
		refs := make([]*rfd.Ref, len(metrics))
		for i := range metrics {
			refs[i] = tr.NewRef(ref)
		}
		check := func(stage string) {
			t.Helper()
			cur := tr.Dist()
			for i, m := range metrics {
				got := OracleRef(m, refs[i])
				want := Oracle(m, cur, ref)
				if math.Abs(got-want) > parityTol {
					t.Fatalf("seed %d %s (%s): OracleRef %v vs Oracle %v", seed, stage, m, got, want)
				}
			}
		}
		check("cold")
		for p := 0; p < 120; p++ {
			post := parityPost(r, pool)
			if err := tr.AddPost(post); err != nil {
				continue
			}
			if p%15 == 0 {
				check("warm")
			}
		}
		check("final")
	}
}

// BenchmarkTrackerAddPost times one AddPost + q_i(k) update on the interned
// hot path and on the map-path oracle over the same pre-generated stream
// (Zipf-distributed tags, 256 resources), ungated:
//
//	go test -run '^$' -bench TrackerAddPost -benchmem ./internal/quality
func BenchmarkTrackerAddPost(b *testing.B) {
	const resources = 256
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.2, 4, 2047)
	stream := make([][]string, 1<<14)
	for i := range stream {
		stream[i] = make([]string, 1+r.Intn(5))
		for j := range stream[i] {
			stream[i][j] = fmt.Sprintf("tag-%d", zipf.Uint64())
		}
	}
	type adder interface{ AddPost([]string) error }
	run := func(b *testing.B, newTracker func() adder) {
		trackers := make([]adder, resources)
		for i := range trackers {
			trackers[i] = newTracker()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := trackers[i%resources].AddPost(stream[i%len(stream)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("interned", func(b *testing.B) {
		in := vocab.NewInterner()
		run(b, func() adder { return NewTrackerShared(Config{}, in) })
	})
	b.Run("oracle", func(b *testing.B) {
		run(b, func() adder { return NewMapTracker(Config{}) })
	})
}
