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

// These property tests pin the interned rfd path — rfd.ICounts, IHistory
// and Ref, and the Tracker and OracleRef built on them — to the map-path
// oracle (oracle_test.go): numerically equivalent within 1e-12 on
// randomized post streams, for every metric. CI runs this package under
// -race, so the shared interner is also exercised for data races when
// trackers are built concurrently.

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
		di, dm := distOf(ti.Counts()), tm.Dist()
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
// against the map-path similarity for every metric while the tracked rfd
// grows.
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
			cur := distOf(tr.Counts())
			for i, m := range metrics {
				got := OracleRef(m, refs[i])
				want := m.similarity(cur, ref)
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

// TestICountsMatchesCounts holds rfd.ICounts to the oracle's counts:
// counters, per-tag counts, the distribution, TopK and the exact Σ n².
func TestICountsMatchesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := parityPool()
	ic := rfd.NewICounts(vocab.NewInterner())
	mc := newMapCounts()
	for p := 0; p < 200; p++ {
		post := parityPost(r, pool)
		e1, e2 := ic.AddPost(post), mc.AddPost(post)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("post %d: interned err %v vs map err %v", p, e1, e2)
		}
	}
	if ic.Posts() != mc.Posts() || ic.Total() != mc.Total() || ic.Distinct() != mc.Distinct() {
		t.Fatalf("counters diverge: %d/%d/%d vs %d/%d/%d",
			ic.Posts(), ic.Total(), ic.Distinct(), mc.Posts(), mc.Total(), mc.Distinct())
	}
	for _, tag := range pool {
		if ic.Count(tag) != mc.Count(tag) {
			t.Errorf("Count(%q) = %d vs %d", tag, ic.Count(tag), mc.Count(tag))
		}
	}
	di, dm := distOf(ic), mc.Dist()
	if len(di) != len(dm) {
		t.Fatalf("dist sizes %d vs %d", len(di), len(dm))
	}
	for tag, v := range dm {
		if math.Abs(di[tag]-v) > 1e-15 {
			t.Errorf("dist[%q] = %v vs %v", tag, di[tag], v)
		}
	}
	if !reflect.DeepEqual(ic.TopK(8), mc.TopK(8)) {
		t.Errorf("TopK diverges:\n%v\n%v", ic.TopK(8), mc.TopK(8))
	}
	var want float64
	for _, tf := range mc.TopK(1 << 20) {
		want += float64(tf.Count) * float64(tf.Count)
	}
	if ic.NormSq() != want {
		t.Errorf("NormSq = %v, want %v", ic.NormSq(), want)
	}
}

// TestIHistoryWindowsMatchHistory drives an rfd.IHistory and the oracle's
// history with the same stream and asserts every retained window
// comparison agrees with the metric computed on materialized snapshots.
func TestIHistoryWindowsMatchHistory(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pool := parityPool()
	const depth = 8
	const maintained = 5 // sliding width for the incrementally maintained history
	ih := rfd.NewIHistory(vocab.NewInterner(), depth)
	iw := rfd.NewIHistoryWindow(vocab.NewInterner(), depth, maintained)
	mh := newMapHistory(depth)
	for p := 0; p < 120; p++ {
		post := parityPost(r, pool)
		if err := ih.AddPost(post); err != nil {
			if err2 := mh.AddPost(post); err2 == nil {
				t.Fatalf("post %d: interned errored, map did not", p)
			}
			continue
		}
		if err := iw.AddPost(post); err != nil {
			t.Fatalf("post %d: windowed interned errored: %v", p, err)
		}
		if err := mh.AddPost(post); err != nil {
			t.Fatalf("post %d: map errored after interned succeeded: %v", p, err)
		}
		// The maintained sliding window must agree with the map path at its
		// own width w = min(posts−1, maintained).
		w := min(mh.Posts()-1, maintained)
		if prev, ok := mh.Back(w); ok {
			cur := mh.Current()
			if cos, ok := iw.WindowCosine(w); !ok || math.Abs(cos-mapCosine(cur, prev)) > parityTol {
				t.Fatalf("post %d: maintained cosine(w=%d) = %v ok=%v, map %v", p, w, cos, ok, mapCosine(cur, prev))
			}
			if jsd, ok := iw.WindowJSD(w); !ok || math.Abs(jsd-mapJSD(cur, prev)) > parityTol {
				t.Fatalf("post %d: maintained jsd(w=%d) = %v ok=%v, map %v", p, w, jsd, ok, mapJSD(cur, prev))
			}
		}
		// Off-width queries on the maintained history take the rebuild path
		// and must agree too.
		if w > 1 {
			if prev, ok := mh.Back(w - 1); ok {
				if cos, ok2 := iw.WindowCosine(w - 1); !ok2 || math.Abs(cos-mapCosine(mh.Current(), prev)) > parityTol {
					t.Fatalf("post %d: off-width cosine diverges (%v, ok=%v)", p, cos, ok2)
				}
			}
		}
		if ih.Posts() != mh.Posts() || ih.Depth() != mh.Depth() {
			t.Fatalf("post %d: posts/depth diverge", p)
		}
		for back := 0; back <= depth+1; back++ {
			prev, ok := mh.Back(back)
			cos, iok := ih.WindowCosine(back)
			if ok != iok {
				t.Fatalf("post %d back %d: retention disagrees (map %v, interned %v)", p, back, ok, iok)
			}
			if !ok {
				continue
			}
			cur := mh.Current()
			l1, _ := ih.WindowL1(back)
			kl, _ := ih.WindowKL(back)
			jsd, _ := ih.WindowJSD(back)
			hel, _ := ih.WindowHellinger(back)
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"cosine", cos, mapCosine(cur, prev)},
				{"l1", l1, mapL1(cur, prev)},
				{"kl", kl, mapKL(cur, prev)},
				{"jsd", jsd, mapJSD(cur, prev)},
				{"hellinger", hel, mapHellinger(cur, prev)},
			} {
				if math.Abs(c.got-c.want) > parityTol {
					t.Fatalf("post %d back %d: %s = %.17g, map path %.17g", p, back, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestRefMatchesMapMetrics compares every rfd.Ref distance against the
// oracle's on materialized distributions as the accumulator grows.
func TestRefMatchesMapMetrics(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pool := parityPool()
	// Reference overlaps the pool partially and has tags never posted.
	ref := rfd.Dist{"go": 0.3, "database": 0.2, "web": 0.1, "neverposted": 0.25, "alpha": 0.15}
	ic := rfd.NewICounts(vocab.NewInterner())
	rf := rfd.NewRef(ic, ref)

	check := func(stage string) {
		t.Helper()
		cur := distOf(ic)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"cosine", rf.Cosine(), mapCosine(cur, ref)},
			{"l1", rf.L1(), mapL1(cur, ref)},
			{"kl", rf.KL(), mapKL(cur, ref)},
			{"jsd", rf.JSD(), mapJSD(cur, ref)},
			{"hellinger", rf.Hellinger(), mapHellinger(cur, ref)},
		} {
			if math.Abs(c.got-c.want) > parityTol {
				t.Fatalf("%s: %s = %.17g, map path %.17g", stage, c.name, c.got, c.want)
			}
		}
	}
	check("empty accumulator")
	for p := 0; p < 150; p++ {
		if err := ic.AddPost(parityPost(r, pool)); err != nil {
			continue // an empty or all-blank post: nothing changed
		}
		if p%10 == 0 {
			check("growing")
		}
	}
	check("final")
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
