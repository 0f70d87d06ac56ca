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
// and Ref, and the Tracker built on them — to the map-path oracle
// (oracle_test.go): numerically equivalent within 1e-12 on randomized post
// streams. CI runs this package under -race, so the shared interner is also
// exercised for data races when trackers are built concurrently.

const parityTol = 1e-12

func parityPool() []string {
	return []string{
		"go", "Go", " GO ", "database", "tagging", "web", "toread", "design",
		"paper", "icde", "crowd", "quality", "rfd", "stability", "alpha",
		"beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
	}
}

// parityWindows are the stability windows the parity suites run at: the
// narrowest, the default and the widest Validate accepts.
var parityWindows = []int{1, DefaultWindow, MaxWindow}

// parityPosts is a stream length that wraps a W+1 ring several times.
func parityPosts(window int) int { return max(160, 4*(window+1)) }

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
	shared := vocab.NewInterner() // one vocabulary across all streams, as in an engine
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Window: 1 + r.Intn(12)}
		if int(seed) < len(parityWindows) {
			cfg.Window = parityWindows[seed]
		}
		ti := NewTrackerShared(cfg, shared)
		tm := NewMapTracker(cfg)
		for p := 0; p < parityPosts(cfg.Window); p++ {
			post := parityPost(r, parityPool())
			errI, errM := ti.AddPost(post), tm.AddPost(post)
			if (errI == nil) != (errM == nil) {
				t.Fatalf("seed %d post %d: interned err %v vs map err %v", seed, p, errI, errM)
			}
			if errI != nil {
				continue
			}
			if d := math.Abs(ti.Quality() - tm.Quality()); d > parityTol {
				t.Fatalf("seed %d post %d (W=%d): quality diverges by %g (%v vs %v)",
					seed, p, cfg.Window, d, ti.Quality(), tm.Quality())
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
	}
}

// TestPropertyOracleRefMatchesOracle checks the interned oracle quality,
// Ref.Cosine, against the map-path cosine while the tracked rfd grows.
func TestPropertyOracleRefMatchesOracle(t *testing.T) {
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
		oracle := tr.NewRef(ref)
		check := func(stage string) {
			t.Helper()
			got, want := oracle.Cosine(), mapCosine(distOf(tr.Counts()), ref)
			if math.Abs(got-want) > parityTol {
				t.Fatalf("seed %d %s: Ref.Cosine %v vs map cosine %v", seed, stage, got, want)
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

// TestTopKMatchesFullSort holds ICounts.TopK, which keeps only the best k, to
// the oracle's sort of the whole vocabulary: for k below, at and above the
// number of distinct tags, after every post of streams whose small counts
// tie over and over, so the tag order decides most places.
func TestTopKMatchesFullSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(200 + seed))
		pool := make([]string, 2+r.Intn(60))
		for i := range pool {
			pool[i] = fmt.Sprintf("t%03d", r.Intn(1000))
		}
		ic := rfd.NewICounts(vocab.NewInterner())
		mc := newMapCounts()
		for p := 0; p < 80; p++ {
			post := []string{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}
			if err := ic.AddPost(post); err != nil {
				t.Fatal(err)
			}
			if err := mc.AddPost(post); err != nil {
				t.Fatal(err)
			}
			n := ic.Distinct()
			for _, k := range []int{1, 2, 3, 10, n - 1, n, n + 5} {
				if k < 1 {
					continue
				}
				if got, want := ic.TopK(k), mc.TopK(k); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d post %d: TopK(%d) of %d tags\n got %v\nwant %v", seed, p, k, n, got, want)
				}
			}
		}
	}
	if top := rfd.NewICounts(vocab.NewInterner()).TopK(10); top != nil {
		t.Fatalf("TopK of no tags = %v, want nil (a row's top_tags is null)", top)
	}
}

// TestIHistoryWindowsMatchHistory drives an rfd.IHistory and the oracle's
// history with the same stream, at each parity window, and asserts the
// maintained window cosine agrees with the cosine of materialized snapshots
// min(posts−1, W) apart after every post.
func TestIHistoryWindowsMatchHistory(t *testing.T) {
	for _, window := range parityWindows {
		r := rand.New(rand.NewSource(11))
		pool := parityPool()
		ih := rfd.NewIHistory(vocab.NewInterner(), window)
		mh := newMapHistory()
		for p := 0; p < parityPosts(window); p++ {
			post := parityPost(r, pool)
			errI, errM := ih.AddPost(post), mh.AddPost(post)
			if (errI == nil) != (errM == nil) {
				t.Fatalf("W=%d post %d: interned err %v vs map err %v", window, p, errI, errM)
			}
			if errI != nil {
				continue
			}
			if ih.Posts() != mh.Posts() {
				t.Fatalf("W=%d post %d: posts %d vs %d", window, p, ih.Posts(), mh.Posts())
			}
			want := 0.0
			if k := mh.Posts(); k >= 2 {
				prev, _ := mh.Back(min(k-1, window))
				want = mapCosine(mh.Current(), prev)
			}
			if got := ih.WindowCosine(); math.Abs(got-want) > parityTol {
				t.Fatalf("W=%d post %d: window cosine = %.17g, map path %.17g", window, p, got, want)
			}
		}
	}
}

// TestRefMatchesMapMetrics compares rfd.Ref's cosine against the oracle's
// on materialized distributions as the accumulator grows.
func TestRefMatchesMapMetrics(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pool := parityPool()
	// Reference overlaps the pool partially and has tags never posted.
	ref := rfd.Dist{"go": 0.3, "database": 0.2, "web": 0.1, "neverposted": 0.25, "alpha": 0.15}
	ic := rfd.NewICounts(vocab.NewInterner())
	rf := rfd.NewRef(ic, ref)

	check := func(stage string) {
		t.Helper()
		if got, want := rf.Cosine(), mapCosine(distOf(ic), ref); math.Abs(got-want) > parityTol {
			t.Fatalf("%s: cosine = %.17g, map path %.17g", stage, got, want)
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
