package taggersim

import (
	"math"
	"testing"
	"time"

	"itag/internal/dataset"
	"itag/internal/quality"
	"itag/internal/rng"
)

func testWorld(t *testing.T, n int) *dataset.World {
	t.Helper()
	w, err := dataset.Generate(rng.New(1), dataset.GeneratorConfig{NumResources: n})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestProfileValidate(t *testing.T) {
	good := Profile{ID: "t1", Reliability: 0.9, TypoRate: 0.3, MeanTags: 3, AspectBias: 1, Activity: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	bad := []Profile{
		{ID: "", Reliability: 0.9, MeanTags: 3, AspectBias: 1},
		{ID: "x", Reliability: 1.5, MeanTags: 3, AspectBias: 1},
		{ID: "x", Reliability: 0.9, TypoRate: -0.1, MeanTags: 3, AspectBias: 1},
		{ID: "x", Reliability: 0.9, MeanTags: 0, AspectBias: 1},
		{ID: "x", Reliability: 0.9, MeanTags: 3, AspectBias: 0},
		{ID: "x", Reliability: 0.9, MeanTags: 3, AspectBias: 1, Activity: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestNewPopulation(t *testing.T) {
	r := rng.New(2)
	pop, err := NewPopulation(r, PopulationConfig{Size: 40, UnreliableFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if pop.Size() != 40 {
		t.Fatalf("size = %d", pop.Size())
	}
	unreliable := 0
	for _, p := range pop.Profiles {
		if err := p.Validate(); err != nil {
			t.Fatalf("generated profile invalid: %v", err)
		}
		if p.Reliability < 0.6 {
			unreliable++
		}
	}
	if unreliable != 10 {
		t.Errorf("unreliable count = %d, want 10", unreliable)
	}
	if _, ok := pop.ByID("t0005"); !ok {
		t.Error("ByID lookup failed")
	}
	if _, ok := pop.ByID("zzz"); ok {
		t.Error("missing ID must return false")
	}
}

func TestPopulationSampleWeightedByActivity(t *testing.T) {
	r := rng.New(3)
	pop, err := NewPopulation(r, PopulationConfig{Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := 0; i < 30000; i++ {
		counts[pop.Sample(r).ID]++
	}
	// Find the most active profile; it must be sampled most.
	var maxAct float64
	var maxID string
	for _, p := range pop.Profiles {
		if p.Activity > maxAct {
			maxAct, maxID = p.Activity, p.ID
		}
	}
	for id, c := range counts {
		if id != maxID && c > counts[maxID] {
			t.Errorf("profile %s sampled %d > most active %s %d", id, c, maxID, counts[maxID])
		}
	}
}

func TestGeneratePostHonest(t *testing.T) {
	w := testWorld(t, 5)
	sim := NewSimulator(w)
	r := rng.New(4)
	prof := &Profile{ID: "t1", Reliability: 1, TypoRate: 0, MeanTags: 3, AspectBias: 1, Activity: 1}
	res := w.Dataset.Resources[0]
	for i := 0; i < 200; i++ {
		tags, err := sim.GeneratePost(r, prof, res.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(tags) == 0 {
			t.Fatal("empty post")
		}
		seen := make(map[string]struct{})
		for _, tag := range tags {
			if _, ok := res.Latent[tag]; !ok {
				t.Fatalf("honest tagger produced off-latent tag %q", tag)
			}
			if _, dup := seen[tag]; dup {
				t.Fatalf("duplicate tag in post: %q", tag)
			}
			seen[tag] = struct{}{}
		}
	}
}

func TestGeneratePostNoisy(t *testing.T) {
	w := testWorld(t, 5)
	sim := NewSimulator(w)
	r := rng.New(5)
	prof := &Profile{ID: "t1", Reliability: 0, TypoRate: 0, MeanTags: 3, AspectBias: 1, Activity: 1}
	res := w.Dataset.Resources[0]
	offLatent := 0
	total := 0
	for i := 0; i < 100; i++ {
		tags, err := sim.GeneratePost(r, prof, res.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range tags {
			total++
			if _, ok := res.Latent[tag]; !ok {
				offLatent++
			}
		}
	}
	if float64(offLatent)/float64(total) < 0.8 {
		t.Errorf("fully unreliable tagger should be mostly off-latent: %d/%d", offLatent, total)
	}
}

func TestGeneratePostUnknownResource(t *testing.T) {
	w := testWorld(t, 2)
	sim := NewSimulator(w)
	prof := &Profile{ID: "t1", Reliability: 1, MeanTags: 2, AspectBias: 1}
	if _, err := sim.GeneratePost(rng.New(6), prof, "nope"); err == nil {
		t.Error("unknown resource must fail")
	}
}

func TestHonestStreamConvergesToLatent(t *testing.T) {
	// The core premise of the quality model: honest posts make the empirical
	// rfd converge to the latent distribution.
	w := testWorld(t, 3)
	sim := NewSimulator(w)
	r := rng.New(7)
	prof := &Profile{ID: "t1", Reliability: 1, TypoRate: 0, MeanTags: 3, AspectBias: 1, Activity: 1}
	res := w.Dataset.Resources[1]
	tr := quality.NewTracker(quality.Config{})
	ref := tr.NewRef(res.Latent)
	for i := 0; i < 800; i++ {
		tags, err := sim.GeneratePost(r, prof, res.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.AddPost(tags); err != nil {
			t.Fatal(err)
		}
	}
	sim1 := ref.Cosine()
	if sim1 < 0.93 {
		t.Errorf("honest rfd should approach latent; cosine = %v", sim1)
	}
}

func TestAspectBiasConcentratesHead(t *testing.T) {
	w := testWorld(t, 3)
	sim := NewSimulator(w)
	res := w.Dataset.Resources[0]
	entropyAt := func(bias float64, seed int64) float64 {
		r := rng.New(seed)
		prof := &Profile{ID: "t", Reliability: 1, MeanTags: 3, AspectBias: bias, Activity: 1}
		tr := quality.NewTracker(quality.Config{})
		for i := 0; i < 500; i++ {
			tags, err := sim.GeneratePost(r, prof, res.ID)
			if err != nil {
				t.Fatal(err)
			}
			_ = tr.AddPost(tags)
		}
		var entropy float64
		for _, tf := range tr.Counts().TopK(tr.Counts().Distinct()) {
			entropy -= tf.Freq * math.Log(tf.Freq)
		}
		return entropy
	}
	faithful := entropyAt(1.0, 10)
	biased := entropyAt(3.0, 10)
	if biased >= faithful {
		t.Errorf("aspect bias must reduce entropy: faithful %v vs biased %v", faithful, biased)
	}
}

func TestGenerateTrace(t *testing.T) {
	w := testWorld(t, 30)
	sim := NewSimulator(w)
	r := rng.New(8)
	pop, err := NewPopulation(r, PopulationConfig{Size: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateTrace(r, pop, TraceConfig{NumPosts: 500}); err != nil {
		t.Fatal(err)
	}
	d := w.Dataset
	if len(d.Posts) != 500 {
		t.Fatalf("posts = %d", len(d.Posts))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	// Free choice must concentrate posts (rich get richer): Gini of post
	// counts should be clearly positive.
	counts := dataset.PostCounts(d.Posts)
	perRes := make([]float64, 0, len(d.Resources))
	for _, res := range d.Resources {
		perRes = append(perRes, float64(counts[res.ID]))
	}
	if g := dataset.Gini(perRes); g < 0.3 {
		t.Errorf("free-choice trace Gini = %v; expected popularity skew", g)
	}
}

func TestReplayer(t *testing.T) {
	base := time.Now().UTC()
	eval := []dataset.Post{
		{ResourceID: "a", Tags: []string{"1"}, Time: base},
		{ResourceID: "b", Tags: []string{"2"}, Time: base},
		{ResourceID: "a", Tags: []string{"3"}, Time: base},
	}
	rp := NewReplayer(eval)
	if rp.Remaining("a") != 2 || rp.Remaining("b") != 1 {
		t.Fatalf("remaining: %d for a, %d for b", rp.Remaining("a"), rp.Remaining("b"))
	}
	p, ok := rp.Next("a")
	if !ok || p.Tags[0] != "1" {
		t.Fatalf("first a post: %+v %v", p, ok)
	}
	p, ok = rp.Next("a")
	if !ok || p.Tags[0] != "3" {
		t.Fatalf("second a post: %+v %v", p, ok)
	}
	if _, ok := rp.Next("a"); ok {
		t.Error("exhausted resource must return false")
	}
	if _, ok := rp.Next("zzz"); ok {
		t.Error("unknown resource must return false")
	}
	if rp.Remaining("a") != 0 || rp.Remaining("b") != 1 {
		t.Errorf("remaining: %d for a, %d for b", rp.Remaining("a"), rp.Remaining("b"))
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	w1 := testWorld(t, 10)
	w2 := testWorld(t, 10)
	s1, s2 := NewSimulator(w1), NewSimulator(w2)
	prof := &Profile{ID: "t", Reliability: 0.8, TypoRate: 0.5, MeanTags: 3, AspectBias: 1.2, Activity: 1}
	r1, r2 := rng.New(42), rng.New(42)
	for i := 0; i < 50; i++ {
		a, err1 := s1.GeneratePost(r1, prof, "r0003")
		b, err2 := s2.GeneratePost(r2, prof, "r0003")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(a) != len(b) {
			t.Fatal("same seed must reproduce posts")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("same seed must reproduce posts exactly")
			}
		}
	}
}

func TestReliabilityMonotoneQuality(t *testing.T) {
	// Higher reliability must yield higher oracle quality after the same
	// number of posts — the premise behind approval filtering (E7).
	w := testWorld(t, 3)
	res := w.Dataset.Resources[0]
	qualityAt := func(rel float64) float64 {
		sim := NewSimulator(w)
		r := rng.New(99)
		prof := &Profile{ID: "t", Reliability: rel, TypoRate: 0.4, MeanTags: 3, AspectBias: 1, Activity: 1}
		tr := quality.NewTracker(quality.Config{})
		ref := tr.NewRef(res.Latent)
		for i := 0; i < 300; i++ {
			tags, err := sim.GeneratePost(r, prof, res.ID)
			if err != nil {
				t.Fatal(err)
			}
			_ = tr.AddPost(tags)
		}
		return ref.Cosine()
	}
	lo, hi := qualityAt(0.2), qualityAt(0.95)
	if hi-lo < 0.1 {
		t.Errorf("reliability should strongly affect quality: low %v high %v", lo, hi)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Error("NaN quality")
	}
}
