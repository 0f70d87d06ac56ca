package taggersim

import (
	"testing"

	"itag/internal/dataset"
	"itag/internal/rng"
)

func TestTraceThetaControlsSkew(t *testing.T) {
	giniAt := func(theta float64) float64 {
		w, err := dataset.Generate(rng.New(5), dataset.GeneratorConfig{NumResources: 60})
		if err != nil {
			t.Fatal(err)
		}
		sim := NewSimulator(w)
		r := rng.New(6)
		pop, err := NewPopulation(r, PopulationConfig{Size: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.GenerateTrace(r, pop, TraceConfig{NumPosts: 1500, ChoiceTheta: theta}); err != nil {
			t.Fatal(err)
		}
		counts := dataset.PostCounts(w.Dataset.Posts)
		per := make([]float64, 0, 60)
		for _, res := range w.Dataset.Resources {
			per = append(per, float64(counts[res.ID]))
		}
		return dataset.Gini(per)
	}
	low := giniAt(0.2)
	high := giniAt(1.2)
	if high <= low {
		t.Errorf("higher theta must concentrate posts: gini %.3f (θ=0.2) vs %.3f (θ=1.2)", low, high)
	}
}

func TestTraceTimestampsMonotone(t *testing.T) {
	w, err := dataset.Generate(rng.New(7), dataset.GeneratorConfig{NumResources: 10})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(w)
	r := rng.New(8)
	pop, err := NewPopulation(r, PopulationConfig{Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	start := traceStart
	if err := sim.GenerateTrace(r, pop, TraceConfig{NumPosts: 200}); err != nil {
		t.Fatal(err)
	}
	prev := start
	for i, p := range w.Dataset.Posts {
		if p.Time.Before(prev) {
			t.Fatalf("post %d out of order", i)
		}
		prev = p.Time
	}
	if !w.Dataset.Posts[0].Time.After(start) {
		t.Error("trace must start after its start time")
	}
}

func TestTraceAppendsToExistingPosts(t *testing.T) {
	// Generating twice accumulates; counts from the first round influence
	// preferential attachment in the second (rich get richer across calls).
	w, err := dataset.Generate(rng.New(9), dataset.GeneratorConfig{NumResources: 10})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(w)
	r := rng.New(10)
	pop, err := NewPopulation(r, PopulationConfig{Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateTrace(r, pop, TraceConfig{NumPosts: 100}); err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateTrace(r, pop, TraceConfig{NumPosts: 100}); err != nil {
		t.Fatal(err)
	}
	if len(w.Dataset.Posts) != 200 {
		t.Errorf("posts = %d, want 200", len(w.Dataset.Posts))
	}
}
