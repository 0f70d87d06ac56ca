// Quickstart: the smallest complete iTag run.
//
// It generates a synthetic world of 50 under-tagged resources, a pool of 30
// simulated taggers, and spends a budget of 500 tagging tasks with the
// FP-MU hybrid strategy, printing the quality improvement.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"itag"
	"itag/internal/rng"
)

func main() {
	world, err := itag.GenerateWorld(rng.New(1), itag.WorldConfig{NumResources: 50})
	if err != nil {
		log.Fatal(err)
	}
	pop, err := itag.NewPopulation(rng.New(2), itag.PopulationConfig{Size: 30})
	if err != nil {
		log.Fatal(err)
	}
	sim := itag.NewSimulator(world)

	// A simulated MTurk marketplace: workers are the population's taggers.
	platform, err := itag.NewMTurkSim(
		itag.WorkerIDs(pop),
		itag.GenerativeSource(sim, pop, 3),
		4,
	)
	if err != nil {
		log.Fatal(err)
	}

	engine, err := itag.NewEngine(itag.EngineConfig{
		Resources: world.Dataset.Resources,
		Strategy:  itag.NewFPMU(), // FP first, then MU (Table I's best)
		Budget:    500,
		Platform:  platform,
		Seed:      5,
	})
	if err != nil {
		log.Fatal(err)
	}

	before := engine.MeanOracle()
	if err := engine.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("strategy:          %s\n", engine.StrategyName())
	fmt.Printf("tasks spent:       %d\n", engine.Spent())
	fmt.Printf("mean quality:      %.4f -> %.4f (oracle)\n", before, engine.MeanOracle())
	fmt.Printf("mean stability:    %.4f (the paper's online q(R))\n", engine.MeanStability())

	// Inspect one resource the way the provider UI would (Fig. 6).
	st, err := engine.Status(world.Dataset.Resources[0].ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresource %s: %d posts, stability %.3f, top tags:\n", st.ID, st.Posts, st.Stability)
	for _, tf := range st.TopTags {
		if tf.Count < 2 {
			continue
		}
		fmt.Printf("  %-20s x%d (%.2f)\n", tf.Tag, tf.Count, tf.Freq)
	}
}
