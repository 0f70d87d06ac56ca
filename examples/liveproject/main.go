// Live project: the provider-steering workflow of paper §III-A / Fig. 5.
//
// A project starts on Free Choice (the do-nothing default: taggers pick
// popular resources). Watching the live quality curve, the provider
// promotes the worst resources, stops the already-good ones, and switches
// the strategy to FP-MU for the second half of the budget — then compares
// the curve against a hands-off FC run of the same budget.
//
//	go run ./examples/liveproject
package main

import (
	"fmt"
	"log"
	"sort"

	"itag"
	"itag/internal/rng"
)

const (
	numResources = 100
	budget       = 1000
)

func main() {
	handsOff := run(false)
	steered := run(true)

	fmt.Printf("%-28s  %-10s\n", "run", "q_after (oracle)")
	fmt.Printf("%-28s  %-10.4f\n", "hands-off FC", handsOff.MeanOracle())
	fmt.Printf("%-28s  %-10.4f\n", "steered (promote/stop/switch)", steered.MeanOracle())

	fmt.Println("\nsteering events:")
	for _, ev := range steered.Monitor().Events() {
		if ev.Kind == "switch-strategy" || ev.Kind == "promote" || ev.Kind == "stop" {
			fmt.Printf("  spent=%4d  %-16s %s\n", ev.Spent, ev.Kind, ev.Detail)
		}
	}

	fmt.Println("\nquality curve (mean oracle q vs tasks spent), steered run:")
	series := steered.Monitor().Series("mean_oracle").Points()
	for _, p := range series {
		if int(p.X)%(budget/10) == 0 {
			fmt.Printf("  %4.0f  %s %.4f\n", p.X, bar(p.Y), p.Y)
		}
	}
}

func run(steer bool) *itag.Engine {
	world, err := itag.GenerateWorld(rng.New(10), itag.WorldConfig{NumResources: numResources})
	if err != nil {
		log.Fatal(err)
	}
	pop, err := itag.NewPopulation(rng.New(11), itag.PopulationConfig{Size: 40, UnreliableFraction: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	sim := itag.NewSimulator(world)
	platform, err := itag.NewMTurkSim(itag.WorkerIDs(pop), itag.GenerativeSource(sim, pop, 12), 13)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := itag.NewEngine(itag.EngineConfig{
		Resources: world.Dataset.Resources,
		Strategy:  itag.FreeChoice{},
		Budget:    budget / 2, // first half
		Batch:     20,
		Platform:  platform,
		Seed:      14,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		log.Fatal(err)
	}

	if steer {
		// The provider reviews the half-time state: promote the five worst
		// resources, stop the five best (their budget is wasted on them).
		qs, _ := engine.OracleQualities()
		order := make([]int, len(qs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return qs[order[a]] < qs[order[b]] })
		for _, i := range order[:5] {
			if err := engine.Promote(world.Dataset.Resources[i].ID); err != nil {
				log.Fatal(err)
			}
		}
		for _, i := range order[len(order)-5:] {
			if err := engine.StopResource(world.Dataset.Resources[i].ID); err != nil {
				log.Fatal(err)
			}
		}
		engine.SwitchStrategy(&itag.FPMU{MinPostsTarget: 0, SwitchFraction: 0.5, TotalBudget: budget / 2})
	}

	if err := engine.AddBudget(budget / 2); err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		log.Fatal(err)
	}
	return engine
}

func bar(v float64) string {
	n := int(v * 40)
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
