// Command itag-bench regenerates the paper's tables and figures from the
// command line — the same experiment code the root bench_test.go runs.
//
// Usage:
//
//	itag-bench -experiment all                 # everything, default sizes
//	itag-bench -experiment e1 -n 200 -budget 2000
//	itag-bench -experiment e3 -format markdown -out e3.md
//	itag-bench -experiment s9 -small           # CI bench smoke
//
// Experiments: e1..e9 (paper anchors), a1..a3 (ablations), s9 (systems:
// open-loop admission-control capacity), all. See the experiment index in
// docs/ARCHITECTURE.md. An experiment that misses a threshold it checks (s9)
// still prints its table, then makes the run exit non-zero. Per-layer store,
// quality and cluster costs are measured absolutely by benchmark/
// (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"itag/internal/bench"
)

var experiments = map[string]func(bench.Sizes) (bench.Result, error){
	"e1": bench.E1TableI,
	"e2": bench.E2QualityVsBudget,
	"e3": bench.E3VsOptimal,
	"e4": bench.E4ThresholdSatisfaction,
	"e5": bench.E5LowQualityReduction,
	"e6": bench.E6MonitoringAndSwitch,
	"e7": bench.E7ApprovalFiltering,
	"e8": bench.E8PromoteStop,
	"e9": bench.E9TraceReplay,
	"a1": bench.A1StabilityWindow,
	"a2": bench.A2SwitchPoint,
	"a3": bench.A3BatchSize,
	"s9": bench.S9Capacity,
}

var order = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "a1", "a2", "a3", "s9"}

func main() {
	exp := flag.String("experiment", "all", "experiment id (e1..e9, a1..a3, s9, all)")
	n := flag.Int("n", 0, "number of resources (0 = default)")
	budget := flag.Int("budget", 0, "task budget (0 = default)")
	taggers := flag.Int("taggers", 0, "tagger pool size (0 = default)")
	batch := flag.Int("batch", 0, "Algorithm-1 batch size (0 = default)")
	seed := flag.Int64("seed", 0, "experiment seed (0 = default)")
	small := flag.Bool("small", false, "use quick-check sizes")
	format := flag.String("format", "text", "output format: text | markdown")
	out := flag.String("out", "", "write to file instead of stdout")
	flag.Parse()

	sz := bench.DefaultSizes()
	if *small {
		sz = bench.SmallSizes()
	}
	if *n > 0 {
		sz.N = *n
	}
	if *budget > 0 {
		sz.Budget = *budget
	}
	if *taggers > 0 {
		sz.Taggers = *taggers
	}
	if *batch > 0 {
		sz.Batch = *batch
	}
	if *seed != 0 {
		sz.Seed = *seed
	}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if _, ok := experiments[id]; !ok {
				fmt.Fprintf(os.Stderr, "itag-bench: unknown experiment %q (have %s, all)\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itag-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	for _, id := range ids {
		res, err := experiments[id](sz)
		if len(res.Rows) > 0 {
			if *format == "markdown" {
				fmt.Fprintln(w, res.Markdown())
			} else {
				res.Fprint(w)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "itag-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
