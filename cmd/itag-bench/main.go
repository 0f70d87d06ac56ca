// Command itag-bench regenerates the paper's tables and figures from the
// command line — the same experiment code the root bench_test.go runs.
//
// Usage:
//
//	itag-bench -experiment all                 # everything, default sizes
//	itag-bench -experiment e1 -n 200 -budget 2000
//	itag-bench -experiment e3 -format markdown -out e3.md
//	itag-bench -experiment e1,a3 -small        # quick-check sizes
//
// Experiments: e1..e9 (paper anchors) and a1..a3 (ablations), the
// bench.Experiments table whose -small output internal/bench pins as golden
// files; all. See the experiment index in docs/ARCHITECTURE.md. The
// admission gate's overload thresholds are a server test
// (TestAdmissionHoldsSLOAtTwiceTheKnee in internal/server). Per-layer
// store, quality and cluster costs are measured absolutely by benchmark/
// (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"itag/internal/bench"
)

func lookup(id string) (bench.Experiment, bool) {
	for _, e := range bench.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return bench.Experiment{}, false
}

func main() {
	exp := flag.String("experiment", "all", "experiment id (e1..e9, a1..a3, all)")
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

	runs := bench.Experiments
	if *exp != "all" {
		runs = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := lookup(strings.ToLower(strings.TrimSpace(id)))
			if !ok {
				var have []string
				for _, e := range bench.Experiments {
					have = append(have, e.ID)
				}
				fmt.Fprintf(os.Stderr, "itag-bench: unknown experiment %q (have %s, all)\n", id, strings.Join(have, ", "))
				os.Exit(2)
			}
			runs = append(runs, e)
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

	for _, e := range runs {
		res, err := e.Run(sz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itag-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *format == "markdown" {
			fmt.Fprintln(w, res.Markdown())
		} else {
			res.Fprint(w)
		}
	}
}
