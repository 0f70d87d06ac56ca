// Command itag-bench regenerates the paper's tables and figures from the
// command line — the same experiment code the root bench_test.go runs.
//
// Usage:
//
//	itag-bench -experiment all                 # everything, default sizes
//	itag-bench -experiment e1 -n 200 -budget 2000
//	itag-bench -experiment e3 -format markdown -out e3.md
//	itag-bench -experiment s7,s9,s10 -small -record  # CI bench smoke
//	itag-bench -verify-gates BENCH_serving.json BENCH_chaos.json
//
// Experiments: e1..e9 (paper anchors), a1..a3 (ablations), s7, s9, s10
// (systems: cached serving through the HTTP stack, open-loop
// admission-control capacity, quorum-cluster chaos drill), all.
// See the experiment index in docs/ARCHITECTURE.md. Per-layer store, quality
// and cluster costs are measured absolutely by benchmark/ (BENCHMARK.json).
//
// Gated experiments (s7, s9, s10) embed their acceptance ratios in the
// result; -record writes each of them to its canonical BENCH_*.json
// artifact, and any failing gate makes the run exit non-zero.
// -verify-gates re-checks previously recorded artifacts without rerunning
// anything (scripts/bench_gate.sh uses it in CI).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"itag/internal/bench"
)

var experiments = map[string]func(bench.Sizes) (bench.Result, error){
	"e1":  bench.E1TableI,
	"e2":  bench.E2QualityVsBudget,
	"e3":  bench.E3VsOptimal,
	"e4":  bench.E4ThresholdSatisfaction,
	"e5":  bench.E5LowQualityReduction,
	"e6":  bench.E6MonitoringAndSwitch,
	"e7":  bench.E7ApprovalFiltering,
	"e8":  bench.E8PromoteStop,
	"e9":  bench.E9TraceReplay,
	"a1":  bench.A1StabilityWindow,
	"a2":  bench.A2SwitchPoint,
	"a3":  bench.A3BatchSize,
	"s7":  bench.S7ServingReadPath,
	"s9":  bench.S9Capacity,
	"s10": bench.S10Chaos,
}

var order = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "a1", "a2", "a3", "s7", "s9", "s10"}

// recordFiles maps recorded experiments to their canonical committed
// artifact.
var recordFiles = map[string]string{
	"s7":  "BENCH_serving.json",
	"s9":  "BENCH_capacity.json",
	"s10": "BENCH_chaos.json",
}

func main() {
	exp := flag.String("experiment", "all", "experiment id (e1..e9, a1..a3, s7, s9, s10, all)")
	n := flag.Int("n", 0, "number of resources (0 = default)")
	budget := flag.Int("budget", 0, "task budget (0 = default)")
	taggers := flag.Int("taggers", 0, "tagger pool size (0 = default)")
	batch := flag.Int("batch", 0, "Algorithm-1 batch size (0 = default)")
	seed := flag.Int64("seed", 0, "experiment seed (0 = default)")
	small := flag.Bool("small", false, "use quick-check sizes")
	format := flag.String("format", "text", "output format: text | markdown")
	out := flag.String("out", "", "write to file instead of stdout")
	record := flag.Bool("record", false, "write recorded results to their canonical BENCH_*.json artifacts")
	verifyGates := flag.Bool("verify-gates", false, "check gates in the BENCH_*.json files given as arguments, run nothing")
	flag.Parse()

	if *verifyGates {
		os.Exit(runVerifyGates(flag.Args()))
	}

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

	var gateFailures []string
	for _, id := range ids {
		res, err := experiments[id](sz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itag-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *format == "markdown" {
			fmt.Fprintln(w, res.Markdown())
		} else {
			res.Fprint(w)
		}
		if *record {
			if path, ok := recordFiles[id]; ok {
				if err := res.WriteJSONFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "itag-bench: record %s: %v\n", path, err)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "itag-bench: recorded %s\n", path)
			}
		}
		gateFailures = append(gateFailures, res.GateFailures()...)
	}
	for _, fail := range gateFailures {
		fmt.Fprintf(os.Stderr, "itag-bench: GATE FAILED: %s\n", fail)
	}
	if len(gateFailures) > 0 {
		os.Exit(1)
	}
}

// runVerifyGates loads recorded results and re-checks their gates.
func runVerifyGates(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "itag-bench: -verify-gates needs BENCH_*.json paths")
		return 2
	}
	failed := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itag-bench: %v\n", err)
			failed++
			continue
		}
		var res bench.Result
		if err := json.Unmarshal(data, &res); err != nil {
			fmt.Fprintf(os.Stderr, "itag-bench: %s: %v\n", path, err)
			failed++
			continue
		}
		if len(res.Gates) == 0 {
			// A gated artifact with no Gates key means the experiment was
			// recorded by an older binary or the file was hand-edited; letting
			// it pass would silently disable the gate.
			fmt.Fprintf(os.Stderr, "itag-bench: %s: no gates recorded (%s) — refusing to pass an ungated artifact\n", path, res.ID)
			failed++
			continue
		}
		fails := res.GateFailures()
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "itag-bench: %s: GATE FAILED: %s\n", path, f)
		}
		if len(fails) > 0 {
			failed++
			continue
		}
		for _, g := range res.Gates {
			fmt.Printf("%s: %s gate %s ok: %.2fx >= %.2fx\n", path, res.ID, g.Name, g.Ratio, g.Min)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
