// Command benchmark is the repository's end-to-end benchmark: it spawns real
// itagd processes on loopback TCP, drives them through the Go SDK with
// nproc closed-loop clients, checks what they answer, and prints every
// metric BENCHMARK.json names. See README.md in this directory.
//
//	bash benchmark/run.sh --workload tag_durable --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh --repeat 10 --workload all --out benchmark/out/set-a.json
//	bash benchmark/run.sh --compare --out benchmark/baseline.json benchmark/out/set-a.json benchmark/out/set-b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json); \"all\" with --repeat")
	seed := fs.Int64("seed", 1, "seed of the generated op stream")
	seconds := fs.Int("seconds", 0, "measured seconds on the reference box (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 adds the traced pass and the probes and prints the per-layer metrics")
	refServer := fs.String("ref-server", "", "internal: serve the calibration reference on this address")
	repeat := fs.Int("repeat", 0, "run the workload(s) this many times with consecutive seeds and summarise the spread")
	compare := fs.Bool("compare", false, "compare two --repeat result files given as arguments")
	out := fs.String("out", "", "with --repeat or --compare: write the summary to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *refServer != "" {
		if err := runRefServer(*refServer); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: reference server:", err)
			return 1
		}
		return 0
	}

	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: --compare takes two result files")
			return 2
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), *out)
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(spec, self, *workload, *seed, *seconds, *repeat, *out)
	}

	if !spec.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: --workload %q is not one of BENCHMARK.json's workloads\n", *workload)
		return 2
	}
	itagd := os.Getenv("ITAG_BENCH_ITAGD")
	if itagd == "" {
		itagd = filepath.Join(".bench_build", "itagd")
	}
	if _, err := os.Stat(itagd); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: itagd binary: %v (run through benchmark/run.sh, which builds it)\n", err)
		return 2
	}

	// Children and tmpfs directories go away on every way out: normal
	// return, failure, or a signal.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer owned.releaseAll()

	res, err := runWorkload(ctx, runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, itagd: itagd, self: self,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := resultLine(spec, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := saveResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	report(os.Stdout, spec, res)
	fmt.Println(line)
	if !res.Correct {
		return 1
	}
	owned.releaseAll()
	owned.dropLogs()
	return 0
}

// resultLine is the contract's last stdout line: with --trace 0 every
// end-to-end metric, with --trace 1 every per-layer metric, each with the
// unit BENCHMARK.json gives it.
func resultLine(spec *benchSpec, res *runResult) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	set := spec.EndToEnd
	if res.Trace {
		set = spec.PerLayer
	}
	metrics := make(map[string]val, len(set))
	for _, ms := range set {
		v, ok := res.Metrics[ms.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names metric %q, which this run did not produce", ms.Name)
		}
		metrics[ms.Name] = val{Value: v, Unit: ms.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	return string(raw), err
}

func resultPath(workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, t))
}

func saveResult(res *runResult) error {
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(res.Workload, res.Seed, res.Trace), raw, 0o644)
}

// report prints every metric by name and unit, for people.
func report(w *os.File, spec *benchSpec, res *runResult) {
	units := map[string]string{}
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[ms.Name] = ms.Unit
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  clients %s (closed loop)  data dir %s\n",
		res.Workload, res.Seed, res.Seconds, res.Env["nproc"], res.Env["data_dir_fs"])
	fmt.Fprintf(w, "rounds attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// end-to-end names (no dot) first, then layers alphabetically
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return !di
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		note := ""
		if n == "harness.op_p99_ms" && res.Metrics[n] == 0 {
			note = "  (n/a: fewer than 1000 samples)"
		}
		fmt.Fprintf(w, "  %-42s %14.4f %s%s\n", n, res.Metrics[n], units[n], note)
	}
	if res.Dominant != "" {
		fmt.Fprintf(w, "dominant layer by traced self time: %s\n", res.Dominant)
	}
	fmt.Fprintf(w, "set-ups (calibrated s): %.3f\n", res.SetupsS)
	// The driver allows 180 s per run (900 s for the first, which builds).
	fmt.Fprintf(w, "wall time %.1f s of the 180 s a run may take\n", res.WallS)
}
