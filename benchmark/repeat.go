package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// cell is one workload × end-to-end metric over a set of runs, with the
// uncalibrated value beside the calibrated one where there is one.
type cell struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Unit      string    `json:"unit"`
	Values    []float64 `json:"values"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	Spread    float64   `json:"spread"` // (q3 - q1) ÷ median
	RawMedian float64   `json:"raw_median,omitempty"`
	RawSpread float64   `json:"raw_spread,omitempty"`
}

// runSet is what --repeat writes: N runs of each workload.
type runSet struct {
	TakenAt  string               `json:"taken_at"`
	Runs     int                  `json:"runs"`
	Seconds  int                  `json:"seconds"`
	Env      map[string]string    `json:"env"`
	Cells    []cell               `json:"cells"`
	Failed   int                  `json:"failed_total"`
	Correct  bool                 `json:"all_correct"`
	WallS    map[string][]float64 `json:"wall_s"`
	BoxIndex map[string][]float64 `json:"box_index"`
}

// rawTwin names the report-only metric holding a calibrated metric's raw
// value.
var rawTwin = map[string]string{
	"ops_per_s": "harness.raw_ops_per_s",
	"op_p50_ms": "harness.raw_op_p50_ms",
	"setup_s":   "harness.raw_setup_s",
}

func repeatRuns(spec *benchSpec, self, workload string, seed int64, seconds, n int, out string) int {
	var names []string
	for _, w := range spec.Workloads {
		if workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: --repeat needs --workload <name|all>, got %q\n", workload)
		return 2
	}
	set := runSet{
		TakenAt: time.Now().UTC().Format(time.RFC3339), Runs: n, Seconds: seconds, Correct: true,
		WallS: map[string][]float64{}, BoxIndex: map[string][]float64{},
	}
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			// Each run is a fresh process, as the driver's runs are.
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: run %d of %s: %v\n", i, name, err)
				set.Correct = false
			}
			raw, err := os.ReadFile(resultPath(name, s, false))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			var res runResult
			if err := json.Unmarshal(raw, &res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if set.Env == nil || res.Env["data_dir_fs"] != "memory" {
				set.Env = res.Env // the durable workloads know where the WALs went
			}
			set.Failed += res.Failed
			set.Correct = set.Correct && res.Correct
			set.WallS[name] = append(set.WallS[name], res.WallS)
			set.BoxIndex[name] = append(set.BoxIndex[name], res.Metrics["harness.box_index"])
			for k, v := range res.Metrics {
				values[k] = append(values[k], v)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: ops_per_s %.1f  op_p50_ms %.4f  setup_s %.3f  box %.2f  wall %.1fs\n",
				name, s, res.Metrics["ops_per_s"], res.Metrics["op_p50_ms"], res.Metrics["setup_s"],
				res.Metrics["harness.box_index"], res.WallS)
		}
		for _, ms := range spec.EndToEnd {
			c := cell{Workload: name, Metric: ms.Name, Unit: ms.Unit, Values: values[ms.Name]}
			c.Q1, c.Median, c.Q3 = quartiles(c.Values)
			c.Spread = spread(c.Values)
			if twin, ok := rawTwin[ms.Name]; ok {
				c.RawMedian, c.RawSpread = median(values[twin]), spread(values[twin])
			}
			set.Cells = append(set.Cells, c)
		}
	}
	printSet(spec, set)
	if out != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !set.Correct || set.Failed > 0 {
		return 1
	}
	return 0
}

func printSet(spec *benchSpec, set runSet) {
	fmt.Printf("%d runs per workload, %d s each; failed operations %d; all correct %v\n", set.Runs, set.Seconds, set.Failed, set.Correct)
	fmt.Printf("%-14s %-16s %12s %12s %12s %8s %7s | %12s %8s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "bound", "raw median", "spread")
	for _, c := range set.Cells {
		ms, _ := spec.endToEnd(c.Metric)
		raw := fmt.Sprintf("%12s %8s", "-", "-")
		if c.RawMedian != 0 {
			raw = fmt.Sprintf("%12.4f %7.1f%%", c.RawMedian, 100*c.RawSpread)
		}
		fmt.Printf("%-14s %-16s %12.4f %12.4f %12.4f %7.1f%% %6.0f%% | %s\n",
			c.Workload, c.Metric, c.Q1, c.Median, c.Q3, 100*c.Spread, 100*ms.Bound, raw)
	}
}

// verdict is one row of --compare.
type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	WorseBy  float64 `json:"worse_by"` // share of A's median by which B is worse (negative: better)
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"` // "within bound" | "regressed" | "unresolved"
	// The uncalibrated twin of a calibrated metric, for the record of what
	// calibration bought: the same three numbers from the raw values.
	RawWorseBy float64 `json:"raw_worse_by,omitempty"`
	RawSpreadA float64 `json:"raw_spread_a,omitempty"`
	RawSpreadB float64 `json:"raw_spread_b,omitempty"`
}

func compareSets(spec *benchSpec, pathA, pathB, out string) int {
	load := func(path string) (runSet, error) {
		var s runSet
		raw, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		return s, json.Unmarshal(raw, &s)
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cellsB := map[string]cell{}
	for _, c := range b.Cells {
		cellsB[c.Workload+"/"+c.Metric] = c
	}
	var rows []verdict
	bad := 0
	fmt.Printf("%-14s %-16s %12s %12s %9s %8s %8s %6s  %-12s | %s\n", "workload", "metric", "median A", "median B",
		"worse by", "spread A", "spread B", "bound", "verdict", "raw: worse by, spread A, spread B")
	for _, ca := range a.Cells {
		cb, ok := cellsB[ca.Workload+"/"+ca.Metric]
		ms, known := spec.endToEnd(ca.Metric)
		if !ok || !known || ca.Median == 0 {
			continue
		}
		v := verdict{Workload: ca.Workload, Metric: ca.Metric, MedianA: ca.Median, MedianB: cb.Median,
			SpreadA: ca.Spread, SpreadB: cb.Spread, Bound: ms.Bound}
		worseBy := func(a, b float64) float64 {
			if ms.Better == "higher" {
				return (a - b) / a
			}
			return (b - a) / a
		}
		v.WorseBy = worseBy(ca.Median, cb.Median)
		raw := ""
		if ca.RawMedian != 0 {
			v.RawWorseBy, v.RawSpreadA, v.RawSpreadB = worseBy(ca.RawMedian, cb.RawMedian), ca.RawSpread, cb.RawSpread
			raw = fmt.Sprintf(" | %+6.1f%% %6.1f%% %6.1f%%", 100*v.RawWorseBy, 100*v.RawSpreadA, 100*v.RawSpreadB)
		}
		switch {
		case max(ca.Spread, cb.Spread) > ms.Bound:
			// The runs of one side disagree among themselves by more than
			// the bound: no verdict either way.
			v.Verdict = "unresolved"
			bad++
		case v.WorseBy > ms.Bound:
			v.Verdict = "regressed"
			bad++
		default:
			v.Verdict = "within bound"
		}
		rows = append(rows, v)
		fmt.Printf("%-14s %-16s %12.4f %12.4f %+8.1f%% %7.1f%% %7.1f%% %5.0f%%  %-12s%s\n",
			v.Workload, v.Metric, v.MedianA, v.MedianB, 100*v.WorseBy, 100*v.SpreadA, 100*v.SpreadB, 100*v.Bound, v.Verdict, raw)
	}
	if out != "" {
		doc := struct {
			Env        map[string]string `json:"env"`
			Sets       []runSet          `json:"sets"`
			Comparison []verdict         `json:"comparison"`
		}{a.Env, []runSet{a, b}, rows}
		raw, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(out, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
