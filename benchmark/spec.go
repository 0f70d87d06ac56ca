package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is where the contract puts the benchmark definition: the root of
// the checkout the command is run from.
const specPath = "BENCHMARK.json"

// metricSpec is one metric as BENCHMARK.json declares it. The harness reads
// names, units, directions and bounds from that file at run time and keeps no
// copy of them: a value it computes under a name the file does not list is
// only printed in the human-readable report, and a listed name it cannot
// compute fails the run.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be non-empty", path)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// endToEnd finds an end-to-end metric (and with it its regression bound).
func (s *benchSpec) endToEnd(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// Calibration constants. The contract fixes BENCHMARK.json's keys, so the
// frozen numbers the issue wanted beside the names live here instead, in the
// one file a later change to the benchmark has to touch.
const (
	// refNominalUS is the reference call's p50 on the reference box (2-core
	// shared Xeon 2.1 GHz sandbox, 2 closed-loop clients). Calibrated times
	// read as "on a box where the reference call takes this long".
	refNominalUS = 650.0

	setupRepeats  = 3 // set-ups per run; setup_s is their median
	warmSlices    = 1 // closes every set-up: work part only, its rounds untimed
	discardSlices = 1 // first slice of the measured loop, thrown away

	// measuredSlices slices are timed and every time-valued metric is the
	// median over them. Slice-to-slice noise on the reference box is ≈ 11 %
	// whether a slice lasts 0.3 s or 0.6 s, so the run-to-run spread falls
	// with the square root of the slice count: 32 short slices, not the 16
	// the issue proposed.
	measuredSlices = 32
	tracedSlices   = 8

	// refCallsPerSlice reference calls close every slice (≈ 0.15 s on the
	// reference box at two clients).
	refCallsPerSlice = 450
)

// workloadDef freezes what a workload runs. roundsPerSecond × --seconds
// rounds are spread evenly over the measured slices, so two runs of one
// workload do the same work whatever the box does to the clock.
type workloadDef struct {
	name            string
	nodes           int // itagd children
	durable         bool
	quorum          bool
	projects        int
	resources       int // per project
	preloadPosts    int // per resource, approximately: the strategy picks
	roundsPerSecond int // budget on the reference box
	viewsPerRound   int
	postsPerRound   int
	batchItems      int // > 0: a round is one BatchTasks call of this many
}

// Every project is preloaded with preloadPosts posts per resource, so that
// the fp-mu strategy has left its cheap fewest-posts phase (it switches once
// every resource has five posts) before the first timed round: a run
// measures the steady state a project spends nearly all its budget in, and
// the first slice costs what the last one does.
var workloadTable = []workloadDef{
	{name: "tag_durable", nodes: 1, durable: true, projects: 1, resources: 400, preloadPosts: 5,
		roundsPerSecond: 850, postsPerRound: 1},
	{name: "dash_live", nodes: 1, projects: 1, resources: 1000, preloadPosts: 5,
		roundsPerSecond: 105, viewsPerRound: 3, postsPerRound: 1},
	{name: "quorum_mixed", nodes: 3, durable: true, quorum: true, projects: 3, resources: 200, preloadPosts: 5,
		roundsPerSecond: 105, viewsPerRound: 1, postsPerRound: 1},
	{name: "batch_engine", nodes: 1, projects: 1, resources: 1000, preloadPosts: 5,
		roundsPerSecond: 6, batchItems: 200},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// roundsPerSlice is the fixed work of one slice at the given --seconds.
func (w workloadDef) roundsPerSlice(seconds int) int {
	return max(w.roundsPerSecond*seconds/measuredSlices, 4)
}
