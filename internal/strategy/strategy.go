// Package strategy implements ChooseResources() — the only point where the
// iTag allocation strategies differ (paper §II, Algorithm 1, Table I):
//
//	FC    Free Choice        taggers pick resources (popularity-weighted)
//	FP    Fewest Posts first prioritize resources with fewest posts
//	MU    Most Unstable first prioritize most unstable rfds
//	FP-MU Hybrid             FP first, then MU
//
// plus baselines (Random, RoundRobin), an ε-greedy extension, and the
// offline optimal allocators (greedy marginal-gain and exact DP over
// projected gain curves) that the demo compares strategies against (§IV).
package strategy

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"itag/internal/rng"
)

// View is the snapshot of project state a strategy chooses from. Indices
// are stable across the run (position in the project's resource list).
type View interface {
	// Len is the number of resources.
	Len() int
	// Posts returns resource i's current post count (c_i + x_i).
	Posts(i int) int
	// Quality returns resource i's current stability quality estimate.
	Quality(i int) float64
	// Popularity returns resource i's attractiveness to free-choice
	// taggers.
	Popularity(i int) float64
	// Eligible reports whether resource i may receive tasks (false once
	// stopped by the provider or exhausted by a replay source).
	Eligible(i int) bool
}

// Strategy selects which resources receive the next batch of tasks.
// Implementations may be stateful across calls within one run; the engine
// creates a fresh Strategy per run.
type Strategy interface {
	// Name identifies the strategy ("fp", "mu", ...).
	Name() string
	// Choose returns up to batch distinct eligible resource indices. An
	// empty result means no eligible resources remain.
	Choose(v View, batch int, r *rand.Rand) []int
}

func eligible(v View) []int {
	out := make([]int, 0, v.Len())
	for i := 0; i < v.Len(); i++ {
		if v.Eligible(i) {
			out = append(out, i)
		}
	}
	return out
}

// FreeChoice (FC) models taggers freely choosing what to tag: resources are
// drawn proportionally to Popularity·(posts+1)^Theta — popularity plus
// rich-get-richer, the behaviour [5] observed on Delicious. Table I: it
// captures tagger preference but "may not improve tag quality of R
// significantly".
type FreeChoice struct {
	// Theta is the preferential-attachment exponent (default 0.8).
	Theta float64
}

// Name implements Strategy.
func (FreeChoice) Name() string { return "fc" }

// Choose implements Strategy.
func (s FreeChoice) Choose(v View, batch int, r *rand.Rand) []int {
	theta := s.Theta
	if theta <= 0 {
		theta = 0.8
	}
	idx := eligible(v)
	if len(idx) == 0 || batch <= 0 {
		return nil
	}
	if batch > len(idx) {
		batch = len(idx)
	}
	weights := make([]float64, len(idx))
	for j, i := range idx {
		weights[j] = v.Popularity(i) * math.Pow(float64(v.Posts(i)+1), theta)
		if weights[j] <= 0 {
			weights[j] = 1e-12
		}
	}
	chosen := make([]int, 0, batch)
	taken := make(map[int]struct{}, batch)
	// Rejection-sample distinct resources; bounded attempts, then fill from
	// the highest-weight leftovers for determinism of batch size. Weights
	// the sampler rejects (a power that overflowed to +Inf) go straight to
	// the fill, so the batch is never empty while resources are eligible.
	if cat, err := rng.NewCategorical(weights); err == nil {
		for attempts := 0; len(chosen) < batch && attempts < batch*20; attempts++ {
			j := cat.Sample(r)
			if _, dup := taken[j]; dup {
				continue
			}
			taken[j] = struct{}{}
			chosen = append(chosen, idx[j])
		}
	}
	if len(chosen) < batch {
		order := rng.WeightedTopK(weights, len(weights))
		for _, j := range order {
			if len(chosen) == batch {
				break
			}
			if _, dup := taken[j]; dup {
				continue
			}
			taken[j] = struct{}{}
			chosen = append(chosen, idx[j])
		}
	}
	return chosen
}

// Key is a resource's rank under FP, MU or FP-MU: the eligible resource with
// the smallest key is chosen first. Keys order by Major, then by Minor.
type Key struct {
	Major float64
	Minor int
}

// Less reports whether a ranks strictly before b.
func (a Key) Less(b Key) bool {
	if a.Major != b.Major {
		return a.Major < b.Major
	}
	return a.Minor < b.Minor
}

// Ranked is implemented by the strategies that are "the batch smallest
// eligible resources under a per-resource key, ties broken uniformly at
// random" — FP, MU and FP-MU. Key is the only definition of their order:
// Choose selects by it, and a caller that maintains its own index over the
// keys (core.Engine's rank heap) may replace Choose by the protocol
//
//	Advance(smallest eligible key) → take the smallest keys → Picked(n)
//
// re-reading every key whenever Advance reports that the key function moved.
type Ranked interface {
	Strategy
	// Key ranks a resource by its post count (c_i + x_i) and stability
	// quality.
	Key(posts int, quality float64) Key
	// Advance is called before each choice with the smallest eligible key
	// (ok=false when nothing is eligible). It reports whether the key
	// function changed, which makes every key read earlier stale.
	Advance(min Key, ok bool) bool
	// Picked records that n resources were handed out in key order.
	Picked(n int)
}

// candidate is one eligible resource during chooseRanked's selection.
type candidate struct {
	key Key
	tie uint64 // drawn per candidate: a uniformly random order within a tie class
	i   int
}

// compare orders candidates by key, then by tie.
func (a candidate) compare(b candidate) int {
	if a.key != b.key {
		if a.key.Less(b.key) {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.tie, b.tie)
}

// chooseRanked is Choose for the Ranked strategies.
func chooseRanked(s Ranked, v View, batch int, r *rand.Rand) []int {
	if batch <= 0 {
		return nil
	}
	sel := smallest(s, v, batch, r)
	var min Key
	if len(sel) > 0 {
		min = sel[0].key
	}
	if s.Advance(min, len(sel) > 0) {
		sel = smallest(s, v, batch, r)
	}
	if len(sel) == 0 {
		return nil
	}
	out := make([]int, len(sel))
	for j, c := range sel {
		out[j] = c.i
	}
	s.Picked(len(out))
	return out
}

// smallest returns the batch eligible candidates that rank first, in rank
// order: one pass over the view that keeps them in a sorted slice. Past the
// first few resources almost every candidate loses against the last one
// kept, so a call costs about n key reads, and a batch of one is a plain
// arg-min.
func smallest(s Ranked, v View, batch int, r *rand.Rand) []candidate {
	n := v.Len()
	if batch > n {
		batch = n
	}
	kept := make([]candidate, 0, batch+1)
	for i := 0; i < n; i++ {
		if !v.Eligible(i) {
			continue
		}
		c := candidate{key: s.Key(v.Posts(i), v.Quality(i)), i: i}
		if len(kept) == batch && kept[batch-1].key.Less(c.key) {
			continue // loses on the key alone: no tie to draw
		}
		c.tie = r.Uint64()
		if len(kept) == batch && c.compare(kept[batch-1]) >= 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(kept, c, candidate.compare)
		kept = slices.Insert(kept, at, c)
		if len(kept) > batch {
			kept = kept[:batch]
		}
	}
	return kept
}

// FewestPosts (FP) prioritizes resources with the fewest posts. Table I:
// it "reduces the number of resources with low tag quality".
type FewestPosts struct{}

// Name implements Strategy.
func (FewestPosts) Name() string { return "fp" }

// Key implements Ranked: the post count.
func (FewestPosts) Key(posts int, _ float64) Key { return Key{Major: float64(posts)} }

// Advance implements Ranked.
func (FewestPosts) Advance(Key, bool) bool { return false }

// Picked implements Ranked.
func (FewestPosts) Picked(int) {}

// Choose implements Strategy.
func (s FewestPosts) Choose(v View, batch int, r *rand.Rand) []int {
	return chooseRanked(s, v, batch, r)
}

// MostUnstable (MU) prioritizes resources whose rfds are most unstable
// (lowest stability quality). Resources with fewer than MinPosts posts have
// no stability evidence and are treated as maximally unstable. Table I: it
// "increases the number of resources that can satisfy a certain quality
// requirement".
type MostUnstable struct {
	// MinPosts is the evidence threshold (default 2).
	MinPosts int
}

// Name implements Strategy.
func (MostUnstable) Name() string { return "mu" }

// Key implements Ranked: most unstable first, and among equally unstable
// resources the one with fewer posts (less evidence).
func (s MostUnstable) Key(posts int, quality float64) Key {
	minPosts := s.MinPosts
	if minPosts <= 0 {
		minPosts = 2
	}
	instability := 1.0
	if posts >= minPosts {
		instability = 1 - quality
	}
	return Key{Major: -instability, Minor: posts}
}

// Advance implements Ranked.
func (MostUnstable) Advance(Key, bool) bool { return false }

// Picked implements Ranked.
func (MostUnstable) Picked(int) {}

// Choose implements Strategy.
func (s MostUnstable) Choose(v View, batch int, r *rand.Rand) []int {
	return chooseRanked(s, v, batch, r)
}

// FPMU is the hybrid: FP until a trigger fires, then MU (Table I: "most
// effective in improving tag quality of R"). Two triggers are supported and
// the switch happens when either fires:
//
//   - MinPostsTarget K0 > 0: switch once every eligible resource has at
//     least K0 posts (FP's job — eliminating post-starved resources — is
//     done).
//   - SwitchFraction φ > 0 with TotalBudget set: switch after φ·B tasks.
type FPMU struct {
	// MinPostsTarget is the K0 trigger (default 5 when neither trigger is
	// configured).
	MinPostsTarget int
	// SwitchFraction is the budget-fraction trigger.
	SwitchFraction float64
	// TotalBudget is the run's budget B (needed by SwitchFraction).
	TotalBudget int

	fp       FewestPosts
	mu       MostUnstable
	spent    int
	switched bool
}

// NewFPMU returns the hybrid with the default K0=5 trigger.
func NewFPMU() *FPMU { return &FPMU{MinPostsTarget: 5} }

// Name implements Strategy.
func (s *FPMU) Name() string { return "fp-mu" }

// Phase reports which phase the hybrid is in ("fp" or "mu").
func (s *FPMU) Phase() string {
	if s.switched {
		return "mu"
	}
	return "fp"
}

// Key implements Ranked: the key of the current phase.
func (s *FPMU) Key(posts int, quality float64) Key {
	if s.switched {
		return s.mu.Key(posts, quality)
	}
	return s.fp.Key(posts, quality)
}

// Advance implements Ranked: it fires the FP→MU switch. In the FP phase the
// smallest key is the smallest eligible post count, so the K0 trigger reads
// it instead of scanning the project.
func (s *FPMU) Advance(min Key, ok bool) bool {
	if s.switched {
		return false
	}
	k0 := s.MinPostsTarget
	if k0 <= 0 && (s.SwitchFraction <= 0 || s.TotalBudget <= 0) {
		k0 = 5
	}
	if k0 > 0 && (!ok || min.Major >= float64(k0)) {
		s.switched = true
	}
	if s.SwitchFraction > 0 && s.TotalBudget > 0 &&
		float64(s.spent) >= s.SwitchFraction*float64(s.TotalBudget) {
		s.switched = true
	}
	return s.switched
}

// Picked implements Ranked.
func (s *FPMU) Picked(n int) { s.spent += n }

// Choose implements Strategy.
func (s *FPMU) Choose(v View, batch int, r *rand.Rand) []int {
	return chooseRanked(s, v, batch, r)
}

// Random allocates uniformly among eligible resources — the naive baseline.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Choose implements Strategy.
func (Random) Choose(v View, batch int, r *rand.Rand) []int {
	idx := eligible(v)
	if len(idx) == 0 || batch <= 0 {
		return nil
	}
	if batch > len(idx) {
		batch = len(idx)
	}
	picks := rng.SampleWithoutReplacement(r, len(idx), batch)
	out := make([]int, 0, batch)
	for _, j := range picks {
		out = append(out, idx[j])
	}
	return out
}

// RoundRobin cycles through eligible resources in index order — the
// equal-allocation baseline.
type RoundRobin struct {
	next int
}

// Name implements Strategy.
func (*RoundRobin) Name() string { return "round-robin" }

// Choose implements Strategy.
func (s *RoundRobin) Choose(v View, batch int, r *rand.Rand) []int {
	n := v.Len()
	if n == 0 || batch <= 0 {
		return nil
	}
	out := make([]int, 0, batch)
	for scanned := 0; scanned < n && len(out) < batch; scanned++ {
		i := s.next % n
		s.next++
		if v.Eligible(i) {
			out = append(out, i)
		}
	}
	return out
}

// EpsGreedy explores uniformly with probability Eps and otherwise defers
// to Exploit — an extension for when stability estimates are noisy.
type EpsGreedy struct {
	// Eps is the exploration probability (default 0.1).
	Eps float64
	// Exploit is the exploitation strategy (default MostUnstable).
	Exploit Strategy
}

// Name implements Strategy.
func (s EpsGreedy) Name() string { return "eps-greedy" }

// Choose implements Strategy.
func (s EpsGreedy) Choose(v View, batch int, r *rand.Rand) []int {
	eps := s.Eps
	if eps <= 0 {
		eps = 0.1
	}
	exploit := s.Exploit
	if exploit == nil {
		exploit = MostUnstable{}
	}
	if rng.Bernoulli(r, eps) {
		return Random{}.Choose(v, batch, r)
	}
	return exploit.Choose(v, batch, r)
}

// Planned dispenses a precomputed allocation plan (e.g. from the optimal
// allocators): Choose hands out indices with remaining planned tasks,
// most-remaining first.
type Planned struct {
	remaining []int
	name      string
}

// NewPlanned wraps an allocation x (x[i] = tasks planned for resource i).
func NewPlanned(name string, plan []int) *Planned {
	cp := make([]int, len(plan))
	copy(cp, plan)
	if name == "" {
		name = "planned"
	}
	return &Planned{remaining: cp, name: name}
}

// Name implements Strategy.
func (p *Planned) Name() string { return p.name }

// Remaining returns how many planned tasks are still undistributed.
func (p *Planned) Remaining() int {
	total := 0
	for _, x := range p.remaining {
		total += x
	}
	return total
}

// Choose implements Strategy.
func (p *Planned) Choose(v View, batch int, r *rand.Rand) []int {
	if batch <= 0 {
		return nil
	}
	type rem struct{ i, n int }
	var todo []rem
	for i, n := range p.remaining {
		if n > 0 && i < v.Len() && v.Eligible(i) {
			todo = append(todo, rem{i, n})
		}
	}
	sort.Slice(todo, func(a, b int) bool {
		if todo[a].n != todo[b].n {
			return todo[a].n > todo[b].n
		}
		return todo[a].i < todo[b].i
	})
	out := make([]int, 0, batch)
	for _, t := range todo {
		if len(out) == batch {
			break
		}
		out = append(out, t.i)
		p.remaining[t.i]--
	}
	return out
}

// Parse resolves a strategy by spec string. Supported specs:
//
//	fc | fc:theta=0.8
//	fp
//	mu | mu:minposts=2
//	fp-mu | fp-mu:k0=5 | fp-mu:frac=0.5,budget=1000
//	random
//	round-robin
//	eps-greedy | eps-greedy:eps=0.2
func Parse(spec string) (Strategy, error) {
	name, args, _ := strings.Cut(spec, ":")
	params := map[string]string{}
	if args != "" {
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(kv, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return nil, fmt.Errorf("strategy: bad parameter %q in %q", kv, spec)
			}
			params[k] = v
		}
	}
	getF := func(key string, def float64) (float64, error) {
		s, ok := params[key]
		if !ok {
			return def, nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("strategy: parameter %s=%s is not a finite number", key, s)
		}
		return v, err
	}
	getI := func(key string, def int) (int, error) {
		s, ok := params[key]
		if !ok {
			return def, nil
		}
		return strconv.Atoi(s)
	}
	switch name {
	case "fc":
		theta, err := getF("theta", 0.8)
		if err != nil {
			return nil, err
		}
		return FreeChoice{Theta: theta}, nil
	case "fp":
		return FewestPosts{}, nil
	case "mu":
		mp, err := getI("minposts", 2)
		if err != nil {
			return nil, err
		}
		return MostUnstable{MinPosts: mp}, nil
	case "fp-mu", "fpmu":
		k0, err := getI("k0", 0)
		if err != nil {
			return nil, err
		}
		frac, err := getF("frac", 0)
		if err != nil {
			return nil, err
		}
		budget, err := getI("budget", 0)
		if err != nil {
			return nil, err
		}
		s := &FPMU{MinPostsTarget: k0, SwitchFraction: frac, TotalBudget: budget}
		if k0 <= 0 && frac <= 0 {
			s.MinPostsTarget = 5
		}
		return s, nil
	case "random":
		return Random{}, nil
	case "round-robin", "rr":
		return &RoundRobin{}, nil
	case "eps-greedy", "eps":
		eps, err := getF("eps", 0.1)
		if err != nil {
			return nil, err
		}
		return EpsGreedy{Eps: eps}, nil
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q", name)
	}
}
