// Package taggersim simulates tagger behaviour: who taggers are, which
// resources they choose when free, and what posts they produce.
//
// Paper §I attributes low tagging quality to exactly two defects of casual
// taggers — posts are *noisy* (typos, irrelevant tags) and *incomplete*
// (cover few aspects) — plus free choice concentrating posts on popular
// resources [5]. Each defect is a tunable parameter here:
//
//   - Reliability: probability a tag is drawn from the resource's latent
//     distribution rather than the noise model.
//   - TypoRate: within noise, probability of misspelling a latent tag
//     versus emitting an unrelated tag.
//   - MeanTags: posts carry few tags (incompleteness of a single post).
//   - AspectBias: temperature on the latent distribution; >1 concentrates
//     posts on head aspects, leaving tail aspects under-described.
//
// The package also generates timestamped traces (for the dataset replay
// protocol of §IV) and provides the post-production callback consumed by
// the crowd platform simulator.
package taggersim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"itag/internal/dataset"
	"itag/internal/rfd"
	"itag/internal/rng"
	"itag/internal/vocab"
)

// Profile describes one simulated tagger.
type Profile struct {
	// ID is the tagger identifier.
	ID string
	// Reliability is the probability each tag comes from the latent
	// distribution (honesty); the rest is noise.
	Reliability float64
	// TypoRate is, within the noise fraction, the probability of a typo of
	// a latent tag rather than an unrelated random tag.
	TypoRate float64
	// MeanTags is the mean number of tags per post (>= 1 effective).
	MeanTags float64
	// AspectBias is the temperature applied to latent weights when
	// sampling (1 = faithful; >1 = head-heavy, more incomplete coverage).
	AspectBias float64
	// Activity is the tagger's relative activity weight in the population.
	Activity float64
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("taggersim: profile ID empty")
	}
	if p.Reliability < 0 || p.Reliability > 1 {
		return fmt.Errorf("taggersim: reliability %v outside [0,1]", p.Reliability)
	}
	if p.TypoRate < 0 || p.TypoRate > 1 {
		return fmt.Errorf("taggersim: typo rate %v outside [0,1]", p.TypoRate)
	}
	if p.MeanTags <= 0 {
		return fmt.Errorf("taggersim: mean tags must be positive, got %v", p.MeanTags)
	}
	if p.AspectBias <= 0 {
		return fmt.Errorf("taggersim: aspect bias must be positive, got %v", p.AspectBias)
	}
	if p.Activity < 0 {
		return fmt.Errorf("taggersim: activity must be non-negative, got %v", p.Activity)
	}
	return nil
}

// PopulationConfig parameterizes population generation.
type PopulationConfig struct {
	// Size is the number of taggers (default 50).
	Size int
	// UnreliableFraction is the share of low-reliability taggers
	// (default 0.1).
	UnreliableFraction float64
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Size <= 0 {
		c.Size = 50
	}
	if c.UnreliableFraction < 0 {
		c.UnreliableFraction = 0
	}
	if c.UnreliableFraction > 1 {
		c.UnreliableFraction = 1
	}
	return c
}

// The shape every generated population shares. Generated taggers' noise
// tags are unrelated tags, never typos (their TypoRate is 0).
const (
	reliableMean   = 0.92 // reliability centre of the reliable group
	unreliableMean = 0.35 // reliability centre of the unreliable group
	meanTags       = 3    // population mean tags per post
	aspectBias     = 1.15 // shared sampling temperature
	activityZipfS  = 0.8  // activity inequality: a few taggers do most of the work, as in real crowds
)

// Population is a set of tagger profiles with an activity-weighted sampler.
type Population struct {
	Profiles []Profile
	picker   *rng.Categorical
	byID     map[string]int
}

// NewPopulation generates a population.
func NewPopulation(r *rand.Rand, cfg PopulationConfig) (*Population, error) {
	cfg = cfg.withDefaults()
	zipf, err := rng.NewZipf(cfg.Size, activityZipfS)
	if err != nil {
		return nil, err
	}
	ranks := rng.Shuffled(r, cfg.Size)
	p := &Population{byID: make(map[string]int, cfg.Size)}
	nUnreliable := int(math.Round(cfg.UnreliableFraction * float64(cfg.Size)))
	for i := 0; i < cfg.Size; i++ {
		rel := clamp01(reliableMean + r.NormFloat64()*0.04)
		if i < nUnreliable {
			rel = clamp01(unreliableMean + r.NormFloat64()*0.08)
		}
		prof := Profile{
			ID:          fmt.Sprintf("t%04d", i),
			Reliability: rel,
			MeanTags:    math.Max(1, meanTags+r.NormFloat64()*0.5),
			AspectBias:  aspectBias,
			Activity:    zipf.Prob(ranks[i]),
		}
		if err := prof.Validate(); err != nil {
			return nil, err
		}
		p.byID[prof.ID] = i
		p.Profiles = append(p.Profiles, prof)
	}
	weights := make([]float64, cfg.Size)
	for i, prof := range p.Profiles {
		weights[i] = prof.Activity
	}
	p.picker, err = rng.NewCategorical(weights)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Sample draws a tagger weighted by activity.
func (p *Population) Sample(r *rand.Rand) *Profile {
	return &p.Profiles[p.picker.Sample(r)]
}

// ByID returns the profile with the given ID.
func (p *Population) ByID(id string) (*Profile, bool) {
	i, ok := p.byID[id]
	if !ok {
		return nil, false
	}
	return &p.Profiles[i], true
}

// Size returns the number of taggers.
func (p *Population) Size() int { return len(p.Profiles) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// latentSampler caches the tempered cumulative weights of one resource's
// latent distribution for a given aspect bias.
type latentSampler struct {
	tags []string
	cum  []float64
}

func newLatentSampler(latent rfd.Dist, bias float64) *latentSampler {
	s := &latentSampler{}
	s.tags = make([]string, 0, len(latent))
	for t := range latent {
		s.tags = append(s.tags, t)
	}
	sort.Strings(s.tags) // deterministic iteration
	s.cum = make([]float64, len(s.tags))
	var sum float64
	for i, t := range s.tags {
		sum += math.Pow(latent[t], bias)
		s.cum[i] = sum
	}
	return s
}

func (s *latentSampler) sample(r *rand.Rand) string {
	if len(s.tags) == 0 {
		return ""
	}
	total := s.cum[len(s.cum)-1]
	u := r.Float64() * total
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.tags) {
		i = len(s.tags) - 1
	}
	return s.tags[i]
}

// samplerKey identifies one resource's tempered sampler without the
// fmt.Sprintf allocation the old string key paid on every post.
type samplerKey struct {
	resourceID string
	bias       float64
}

// Simulator produces posts for resources, holding per-resource samplers.
// It is safe for concurrent use: engines sharing one Simulator may step on
// different goroutines at once, as core.Pool's workers do. Samplers are
// immutable once built, so only the cache map needs the lock.
type Simulator struct {
	world  *dataset.World
	byID   map[string]int
	intern *vocab.Interner // optional: canonicalize produced tag strings

	mu       sync.RWMutex
	samplers map[samplerKey]*latentSampler
}

// NewSimulator builds a Simulator over a generated world.
func NewSimulator(world *dataset.World) *Simulator {
	return &Simulator{
		world:    world,
		byID:     world.Dataset.Index(),
		samplers: make(map[samplerKey]*latentSampler),
	}
}

// UseInterner routes every produced tag through in.Canon, so repeated tags
// (including repeated typos) share one canonical string instance with the
// quality trackers consuming the posts. Call before first use; it does not
// change which tags are produced, only their backing storage.
func (s *Simulator) UseInterner(in *vocab.Interner) *Simulator {
	s.intern = in
	return s
}

// GeneratePost produces one post by profile `prof` for the resource. The
// post is a nonempty set (duplicates collapsed by retrying a few times).
func (s *Simulator) GeneratePost(r *rand.Rand, prof *Profile, resourceID string) ([]string, error) {
	i, ok := s.byID[resourceID]
	if !ok {
		return nil, fmt.Errorf("taggersim: unknown resource %q", resourceID)
	}
	res := &s.world.Dataset.Resources[i]
	key := samplerKey{resourceID: resourceID, bias: prof.AspectBias}
	s.mu.RLock()
	ls, ok := s.samplers[key]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if ls, ok = s.samplers[key]; !ok {
			ls = newLatentSampler(res.Latent, prof.AspectBias)
			s.samplers[key] = ls
		}
		s.mu.Unlock()
	}

	n := rng.BoundedNormal(r, prof.MeanTags, 1.0, 1, 8)
	tags := make([]string, 0, n)
	for attempts := 0; len(tags) < n && attempts < n*4; attempts++ {
		var tag string
		if rng.Bernoulli(r, prof.Reliability) {
			tag = ls.sample(r)
		} else if rng.Bernoulli(r, prof.TypoRate) {
			tag = vocab.Typo(r, ls.sample(r))
		} else {
			tag = s.world.Vocab.RandomTag(r)
		}
		tag = rfd.Normalize(tag)
		if tag == "" {
			continue
		}
		if s.intern != nil {
			tag = s.intern.Canon(tag)
		}
		// Posts carry a handful of tags; a linear scan dedups without the
		// per-post set allocation.
		dup := false
		for _, t := range tags {
			if t == tag {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		tags = append(tags, tag)
	}
	if len(tags) == 0 { // degenerate profile; guarantee nonempty post
		tags = append(tags, ls.sample(r))
	}
	return tags, nil
}

// World returns the underlying world.
func (s *Simulator) World() *dataset.World { return s.world }

// TraceConfig parameterizes trace generation.
type TraceConfig struct {
	// NumPosts is the trace length (default 5000).
	NumPosts int
	// ChoiceTheta is the preferential-attachment exponent for free choice:
	// resources are chosen with weight Popularity·(posts+1)^Theta
	// (default 0.8, reproducing rich-get-richer skew [5]).
	ChoiceTheta float64
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.NumPosts <= 0 {
		c.NumPosts = 5000
	}
	if c.ChoiceTheta < 0 {
		c.ChoiceTheta = 0
	}
	if c.ChoiceTheta == 0 {
		c.ChoiceTheta = 0.8
	}
	return c
}

// A generated trace starts at traceStart, matching the demo's Delicious-era
// protocol, with a mean gap of traceMeanGap between posts.
var traceStart = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

const traceMeanGap = 10 * time.Minute

// GenerateTrace simulates free-choice tagging over the world and appends
// the resulting time-ordered posts to the world's dataset.
func (s *Simulator) GenerateTrace(r *rand.Rand, pop *Population, cfg TraceConfig) error {
	cfg = cfg.withDefaults()
	res := s.world.Dataset.Resources
	counts := make([]int, len(res))
	for _, p := range s.world.Dataset.Posts {
		if i, ok := s.byID[p.ResourceID]; ok {
			counts[i]++
		}
	}
	now := traceStart
	for n := 0; n < cfg.NumPosts; n++ {
		// Free choice: popularity × rich-get-richer.
		weights := make([]float64, len(res))
		for i := range res {
			weights[i] = res[i].Popularity * math.Pow(float64(counts[i]+1), cfg.ChoiceTheta)
		}
		pick, err := rng.NewCategorical(weights)
		if err != nil {
			return err
		}
		i := pick.Sample(r)
		prof := pop.Sample(r)
		tags, err := s.GeneratePost(r, prof, res[i].ID)
		if err != nil {
			return err
		}
		counts[i]++
		gap := time.Duration(float64(traceMeanGap) * rexp(r))
		now = now.Add(gap)
		s.world.Dataset.Posts = append(s.world.Dataset.Posts, dataset.Post{
			ResourceID: res[i].ID,
			TaggerID:   prof.ID,
			Tags:       tags,
			Time:       now,
		})
	}
	return nil
}

func rexp(r *rand.Rand) float64 {
	u := r.Float64()
	if u == 0 {
		u = 1e-12
	}
	return -math.Log(u)
}

// Replayer serves held-out posts per resource in trace order; it implements
// the §IV protocol where evaluation posts come from the real future of the
// trace rather than the generative model.
type Replayer struct {
	queues map[string][]dataset.Post
}

// NewReplayer groups evaluation posts by resource, preserving order.
func NewReplayer(eval []dataset.Post) *Replayer {
	q := make(map[string][]dataset.Post)
	for _, p := range eval {
		q[p.ResourceID] = append(q[p.ResourceID], p)
	}
	return &Replayer{queues: q}
}

// Next pops the next held-out post for the resource; ok=false when the
// resource's future is exhausted.
func (rp *Replayer) Next(resourceID string) (dataset.Post, bool) {
	q := rp.queues[resourceID]
	if len(q) == 0 {
		return dataset.Post{}, false
	}
	p := q[0]
	rp.queues[resourceID] = q[1:]
	return p, true
}

// Remaining returns how many held-out posts remain for the resource.
func (rp *Replayer) Remaining(resourceID string) int {
	return len(rp.queues[resourceID])
}

// TotalRemaining returns the total held-out posts left.
func (rp *Replayer) TotalRemaining() int {
	n := 0
	for _, q := range rp.queues {
		n += len(q)
	}
	return n
}
