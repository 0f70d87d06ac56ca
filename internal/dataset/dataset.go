// Package dataset defines the static tagging world — resources, posts,
// traces — plus generation, serialization, temporal splitting and summary
// statistics.
//
// The iTag demo (§IV) replays a Delicious 2010 crawl: posts before a cutoff
// date seed the providers' resources, the rest evaluate the allocation
// strategies. The crawl is not available, so this package generates
// Delicious-like worlds whose published shape statistics the strategies
// actually depend on: power-law resource popularity (Golder & Huberman [5]),
// heavy-tailed tag reuse, topical tag clusters, and per-resource latent
// distributions that empirical rfds converge to. Generated traces are
// timestamped so the same pre-cutoff/post-cutoff protocol applies.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"itag/internal/rfd"
	"itag/internal/rng"
	"itag/internal/vocab"
)

// Kind classifies a resource, mirroring the upload types in paper §III-A.
type Kind string

// Resource kinds supported by iTag (paper Fig. 1 / §III-A).
const (
	KindURL   Kind = "url"
	KindImage Kind = "image"
	KindVideo Kind = "video"
	KindSound Kind = "sound"
	KindPaper Kind = "paper"
)

// Kinds lists all resource kinds.
var Kinds = []Kind{KindURL, KindImage, KindVideo, KindSound, KindPaper}

// Resource is one taggable item.
type Resource struct {
	// ID is the resource identifier, unique within a dataset.
	ID string `json:"id"`
	// Kind is the resource type.
	Kind Kind `json:"kind"`
	// Name is a human-readable label.
	Name string `json:"name"`
	// Topic is the index of the topical cluster the resource belongs to.
	Topic int `json:"topic"`
	// Popularity is the resource's relative attractiveness to free-choice
	// taggers (normalized across the dataset).
	Popularity float64 `json:"popularity"`
	// Latent is the true tag distribution; empirical rfds converge to it
	// as honest posts accumulate. It is hidden from live strategies and
	// used only by the simulator and oracle evaluation.
	Latent rfd.Dist `json:"latent"`
}

// Post is one tagging operation: a nonempty tag set given to a resource by
// a tagger at a point in time (paper §II).
type Post struct {
	// ResourceID identifies the tagged resource.
	ResourceID string `json:"resource_id"`
	// TaggerID identifies who tagged (empty for anonymous trace posts).
	TaggerID string `json:"tagger_id,omitempty"`
	// Tags is the nonempty tag set.
	Tags []string `json:"tags"`
	// Time is when the post was made.
	Time time.Time `json:"time"`
}

// Dataset is a world: resources plus a time-ordered post trace.
type Dataset struct {
	// Resources, indexed by position; IDs are unique.
	Resources []Resource `json:"resources"`
	// Posts is the trace in non-decreasing time order.
	Posts []Post `json:"posts"`
}

// Validate checks internal consistency: unique resource IDs, posts that
// reference known resources with nonempty tag sets, time-ordered trace.
func (d *Dataset) Validate() error {
	ids := make(map[string]struct{}, len(d.Resources))
	for i, r := range d.Resources {
		if r.ID == "" {
			return fmt.Errorf("dataset: resource %d has empty ID", i)
		}
		if _, dup := ids[r.ID]; dup {
			return fmt.Errorf("dataset: duplicate resource ID %q", r.ID)
		}
		ids[r.ID] = struct{}{}
	}
	var prev time.Time
	for i, p := range d.Posts {
		if _, ok := ids[p.ResourceID]; !ok {
			return fmt.Errorf("dataset: post %d references unknown resource %q", i, p.ResourceID)
		}
		if len(p.Tags) == 0 {
			return fmt.Errorf("dataset: post %d has no tags", i)
		}
		if i > 0 && p.Time.Before(prev) {
			return fmt.Errorf("dataset: post %d out of time order", i)
		}
		prev = p.Time
	}
	return nil
}

// Index returns a map from resource ID to position in Resources.
func (d *Dataset) Index() map[string]int {
	m := make(map[string]int, len(d.Resources))
	for i, r := range d.Resources {
		m[r.ID] = i
	}
	return m
}

// SplitFraction splits so that the first `frac` of posts (by count) are the
// seed; frac is clamped into [0, 1].
func (d *Dataset) SplitFraction(frac float64) (seed, eval []Post) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	i := int(frac * float64(len(d.Posts)))
	return d.Posts[:i], d.Posts[i:]
}

// PostCounts returns per-resource post counts for a post slice, keyed by
// resource ID.
func PostCounts(posts []Post) map[string]int {
	m := make(map[string]int)
	for _, p := range posts {
		m[p.ResourceID]++
	}
	return m
}

// GeneratorConfig parameterizes world generation.
type GeneratorConfig struct {
	// NumResources is the number of resources (default 200).
	NumResources int
	// PopularityZipfS shapes the popularity power law (default 1.1, in the
	// range reported for Delicious-like traces).
	PopularityZipfS float64
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.NumResources <= 0 {
		c.NumResources = 200
	}
	if c.PopularityZipfS <= 0 {
		c.PopularityZipfS = 1.1
	}
	return c
}

// World bundles generated resources with the vocabulary that produced them.
type World struct {
	Dataset *Dataset
	Vocab   *vocab.Vocabulary
}

// Generate builds a world with no posts yet (traces are produced by the
// tagger simulator or loaded from files).
func Generate(r *rand.Rand, cfg GeneratorConfig) (*World, error) {
	cfg = cfg.withDefaults()
	voc := vocab.Generate(r)
	zipf, err := rng.NewZipf(cfg.NumResources, cfg.PopularityZipfS)
	if err != nil {
		return nil, err
	}

	// Popularity ranks are a random permutation so resource index does not
	// encode popularity.
	ranks := rng.Shuffled(r, cfg.NumResources)

	ds := &Dataset{Resources: make([]Resource, 0, cfg.NumResources)}
	for i := 0; i < cfg.NumResources; i++ {
		topic := r.Intn(voc.NumTopics())
		// Each resource draws its own support sizes and within-component
		// skew, so some are "easy" (few dominant tags, rfd stabilizes fast)
		// and others "hard" (broad flat tag sets): resources differ in how
		// many posts their rfds need to stabilize — the heterogeneity that
		// makes allocation a real decision (identical resources make equal
		// allocation optimal).
		latent, err := voc.Latent(r, topic, vocab.LatentConfig{
			CoreTags:       3 + r.Intn(10),
			TopicTags:      4 + r.Intn(13),
			BackgroundTags: 3 + r.Intn(8),
			WithinZipfS:    0.6 + r.Float64()*0.8,
		})
		if err != nil {
			return nil, err
		}
		kind := Kinds[r.Intn(len(Kinds))]
		ds.Resources = append(ds.Resources, Resource{
			ID:         fmt.Sprintf("r%04d", i),
			Kind:       kind,
			Name:       fmt.Sprintf("%s-%04d", kind, i),
			Topic:      topic,
			Popularity: zipf.Prob(ranks[i]),
			Latent:     latent,
		})
	}
	return &World{Dataset: ds, Vocab: voc}, nil
}

// Stats summarizes a dataset for reports.
type Stats struct {
	NumResources   int
	NumPosts       int
	DistinctTags   int
	PostsPerRes    Summary
	TagsPerPost    Summary
	PopularityGini float64
}

// Summary holds basic descriptive statistics.
type Summary struct {
	Min, Max, Mean, Median float64
}

// Summarize computes dataset statistics.
func Summarize(d *Dataset) Stats {
	s := Stats{NumResources: len(d.Resources), NumPosts: len(d.Posts)}
	counts := PostCounts(d.Posts)
	perRes := make([]float64, 0, len(d.Resources))
	for _, r := range d.Resources {
		perRes = append(perRes, float64(counts[r.ID]))
	}
	s.PostsPerRes = summarize(perRes)
	tagSet := make(map[string]struct{})
	tagsPerPost := make([]float64, 0, len(d.Posts))
	for _, p := range d.Posts {
		tagsPerPost = append(tagsPerPost, float64(len(p.Tags)))
		for _, t := range p.Tags {
			tagSet[rfd.Normalize(t)] = struct{}{}
		}
	}
	s.TagsPerPost = summarize(tagsPerPost)
	s.DistinctTags = len(tagSet)
	s.PopularityGini = Gini(perRes)
	return s
}

func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	var sum float64
	for _, x := range cp {
		sum += x
	}
	med := cp[len(cp)/2]
	if len(cp)%2 == 0 {
		med = (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
	}
	return Summary{Min: cp[0], Max: cp[len(cp)-1], Mean: sum / float64(len(cp)), Median: med}
}

// Gini computes the Gini coefficient of a non-negative slice in [0, 1);
// higher means more concentrated (FC's popularity skew shows up here).
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	sort.Float64s(cp)
	var cum, total float64
	for i, x := range cp {
		cum += x * float64(i+1)
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}
