// Package vocab generates synthetic tag vocabularies and per-resource latent
// tag distributions for the iTag simulation substrate.
//
// The real iTag demo replayed a Delicious 2010 crawl we do not have. What
// the strategies interact with is the statistical structure of tagging, not
// the tag strings themselves, so this package reproduces the structure
// reported for such traces (and assumed by the paper's model):
//
//   - a global vocabulary with a heavy-tailed usage prior (generic tags such
//     as "web" or "toread" appear on many resources),
//   - topical clusters: resources in the same topic share a topic vocabulary,
//   - per-resource core tags: a few tags specific to the resource,
//   - the latent ("true") distribution of a resource is a mixture of core,
//     topic, and background components — the distribution rfds converge to
//     when enough honest posts accumulate.
//
// Tags are pronounceable synthetic words so exports and debugging output
// remain readable.
package vocab

import (
	"fmt"
	"math"
	"math/rand"

	"itag/internal/rfd"
	"itag/internal/rng"
)

// Vocabulary holds the generated tag universe and its structure.
type Vocabulary struct {
	// Background tags, shared across all resources (heavy tail).
	Background []string
	// Topics[i] is the tag list of topic i.
	Topics [][]string
	// All is the union of all tags, deduplicated.
	All []string

	backgroundDist *rng.Zipf
}

// The shape of every generated vocabulary.
const (
	backgroundSize  = 60   // generic tags shared by all resources
	numTopics       = 12   // topical clusters
	topicSize       = 40   // tags per topic
	backgroundZipfS = 1.05 // exponent of the background usage prior
)

// Generate builds a vocabulary deterministically from the rand source.
func Generate(r *rand.Rand) (*Vocabulary, error) {
	gen := newWordGen(r)
	v := &Vocabulary{}
	seen := make(map[string]struct{})
	fresh := func() string {
		for {
			w := gen.word()
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				v.All = append(v.All, w) // insertion order keeps generation deterministic
				return w
			}
		}
	}
	for i := 0; i < backgroundSize; i++ {
		v.Background = append(v.Background, fresh())
	}
	for t := 0; t < numTopics; t++ {
		topic := make([]string, 0, topicSize)
		for i := 0; i < topicSize; i++ {
			topic = append(topic, fresh())
		}
		v.Topics = append(v.Topics, topic)
	}
	z, err := rng.NewZipf(backgroundSize, backgroundZipfS)
	if err != nil {
		return nil, fmt.Errorf("vocab: %w", err)
	}
	v.backgroundDist = z
	return v, nil
}

// SampleBackground draws one background tag under the heavy-tailed prior.
func (v *Vocabulary) SampleBackground(r *rand.Rand) string {
	return v.Background[v.backgroundDist.Sample(r)]
}

// RandomTag draws a uniform tag from the whole universe (noise model).
func (v *Vocabulary) RandomTag(r *rand.Rand) string {
	return v.All[r.Intn(len(v.All))]
}

// NumTopics returns the number of topics.
func (v *Vocabulary) NumTopics() int { return len(v.Topics) }

// LatentConfig parameterizes a resource's latent tag distribution.
type LatentConfig struct {
	// CoreTags is how many resource-specific tags to mint (default 5).
	CoreTags int
	// TopicTags is how many topic tags the resource uses (default 8).
	TopicTags int
	// BackgroundTags is how many background tags it uses (default 6).
	BackgroundTags int
	// WithinZipfS shapes the within-component rank distribution
	// (default 1.0).
	WithinZipfS float64
}

// The mixture weights of a latent distribution's core, topic and background
// components; they sum to 1.
const (
	coreMass       = 0.5
	topicMass      = 0.3
	backgroundMass = 0.2
)

func (c LatentConfig) withDefaults() LatentConfig {
	if c.CoreTags <= 0 {
		c.CoreTags = 5
	}
	if c.TopicTags <= 0 {
		c.TopicTags = 8
	}
	if c.BackgroundTags <= 0 {
		c.BackgroundTags = 6
	}
	if c.WithinZipfS <= 0 {
		c.WithinZipfS = 1.0
	}
	return c
}

// Latent builds a resource's latent tag distribution in topic `topic`.
// Core tags are freshly minted words (resource-specific), so two resources
// never share core tags; topic and background tags come from the shared
// pools. The result sums to 1.
func (v *Vocabulary) Latent(r *rand.Rand, topic int, cfg LatentConfig) (rfd.Dist, error) {
	cfg = cfg.withDefaults()
	if topic < 0 || topic >= len(v.Topics) {
		return nil, fmt.Errorf("vocab: topic %d out of range [0,%d)", topic, len(v.Topics))
	}
	dist := make(rfd.Dist)
	gen := newWordGen(r)

	add := func(tags []string, mass float64) {
		if len(tags) == 0 || mass <= 0 {
			return
		}
		// Zipfian mass within the component, in the given order.
		weights := make([]float64, len(tags))
		var sum float64
		for i := range tags {
			weights[i] = 1.0 / math.Pow(float64(i+1), cfg.WithinZipfS)
			sum += weights[i]
		}
		for i, t := range tags {
			dist[t] += mass * weights[i] / sum
		}
	}

	core := make([]string, 0, cfg.CoreTags)
	for i := 0; i < cfg.CoreTags; i++ {
		core = append(core, gen.word()+fmt.Sprintf("-%d", r.Intn(10000)))
	}
	topicTags := pickDistinct(r, v.Topics[topic], cfg.TopicTags)
	bgTags := pickDistinct(r, v.Background, cfg.BackgroundTags)

	add(core, coreMass)
	add(topicTags, topicMass)
	add(bgTags, backgroundMass)
	return rfd.Normalized(dist), nil
}

func pickDistinct(r *rand.Rand, pool []string, k int) []string {
	idx := rng.SampleWithoutReplacement(r, len(pool), k)
	out := make([]string, 0, len(idx))
	for _, i := range idx {
		out = append(out, pool[i])
	}
	return out
}

// Typo returns a plausible misspelling of a tag: one random substitution,
// deletion, insertion, or transposition. Tags of length <2 get a suffix.
// This is the "noisy" tag defect from paper §I.
func Typo(r *rand.Rand, tag string) string {
	b := []byte(tag)
	if len(b) < 2 {
		return tag + string(randLetter(r))
	}
	switch r.Intn(4) {
	case 0: // substitute
		i := r.Intn(len(b))
		b[i] = randLetter(r)
	case 1: // delete
		i := r.Intn(len(b))
		b = append(b[:i], b[i+1:]...)
	case 2: // insert
		i := r.Intn(len(b) + 1)
		b = append(b[:i], append([]byte{randLetter(r)}, b[i:]...)...)
	default: // transpose
		i := r.Intn(len(b) - 1)
		b[i], b[i+1] = b[i+1], b[i]
	}
	out := string(b)
	if out == tag {
		return tag + string(randLetter(r))
	}
	return out
}

func randLetter(r *rand.Rand) byte {
	return byte('a' + r.Intn(26))
}

// wordGen emits pronounceable synthetic words (consonant-vowel syllables).
type wordGen struct {
	r *rand.Rand
}

func newWordGen(r *rand.Rand) *wordGen { return &wordGen{r: r} }

var (
	consonants = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "ch", "sh", "st", "tr"}
	vowels     = []string{"a", "e", "i", "o", "u", "ai", "ou", "ea"}
)

func (g *wordGen) word() string {
	n := 2 + g.r.Intn(2) // 2-3 syllables
	out := ""
	for i := 0; i < n; i++ {
		out += consonants[g.r.Intn(len(consonants))] + vowels[g.r.Intn(len(vowels))]
	}
	return out
}
