package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// The op stream is generated from --seed before any clock starts; the
// program under test only ever receives the generated requests. The
// generator is the harness's own (no import from the repository) so that a
// change to the repository's rng cannot change the benchmark's inputs.

const (
	vocabSize   = 5000
	tagsPerPost = 3
	zipfS       = 1.1
	numTaggers  = 64
	exportLimit = 50
	viewDetails = 2 // GetResource calls per view
)

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting the CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// vocabulary is the same 5 000 pseudo-words for every seed (the seed picks
// which are drawn, not what they are): 2–4 syllables, so tag lengths vary
// the way real tags do and WAL bytes per post are not a constant.
var vocabulary = sync.OnceValue(func() []string {
	r := rand.New(rand.NewSource(20140331)) // fixed: ICDE 2014
	onsets := []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "ch", "st", "tr"}
	nuclei := []string{"a", "e", "i", "o", "u", "ai", "ou", "ee"}
	seen := make(map[string]bool, vocabSize)
	words := make([]string, 0, vocabSize)
	for len(words) < vocabSize {
		w := ""
		for s := 2 + r.Intn(3); s > 0; s-- {
			w += onsets[r.Intn(len(onsets))] + nuclei[r.Intn(len(nuclei))]
		}
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	return words
})

// postOp is one tagger's post: who tags and with which vocabulary ranks.
// The resource is chosen server-side by the project's strategy.
type postOp struct {
	Tagger uint16
	Tags   [tagsPerPost]uint16
}

// viewOp is one dashboard refresh: an export page and two resource details.
type viewOp struct {
	Page      uint16
	Resources [viewDetails]uint16
}

// round is the timed unit. Which fields are populated depends on the
// workload: Posts has batchItems entries on batch_engine.
type round struct {
	Project uint8
	Views   []viewOp
	Posts   []postOp
}

type opStream struct {
	vocab  []string
	rounds []round
}

// generate builds n rounds of the workload's shape from seed.
func generate(w workloadDef, seed int64, n int) *opStream {
	r := rand.New(rand.NewSource(seed))
	tagZ := newZipf(vocabSize, zipfS)
	resZ := newZipf(w.resources, zipfS)
	pages := (w.resources + exportLimit - 1) / exportLimit
	pageZ := newZipf(pages, zipfS)
	posts := w.postsPerRound
	if w.batchItems > 0 {
		posts = w.batchItems
	}
	s := &opStream{vocab: vocabulary(), rounds: make([]round, n)}
	for i := range s.rounds {
		rd := &s.rounds[i]
		rd.Project = uint8(r.Intn(w.projects))
		rd.Views = make([]viewOp, w.viewsPerRound)
		for v := range rd.Views {
			rd.Views[v].Page = uint16(pageZ.sample(r))
			for d := range rd.Views[v].Resources {
				rd.Views[v].Resources[d] = uint16(resZ.sample(r))
			}
		}
		rd.Posts = make([]postOp, posts)
		for p := range rd.Posts {
			rd.Posts[p].Tagger = uint16(r.Intn(numTaggers))
			rd.Posts[p].Tags = drawTags(r, tagZ)
		}
	}
	return s
}

// drawTags draws one post's distinct tag ranks.
func drawTags(r *rand.Rand, z *zipf) (tags [tagsPerPost]uint16) {
	for t := 0; t < tagsPerPost; {
		tag := uint16(z.sample(r))
		dup := false
		for _, prev := range tags[:t] {
			dup = dup || prev == tag
		}
		if !dup {
			tags[t] = tag
			t++
		}
	}
	return tags
}

func (s *opStream) tags(p postOp) []string {
	out := make([]string, tagsPerPost)
	for i, t := range p.Tags {
		out[i] = s.vocab[t]
	}
	return out
}

// digest hashes the stream's canonical byte encoding; the self-test pins
// "same seed, same bytes".
func (s *opStream) digest() uint64 {
	h := fnv.New64a()
	var b [2]byte
	put := func(v uint16) {
		binary.LittleEndian.PutUint16(b[:], v)
		h.Write(b[:])
	}
	for _, rd := range s.rounds {
		put(uint16(rd.Project))
		for _, v := range rd.Views {
			put(v.Page)
			for _, x := range v.Resources {
				put(x)
			}
		}
		for _, p := range rd.Posts {
			put(p.Tagger)
			for _, t := range p.Tags {
				put(t)
			}
		}
	}
	return h.Sum64()
}
