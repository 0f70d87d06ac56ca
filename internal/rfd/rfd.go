// Package rfd implements tag relative-frequency distributions (rfds), the
// statistical object at the center of the iTag quality model (paper §II).
//
// A resource's rfd after k posts is the distribution of tag occurrences over
// the first k posts, normalized to sum 1. The iTag quality metric q_i(k) is
// defined on the *stability* of these distributions as posts accumulate
// (Golder & Huberman observed that rfds of well-tagged resources converge).
// This package provides the interned count vector (ICounts), its copy-free
// snapshot history (IHistory) and a reference distribution bound to one
// accumulator (Ref), with the distances the quality package maps to [0, 1].
package rfd

import "strings"

// Dist is a relative frequency distribution over tags: non-negative weights
// normalized to sum 1 (or an all-zero map for the empty distribution). It is
// the form a latent reference distribution takes (see Ref).
type Dist map[string]float64

// TagFreq pairs a tag with its count and relative frequency.
type TagFreq struct {
	Tag   string
	Count int
	Freq  float64
}

// Normalize canonicalizes a tag: lowercase, trimmed. Tags are free text from
// taggers; normalization is the only cleaning iTag applies before counting
// (quality emerges from the statistics, not from tag-level filtering).
func Normalize(tag string) string {
	return strings.ToLower(strings.TrimSpace(tag))
}

// DefaultHistoryDepth is how many trailing snapshots IHistory retains; it
// bounds the stability window W any quality metric may request.
const DefaultHistoryDepth = 64

// Sum returns the total mass (≈1 for a proper rfd, 0 for empty).
func Sum(a Dist) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// Normalized returns a copy of a scaled to sum 1 (empty stays empty).
func Normalized(a Dist) Dist {
	s := Sum(a)
	out := make(Dist, len(a))
	if s <= 0 {
		return out
	}
	for t, v := range a {
		out[t] = v / s
	}
	return out
}
