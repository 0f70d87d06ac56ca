package vocab

import (
	"math"
	"testing"

	"itag/internal/rfd"
	"itag/internal/rng"
)

func TestGenerateDefaults(t *testing.T) {
	r := rng.New(1)
	v := Generate(r)
	if len(v.Background) != 60 {
		t.Errorf("background size = %d", len(v.Background))
	}
	if v.NumTopics() != 12 {
		t.Errorf("topics = %d", v.NumTopics())
	}
	for i, topic := range v.Topics {
		if len(topic) != 40 {
			t.Errorf("topic %d size = %d", i, len(topic))
		}
	}
	want := 60 + 12*40
	if len(v.All) != want {
		t.Errorf("all tags = %d, want %d (must be unique)", len(v.All), want)
	}
}

func TestGenerateUniqueTags(t *testing.T) {
	r := rng.New(2)
	v := Generate(r)
	seen := make(map[string]struct{})
	check := func(tags []string) {
		for _, tag := range tags {
			if tag == "" {
				t.Fatal("empty tag generated")
			}
			if _, dup := seen[tag]; dup {
				t.Fatalf("duplicate tag %q across pools", tag)
			}
			seen[tag] = struct{}{}
		}
	}
	check(v.Background)
	for _, topic := range v.Topics {
		check(topic)
	}
}

func TestLatentDistributionProperties(t *testing.T) {
	r := rng.New(4)
	v := Generate(r)
	d, err := v.Latent(r, 0, LatentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rfd.Sum(d)-1) > 1e-9 {
		t.Errorf("latent sums to %v", rfd.Sum(d))
	}
	// Default: 5 core + 8 topic + 6 background = up to 19 distinct tags
	// (overlap between topic and background picks impossible by pool
	// disjointness; core tags are fresh).
	if got := len(d); got < 15 || got > 19 {
		t.Errorf("latent support = %d, want ~19", got)
	}
	for tag, w := range d {
		if w <= 0 {
			t.Errorf("tag %q has non-positive mass %v", tag, w)
		}
	}
}

func TestLatentTopicOutOfRange(t *testing.T) {
	r := rng.New(5)
	v := Generate(r)
	if _, err := v.Latent(r, v.NumTopics(), LatentConfig{}); err == nil {
		t.Error("topic out of range must fail")
	}
	if _, err := v.Latent(r, -1, LatentConfig{}); err == nil {
		t.Error("negative topic must fail")
	}
}

func TestLatentResourcesShareTopicTags(t *testing.T) {
	r := rng.New(6)
	v := Generate(r)
	// More than half the topic each: the two picks must overlap.
	n := len(v.Topics[0])/2 + 1
	a, _ := v.Latent(r, 0, LatentConfig{TopicTags: n})
	b, _ := v.Latent(r, 0, LatentConfig{TopicTags: n})
	topicSet := make(map[string]struct{})
	for _, tag := range v.Topics[0] {
		topicSet[tag] = struct{}{}
	}
	shared := 0
	for tag := range a {
		if _, inTopic := topicSet[tag]; !inTopic {
			continue
		}
		if _, inB := b[tag]; inB {
			shared++
		}
	}
	if shared == 0 {
		t.Error("same-topic resources should share topic tags")
	}
}

func TestLatentMixtureMassSplit(t *testing.T) {
	r := rng.New(7)
	v := Generate(r)
	d, err := v.Latent(r, 1, LatentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Core tags carry the "-NNNN" suffix; measure their mass.
	var coreMass float64
	for tag, w := range d {
		if hasCoreSuffix(tag) {
			coreMass += w
		}
	}
	if math.Abs(coreMass-0.5) > 1e-9 {
		t.Errorf("core mass = %v, want 0.5", coreMass)
	}
}

func hasCoreSuffix(tag string) bool {
	for i := len(tag) - 1; i >= 0; i-- {
		if tag[i] == '-' {
			return i < len(tag)-1
		}
		if tag[i] < '0' || tag[i] > '9' {
			return false
		}
	}
	return false
}

func TestTypoAlwaysDiffers(t *testing.T) {
	r := rng.New(8)
	for i := 0; i < 2000; i++ {
		tag := "database"
		if got := Typo(r, tag); got == tag {
			t.Fatalf("typo produced unchanged tag at iteration %d", i)
		}
	}
	if got := Typo(r, "a"); got == "a" || len(got) < 2 {
		t.Errorf("short tag typo = %q", got)
	}
	if got := Typo(r, ""); len(got) == 0 {
		t.Error("empty tag typo must be nonempty")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	v1 := Generate(rng.New(99))
	v2 := Generate(rng.New(99))
	if len(v1.Background) != len(v2.Background) {
		t.Fatal("sizes differ")
	}
	for i := range v1.Background {
		if v1.Background[i] != v2.Background[i] {
			t.Fatal("same seed must reproduce vocabulary")
		}
	}
}
