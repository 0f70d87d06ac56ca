package rfd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The parity suites that hold ICounts, IHistory and Ref to the map-path
// oracle live in internal/quality (parity_test.go, oracle_test.go); the
// tests here pin the interned types' own contracts.

// testInterner is a minimal Interner for package-local tests (the real one
// lives in vocab, which imports rfd).
type testInterner struct {
	ids  map[string]uint32
	tags []string
}

func newTestInterner() *testInterner {
	return &testInterner{ids: make(map[string]uint32)}
}

func (in *testInterner) ID(tag string) uint32 {
	if id, ok := in.ids[tag]; ok {
		return id
	}
	id := uint32(len(in.tags))
	in.ids[tag] = id
	in.tags = append(in.tags, tag)
	return id
}

func (in *testInterner) Lookup(tag string) (uint32, bool) {
	id, ok := in.ids[tag]
	return id, ok
}

func (in *testInterner) Tag(id uint32) string {
	if int(id) >= len(in.tags) {
		return ""
	}
	return in.tags[id]
}

func (in *testInterner) Len() int { return len(in.tags) }

func newCounts() *ICounts { return NewICounts(newTestInterner()) }

// distOf materializes c's rfd from TopK, the boundary the interned types
// export tag strings through.
func distOf(c *ICounts) Dist {
	d := make(Dist, c.Distinct())
	for _, tf := range c.TopK(c.Distinct()) {
		d[tf.Tag] = tf.Freq
	}
	return d
}

func TestAddPostRejectsEmpty(t *testing.T) {
	c := newCounts()
	if err := c.AddPost(nil); err == nil {
		t.Error("empty post must be rejected")
	}
	if err := c.AddPost([]string{"  ", ""}); err == nil {
		t.Error("whitespace-only post must be rejected")
	}
	if c.Posts() != 0 {
		t.Errorf("rejected posts must not count, got %d", c.Posts())
	}
}

func TestAddPostDeduplicatesWithinPost(t *testing.T) {
	c := newCounts()
	if err := c.AddPost([]string{"go", "GO", " go "}); err != nil {
		t.Fatal(err)
	}
	if c.Count("go") != 1 {
		t.Errorf("duplicate tags within a post must count once, got %d", c.Count("go"))
	}
	if c.Posts() != 1 || c.Total() != 1 || c.Distinct() != 1 {
		t.Errorf("posts=%d total=%d distinct=%d", c.Posts(), c.Total(), c.Distinct())
	}
}

func TestCountsAccumulation(t *testing.T) {
	c := newCounts()
	mustAdd(t, c, "db", "go")
	mustAdd(t, c, "db")
	mustAdd(t, c, "db", "sql")
	if c.Posts() != 3 || c.Total() != 5 {
		t.Fatalf("posts=%d total=%d", c.Posts(), c.Total())
	}
	d := distOf(c)
	if math.Abs(d["db"]-0.6) > 1e-12 || math.Abs(d["go"]-0.2) > 1e-12 || math.Abs(d["sql"]-0.2) > 1e-12 {
		t.Errorf("dist = %v", d)
	}
	if c.NormSq() != 9+1+1 {
		t.Errorf("NormSq = %v, want Σ n² = 11", c.NormSq())
	}
}

// TestDistIsCopy: Normalized returns a new Dist, so writing to either side
// leaves the other alone.
func TestDistIsCopy(t *testing.T) {
	d := Dist{"a": 2}
	n := Normalized(d)
	n["a"] = 99
	if d["a"] != 2 {
		t.Errorf("mutating the normalized dist affected its input: %v", d["a"])
	}
	d["a"] = 7
	if n["a"] != 99 {
		t.Errorf("mutating the input affected the normalized dist: %v", n["a"])
	}
}

func TestTopKOrderingAndTies(t *testing.T) {
	c := newCounts()
	mustAdd(t, c, "b", "a")
	mustAdd(t, c, "b", "c")
	got := c.TopK(3)
	if len(got) != 3 {
		t.Fatalf("got %d entries", len(got))
	}
	if got[0].Tag != "b" || got[0].Count != 2 {
		t.Errorf("top entry = %+v", got[0])
	}
	// a and c tie at 1; lexicographic order.
	if got[1].Tag != "a" || got[2].Tag != "c" {
		t.Errorf("tie order: %v, %v", got[1], got[2])
	}
	if math.Abs(got[0].Freq-0.5) > 1e-12 {
		t.Errorf("freq = %v", got[0].Freq)
	}
	if n := len(c.TopK(1)); n != 1 {
		t.Errorf("TopK(1) returned %d", n)
	}
}

func TestClone(t *testing.T) {
	c := newCounts()
	mustAdd(t, c, "x", "y")
	cl := c.Clone()
	mustAdd(t, cl, "z")
	mustAdd(t, cl, "x")
	if c.Posts() != 1 || cl.Posts() != 3 {
		t.Error("clone must be independent")
	}
	if !reflect.DeepEqual(distOf(c), Dist{"x": 0.5, "y": 0.5}) || c.NormSq() != 2 {
		t.Errorf("original mutated: %v, NormSq %v", distOf(c), c.NormSq())
	}
}

func TestICountsErrorsMatchCounts(t *testing.T) {
	ic := newCounts()
	if err := ic.AddPost(nil); err == nil {
		t.Error("empty post must error")
	}
	if err := ic.AddPost([]string{"  ", ""}); err == nil {
		t.Error("all-blank post must error")
	}
	if ic.Posts() != 0 || ic.Total() != 0 {
		t.Errorf("failed posts must not count: posts=%d total=%d", ic.Posts(), ic.Total())
	}
	if err := ic.AddPost([]string{"x", "X", " x "}); err != nil {
		t.Fatal(err)
	}
	if ic.Total() != 1 {
		t.Errorf("in-post duplicates must collapse: total=%d", ic.Total())
	}
}

func TestICountsCloneIsIndependent(t *testing.T) {
	ic := newCounts()
	if err := ic.AddPost([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	cl := ic.Clone()
	if err := cl.AddPost([]string{"z"}); err != nil {
		t.Fatal(err)
	}
	if ic.Distinct() != 2 || cl.Distinct() != 3 {
		t.Errorf("clone not independent: %d vs %d", ic.Distinct(), cl.Distinct())
	}
	if ic.Posts() != 1 || cl.Posts() != 2 {
		t.Errorf("posts: %d vs %d", ic.Posts(), cl.Posts())
	}
}

// TestHistorySnapshots reads the window snapshot through the cosine: with
// W = 2 over posts a, b, b the comparison is against {a} at every step,
// cur = {a:1, b:1} after two posts and {a:1, b:2} after three.
func TestHistorySnapshots(t *testing.T) {
	h := NewIHistory(newTestInterner(), 2)
	for i, c := range []struct {
		tag  string
		want float64
	}{{"a", 0}, {"b", 1 / math.Sqrt2}, {"b", 1 / math.Sqrt(5)}} {
		mustAddH(t, h, c.tag)
		if got := h.WindowCosine(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("post %d: cosine = %v, want %v", i+1, got, c.want)
		}
	}
}

// TestHistoryRingEviction wraps the W+1 ring: with W = 2 over a, a, a, b, b
// the fifth post compares {a:3, b:2} with the rfd after the third, {a:3}.
func TestHistoryRingEviction(t *testing.T) {
	h := NewIHistory(newTestInterner(), 2)
	for _, tag := range []string{"a", "a", "a", "b", "b"} {
		mustAddH(t, h, tag)
	}
	if got, want := h.WindowCosine(), 3/math.Sqrt(13); math.Abs(got-want) > 1e-12 {
		t.Errorf("cosine = %v, want %v", got, want)
	}
	for i := 0; i < 10; i++ {
		mustAddH(t, h, "t")
	}
	if got := h.WindowCosine(); got <= 0 || got >= 1 {
		t.Errorf("cosine after wrapping = %v, want in (0, 1)", got)
	}
	if h.Posts() != 15 {
		t.Errorf("posts = %d", h.Posts())
	}
}

func TestHistoryEmptyCurrent(t *testing.T) {
	h := NewIHistory(newTestInterner(), 1)
	if h.Posts() != 0 || h.Counts().Total() != 0 {
		t.Errorf("empty history: posts=%d total=%d", h.Posts(), h.Counts().Total())
	}
	if got := h.WindowCosine(); got != 0 {
		t.Errorf("cosine before any post = %v, want 0", got)
	}
}

// counts builds an accumulator from posts of single tags.
func counts(t *testing.T, tags ...string) *ICounts {
	t.Helper()
	c := newCounts()
	for _, tag := range tags {
		mustAdd(t, c, tag)
	}
	return c
}

func TestCosineBasics(t *testing.T) {
	a := counts(t, "x", "y")
	if got := NewRef(a, Dist{"x": 0.5, "y": 0.5}).Cosine(); math.Abs(got-1) > 1e-12 {
		t.Errorf("self-similarity = %v", got)
	}
	if got := NewRef(a, Dist{"z": 1}).Cosine(); got != 0 {
		t.Errorf("disjoint similarity = %v", got)
	}
	if got := NewRef(a, Dist{}).Cosine(); got != 0 {
		t.Errorf("empty reference similarity = %v", got)
	}
	if got := NewRef(newCounts(), Dist{"x": 1}).Cosine(); got != 0 {
		t.Errorf("empty accumulator similarity = %v", got)
	}
}

func TestSupportSumNormalized(t *testing.T) {
	d := Dist{"a": 2, "b": 2, "c": 0}
	n := Normalized(d)
	if math.Abs(Sum(n)-1) > 1e-12 || n["a"] != 0.5 || n["c"] != 0 {
		t.Errorf("normalized = %v (sum %v)", n, Sum(n))
	}
	if len(Normalized(Dist{})) != 0 {
		t.Error("normalizing empty must stay empty")
	}
}

func TestNormalizeTag(t *testing.T) {
	if Normalize("  GoLang ") != "golang" {
		t.Error("normalize failed")
	}
}

func TestRefBothEmpty(t *testing.T) {
	if NewRef(newCounts(), Dist{}).Cosine() != 0 {
		t.Error("empty counts against an empty ref must have cosine 0")
	}
}

// --- property tests ----------------------------------------------------------

// randomCounts posts each of up to maxTags tags a random 1..20 times.
func randomCounts(tb testing.TB, r *rand.Rand, maxTags int) *ICounts {
	tb.Helper()
	c := newCounts()
	letters := "abcdefghijklmnopqrstuvwxyz"
	for i := r.Intn(maxTags); i >= 0; i-- {
		tag := string(letters[i%len(letters)]) + string(letters[(i/len(letters))%len(letters)])
		for n := 1 + r.Intn(20); n > 0; n-- {
			mustAdd(tb, c, tag)
		}
	}
	return c
}

// TestPropertyDistanceAxioms checks Ref's cosine between random rfds: its
// range, and symmetry (a against b's rfd equals b against a's).
func TestPropertyDistanceAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		a, b := randomCounts(t, r, 12), randomCounts(t, r, 12)
		ab, ba := NewRef(a, distOf(b)), NewRef(b, distOf(a))
		if got := ab.Cosine(); got < 0 || got > 1 {
			t.Fatalf("cosine out of range: %v", got)
		}
		if math.Abs(ab.Cosine()-ba.Cosine()) > 1e-12 {
			t.Fatal("cosine must be symmetric")
		}
	}
}

func TestPropertyDistAlwaysNormalized(t *testing.T) {
	f := func(posts [][3]uint8) bool {
		c := newCounts()
		added := 0
		tags := []string{"a", "b", "c", "d", "e", "f", "g"}
		for _, p := range posts {
			set := []string{tags[int(p[0])%len(tags)], tags[int(p[1])%len(tags)], tags[int(p[2])%len(tags)]}
			if err := c.AddPost(set); err == nil {
				added++
			}
		}
		if added == 0 {
			return len(distOf(c)) == 0
		}
		return math.Abs(Sum(distOf(c))-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHistoryCurrentMatchesCounts: an IHistory's current rfd is an
// ICounts fed the same stream, and its window cosine is a Ref's cosine of
// that rfd against the rfd of the stream min(posts−1, W) posts shorter.
func TestPropertyHistoryCurrentMatchesCounts(t *testing.T) {
	const window = 8
	r := rand.New(rand.NewSource(13))
	in := newTestInterner()
	h := NewIHistory(in, window)
	c := NewICounts(in)
	tags := []string{"w", "x", "y", "z"}
	var posts [][]string
	for i := 0; i < 200; i++ {
		k := r.Intn(3) + 1
		post := make([]string, 0, k)
		for j := 0; j < k; j++ {
			post = append(post, tags[r.Intn(len(tags))])
		}
		posts = append(posts, post)
		mustAddH(t, h, post...)
		mustAdd(t, c, post...)
		if !reflect.DeepEqual(h.Counts().TopK(len(tags)), c.TopK(len(tags))) || h.Counts().NormSq() != c.NormSq() {
			t.Fatalf("step %d: history current diverged from counts", i)
		}
		if len(posts) < 2 {
			continue
		}
		prev := NewICounts(in)
		for _, p := range posts[:len(posts)-min(len(posts)-1, window)] {
			mustAdd(t, prev, p...)
		}
		if got, want := h.WindowCosine(), NewRef(c, distOf(prev)).Cosine(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("step %d: window cosine = %v, Ref cosine %v", i, got, want)
		}
	}
}

func mustAdd(tb testing.TB, c *ICounts, tags ...string) {
	tb.Helper()
	if err := c.AddPost(tags); err != nil {
		tb.Fatal(err)
	}
}

func mustAddH(t *testing.T, h *IHistory, tags ...string) {
	t.Helper()
	if err := h.AddPost(tags); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddPost(b *testing.B) {
	c := newCounts()
	post := []string{"database", "go", "systems", "tagging"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.AddPost(post)
	}
}

func BenchmarkCosine(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ref := NewRef(randomCounts(b, r, 50), distOf(randomCounts(b, r, 50)))
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s = ref.Cosine()
	}
	_ = s
}
