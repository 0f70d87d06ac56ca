package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"itag/internal/rng"
)

func testWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := Generate(rng.New(1), GeneratorConfig{NumResources: n})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateBasics(t *testing.T) {
	w := testWorld(t, 50)
	d := w.Dataset
	if len(d.Resources) != 50 {
		t.Fatalf("resources = %d", len(d.Resources))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var popSum float64
	for _, r := range d.Resources {
		if r.ID == "" || r.Name == "" {
			t.Error("empty ID/name")
		}
		if len(r.Latent) == 0 {
			t.Errorf("resource %s has empty latent", r.ID)
		}
		if r.Popularity <= 0 {
			t.Errorf("resource %s popularity = %v", r.ID, r.Popularity)
		}
		popSum += r.Popularity
	}
	if math.Abs(popSum-1) > 1e-6 {
		t.Errorf("popularity sums to %v, want 1 (a Zipf pmf)", popSum)
	}
}

func TestGeneratePopularitySkew(t *testing.T) {
	w := testWorld(t, 200)
	pops := make([]float64, 0, 200)
	for _, r := range w.Dataset.Resources {
		pops = append(pops, r.Popularity)
	}
	g := Gini(pops)
	if g < 0.5 {
		t.Errorf("popularity Gini = %v; expected heavy skew (>0.5) under Zipf 1.1", g)
	}
}

// TestGenerateDrawsEveryKind: kinds are drawn uniformly, so a few hundred
// resources cover every kind.
func TestGenerateDrawsEveryKind(t *testing.T) {
	w, err := Generate(rng.New(2), GeneratorConfig{NumResources: 300})
	if err != nil {
		t.Fatal(err)
	}
	byKind := make(map[Kind]int)
	for _, r := range w.Dataset.Resources {
		byKind[r.Kind]++
	}
	for _, k := range Kinds {
		if byKind[k] < 30 {
			t.Errorf("%d of 300 resources are %s, want about 60", byKind[k], k)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	good := &Dataset{
		Resources: []Resource{{ID: "a"}, {ID: "b"}},
		Posts: []Post{
			{ResourceID: "a", Tags: []string{"x"}, Time: base},
			{ResourceID: "b", Tags: []string{"y"}, Time: base.Add(time.Hour)},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"dup-id", func(d *Dataset) { d.Resources[1].ID = "a" }},
		{"empty-id", func(d *Dataset) { d.Resources[0].ID = "" }},
		{"unknown-resource", func(d *Dataset) { d.Posts[0].ResourceID = "zzz" }},
		{"empty-tags", func(d *Dataset) { d.Posts[0].Tags = nil }},
		{"time-disorder", func(d *Dataset) { d.Posts[1].Time = base.Add(-time.Hour) }},
	}
	for _, tc := range cases {
		d := &Dataset{
			Resources: append([]Resource(nil), good.Resources...),
			Posts:     append([]Post(nil), good.Posts...),
		}
		// Deep copy tags so mutation is isolated.
		for i := range d.Posts {
			d.Posts[i].Tags = append([]string(nil), good.Posts[i].Tags...)
		}
		tc.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: corruption not caught", tc.name)
		}
	}
}

func TestSplitFraction(t *testing.T) {
	d := &Dataset{Resources: []Resource{{ID: "a"}}}
	base := time.Now().UTC()
	for i := 0; i < 10; i++ {
		d.Posts = append(d.Posts, Post{ResourceID: "a", Tags: []string{"t"}, Time: base.Add(time.Duration(i) * time.Second)})
	}
	seed, eval := d.SplitFraction(0.3)
	if len(seed) != 3 || len(eval) != 7 {
		t.Errorf("split = %d/%d", len(seed), len(eval))
	}
	if s, e := d.SplitFraction(-1); len(s) != 0 || len(e) != 10 {
		t.Error("frac<0 must clamp to 0")
	}
	if s, e := d.SplitFraction(2); len(s) != 10 || len(e) != 0 {
		t.Error("frac>1 must clamp to 1")
	}
}

func TestPostCountsAndIndex(t *testing.T) {
	d := &Dataset{
		Resources: []Resource{{ID: "a"}, {ID: "b"}},
		Posts: []Post{
			{ResourceID: "a", Tags: []string{"x"}},
			{ResourceID: "a", Tags: []string{"y"}},
			{ResourceID: "b", Tags: []string{"z"}},
		},
	}
	counts := PostCounts(d.Posts)
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	idx := d.Index()
	if idx["a"] != 0 || idx["b"] != 1 {
		t.Errorf("index = %v", idx)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	w := testWorld(t, 10)
	base := time.Date(2006, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 25; i++ {
		w.Dataset.Posts = append(w.Dataset.Posts, Post{
			ResourceID: w.Dataset.Resources[i%10].ID,
			TaggerID:   "t1",
			Tags:       []string{"alpha", "beta"},
			Time:       base.Add(time.Duration(i) * time.Minute),
		})
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, w.Dataset); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Resources) != 10 || len(got.Posts) != 25 {
		t.Fatalf("round trip sizes: %d res, %d posts", len(got.Resources), len(got.Posts))
	}
	if !reflect.DeepEqual(got.Posts[3].Tags, w.Dataset.Posts[3].Tags) {
		t.Error("post tags corrupted")
	}
	if !got.Posts[3].Time.Equal(w.Dataset.Posts[3].Time) {
		t.Error("post time corrupted")
	}
	if !reflect.DeepEqual(got.Resources[2].Latent, w.Dataset.Resources[2].Latent) {
		t.Error("latent corrupted")
	}
}

func TestJSONLFileRoundTrip(t *testing.T) {
	w := testWorld(t, 5)
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	if err := SaveJSONL(path, w.Dataset); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Resources) != 5 {
		t.Errorf("resources = %d", len(got.Resources))
	}
}

func TestJSONLRejectsInvalid(t *testing.T) {
	bad := bytes.NewBufferString(`{"resources":[{"id":"a"},{"id":"a"}]}` + "\n")
	if _, err := ReadJSONL(bad); err == nil {
		t.Error("duplicate IDs must fail on load")
	}
	if _, err := ReadJSONL(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage must fail")
	}
}

func TestPostsCSVRoundTrip(t *testing.T) {
	base := time.Date(2006, 3, 1, 12, 0, 0, 0, time.UTC)
	posts := []Post{
		{ResourceID: "r1", TaggerID: "t1", Tags: []string{"a", "b"}, Time: base},
		{ResourceID: "r2", TaggerID: "", Tags: []string{"c"}, Time: base.Add(time.Minute)},
	}
	var buf bytes.Buffer
	if err := WritePostsCSV(&buf, posts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPostsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, posts) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, posts)
	}
}

func TestReadPostsCSVErrors(t *testing.T) {
	if _, err := ReadPostsCSV(bytes.NewBufferString("a,b\n")); err == nil {
		t.Error("wrong field count must fail")
	}
	if _, err := ReadPostsCSV(bytes.NewBufferString("resource_id,tagger_id,unix_nano,tags\nr1,t1,notanumber,a\n")); err == nil {
		t.Error("bad time must fail")
	}
	got, err := ReadPostsCSV(bytes.NewBufferString(""))
	if err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestSummarize(t *testing.T) {
	w := testWorld(t, 4)
	base := time.Now().UTC()
	ids := []string{"r0000", "r0000", "r0000", "r0001"}
	for i, id := range ids {
		w.Dataset.Posts = append(w.Dataset.Posts, Post{
			ResourceID: id, Tags: []string{"a", "b"}, Time: base.Add(time.Duration(i) * time.Second),
		})
	}
	s := Summarize(w.Dataset)
	if s.NumResources != 4 || s.NumPosts != 4 {
		t.Errorf("counts: %+v", s)
	}
	if s.DistinctTags != 2 {
		t.Errorf("distinct tags = %d", s.DistinctTags)
	}
	if s.PostsPerRes.Max != 3 || s.PostsPerRes.Min != 0 {
		t.Errorf("posts per resource: %+v", s.PostsPerRes)
	}
	if s.TagsPerPost.Mean != 2 {
		t.Errorf("tags per post mean = %v", s.TagsPerPost.Mean)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-9 {
		t.Errorf("uniform Gini = %v, want 0", g)
	}
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Errorf("concentrated Gini = %v, want high", g)
	}
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Error("degenerate Gini must be 0")
	}
	// Order invariance.
	if math.Abs(Gini([]float64{5, 1, 3})-Gini([]float64{1, 3, 5})) > 1e-12 {
		t.Error("Gini must be order-invariant")
	}
}

// ReadJSONL parses a dataset from the JSONL format and validates it: the
// round-trip tests' oracle for WriteJSONL and SaveJSONL.
func ReadJSONL(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var header struct {
		Resources []Resource `json:"resources"`
	}
	if err := dec.Decode(&header); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	d := &Dataset{Resources: header.Resources}
	for {
		var p Post
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("dataset: read post %d: %w", len(d.Posts), err)
		}
		d.Posts = append(d.Posts, p)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadJSONL reads a dataset from a file written by SaveJSONL.
func LoadJSONL(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// ReadPostsCSV parses the CSV post format: the round-trip tests' oracle for
// WritePostsCSV.
func ReadPostsCSV(r io.Reader) ([]Post, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	posts := make([]Post, 0, len(rows)-1)
	for i, row := range rows[1:] { // skip header
		ns, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: bad time %q", i+1, row[2])
		}
		tags := strings.Split(row[3], ";")
		posts = append(posts, Post{
			ResourceID: row[0],
			TaggerID:   row[1],
			Time:       time.Unix(0, ns).UTC(),
			Tags:       tags,
		})
	}
	return posts, nil
}
