package quality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"itag/internal/rfd"
	"itag/internal/vocab"
)

func TestParseMetric(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Metric
	}{
		{"cosine", MetricCosine}, {"", MetricCosine}, {"jsd", MetricJSD},
		{"l1", MetricL1}, {"hellinger", MetricHellinger},
	} {
		got, err := ParseMetric(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseMetric(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := ParseMetric("nope"); err == nil {
		t.Error("unknown metric must error")
	}
}

func TestMetricStringRoundTrip(t *testing.T) {
	for _, m := range []Metric{MetricCosine, MetricJSD, MetricL1, MetricHellinger} {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v failed: %v %v", m, got, err)
		}
	}
}

// countsOf posts each tag n[i] times, one tag per post.
func countsOf(t *testing.T, tags []string, n []int) *rfd.ICounts {
	t.Helper()
	c := rfd.NewICounts(vocab.NewInterner())
	for i, tag := range tags {
		for k := 0; k < n[i]; k++ {
			if err := c.AddPost([]string{tag}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func TestSimilarityIdentityAndBounds(t *testing.T) {
	a := rfd.Dist{"x": 0.7, "y": 0.3}
	b := rfd.Dist{"z": 1}
	for _, m := range []Metric{MetricCosine, MetricJSD, MetricL1, MetricHellinger} {
		if got := OracleRef(m, rfd.NewRef(countsOf(t, []string{"x", "y"}, []int{7, 3}), a)); math.Abs(got-1) > 1e-9 {
			t.Errorf("%v: self-similarity = %v", m, got)
		}
		got := OracleRef(m, rfd.NewRef(countsOf(t, []string{"x", "y"}, []int{7, 3}), b))
		if got < 0 || got > 1 {
			t.Errorf("%v: similarity out of range: %v", m, got)
		}
		if got > 0.01 {
			t.Errorf("%v: disjoint similarity should be ~0, got %v", m, got)
		}
		if e := OracleRef(m, rfd.NewRef(countsOf(t, nil, nil), rfd.Dist{})); e != 0 {
			t.Errorf("%v: empty-vs-empty = %v", m, e)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Window: -1}).Validate(); err == nil {
		t.Error("negative window must fail")
	}
	if err := (Config{Window: rfd.DefaultHistoryDepth + 1}).Validate(); err == nil {
		t.Error("window beyond history depth must fail")
	}
	if err := (Config{MinPosts: -1}).Validate(); err == nil {
		t.Error("negative min posts must fail")
	}
	if err := (Config{Window: 5, MinPosts: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestTrackerQualityRisesOnStableStream(t *testing.T) {
	// Posts drawn from a fixed distribution: quality must approach 1.
	tr := NewTracker(Config{Window: 5})
	r := rand.New(rand.NewSource(42))
	pool := []string{"go", "db", "sql", "tags", "web"}
	for i := 0; i < 200; i++ {
		n := r.Intn(3) + 1
		post := make([]string, 0, n)
		for j := 0; j < n; j++ {
			post = append(post, pool[r.Intn(len(pool))])
		}
		if err := tr.AddPost(post); err != nil {
			t.Fatal(err)
		}
	}
	if q := tr.Quality(); q < 0.95 {
		t.Errorf("stable stream quality = %v, want >= 0.95", q)
	}
	if tr.Posts() != 200 {
		t.Errorf("posts = %d", tr.Posts())
	}
}

func TestTrackerZeroQualityBeforeMinPosts(t *testing.T) {
	tr := NewTracker(Config{MinPosts: 3})
	_ = tr.AddPost([]string{"a"})
	_ = tr.AddPost([]string{"a"})
	if q := tr.Quality(); q != 0 {
		t.Errorf("quality below MinPosts = %v, want 0", q)
	}
	_ = tr.AddPost([]string{"a"})
	if q := tr.Quality(); q <= 0 {
		t.Errorf("quality at MinPosts = %v, want > 0", q)
	}
}

func TestTrackerInstabilityComplement(t *testing.T) {
	tr := NewTracker(Config{})
	_ = tr.AddPost([]string{"a"})
	_ = tr.AddPost([]string{"a"})
	if math.Abs(tr.Quality()+tr.Instability()-1) > 1e-12 {
		t.Error("instability must be 1 - quality")
	}
}

func TestTrackerSeriesLengthMatchesPosts(t *testing.T) {
	tr := NewTracker(Config{})
	for i := 0; i < 10; i++ {
		_ = tr.AddPost([]string{"x", "y"})
	}
	if len(tr.Series()) != 10 {
		t.Errorf("series length = %d", len(tr.Series()))
	}
	s := tr.Series()
	s[0] = -5
	if tr.Series()[0] == -5 {
		t.Error("Series must return a copy")
	}
}

func TestTrackerDivergingStreamHasLowQuality(t *testing.T) {
	// Alternate between completely different tag sets each window: the rfd
	// keeps shifting, so stability must stay well below a converged stream.
	tr := NewTracker(Config{Window: 5})
	for i := 0; i < 40; i++ {
		tag := string(rune('a' + i%26))
		_ = tr.AddPost([]string{tag, tag + "2"})
	}
	stable := NewTracker(Config{Window: 5})
	for i := 0; i < 40; i++ {
		_ = stable.AddPost([]string{"a", "b"})
	}
	if tr.Quality() >= stable.Quality() {
		t.Errorf("diverging %v should be below stable %v", tr.Quality(), stable.Quality())
	}
}

func TestConverged(t *testing.T) {
	tr := NewTracker(Config{Window: 2})
	if tr.Converged(0.5, 3) {
		t.Error("empty tracker cannot be converged")
	}
	for i := 0; i < 20; i++ {
		_ = tr.AddPost([]string{"a"})
	}
	if !tr.Converged(0.99, 3) {
		t.Errorf("constant stream must converge, q=%v", tr.Quality())
	}
	if !tr.Converged(0.99, 0) { // span defaulted
		t.Error("span<=0 must default, not panic")
	}
}

func TestOracleQuality(t *testing.T) {
	ref := rfd.Dist{"a": 0.5, "b": 0.5}
	if got := OracleRef(MetricCosine, rfd.NewRef(countsOf(t, []string{"a", "b"}, []int{1, 1}), ref)); math.Abs(got-1) > 1e-9 {
		t.Errorf("oracle self = %v", got)
	}
	if got := OracleRef(MetricCosine, rfd.NewRef(countsOf(t, []string{"z"}, []int{1}), ref)); got != 0 {
		t.Errorf("oracle disjoint = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	qs := []float64{0.2, 0.4, 0.9, 1.0}
	if got := MeanQuality(qs); math.Abs(got-0.625) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if MeanQuality(nil) != 0 {
		t.Error("empty mean must be 0")
	}
	if got := CountAtLeast(qs, 0.9); got != 2 {
		t.Errorf("CountAtLeast = %d", got)
	}
	if got := CountBelow(qs, 0.5); got != 2 {
		t.Errorf("CountBelow = %d", got)
	}
}

func TestCurveEvalAndGain(t *testing.T) {
	c := Curve{QMax: 0.95, A: 0.8, Lambda: 0.05}
	if got := c.Eval(0); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("eval(0) = %v", got)
	}
	if c.Eval(1000) < 0.94 {
		t.Errorf("asymptote not reached: %v", c.Eval(1000))
	}
	if c.Gain(5, 0) != 0 || c.Gain(5, -3) != 0 {
		t.Error("non-positive x must give zero gain")
	}
	if c.Gain(0, 10) <= c.Gain(50, 10) {
		t.Error("gains must diminish with k (concavity)")
	}
	if math.Abs(c.MarginalGain(3)-c.Gain(3, 1)) > 1e-12 {
		t.Error("MarginalGain must equal Gain(k,1)")
	}
}

func TestCurveValid(t *testing.T) {
	if !(Curve{QMax: 0.9, A: 0.5, Lambda: 0.1}).Valid() {
		t.Error("well-formed curve must be valid")
	}
	bad := []Curve{
		{QMax: math.NaN(), A: 0.5, Lambda: 0.1},
		{QMax: 0.9, A: -1, Lambda: 0.1},
		{QMax: 0.9, A: 0.5, Lambda: -0.1},
		{QMax: 1.5, A: 0.5, Lambda: 0.1},
	}
	for i, c := range bad {
		if c.Valid() {
			t.Errorf("case %d: invalid curve accepted: %v", i, c)
		}
	}
}

func TestFitRecoversKnownCurve(t *testing.T) {
	truth := Curve{QMax: 0.92, A: 0.7, Lambda: 0.08}
	var ks []int
	var qs []float64
	for k := 1; k <= 120; k++ {
		ks = append(ks, k)
		qs = append(qs, truth.Eval(k))
	}
	got, err := Fit(ks, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 20, 60, 150} {
		if math.Abs(got.Eval(k)-truth.Eval(k)) > 0.02 {
			t.Errorf("k=%d: fitted %v vs truth %v (curve %v)", k, got.Eval(k), truth.Eval(k), got)
		}
	}
}

func TestFitWithNoise(t *testing.T) {
	truth := Curve{QMax: 0.9, A: 0.6, Lambda: 0.05}
	r := rand.New(rand.NewSource(7))
	var ks []int
	var qs []float64
	for k := 1; k <= 150; k++ {
		ks = append(ks, k)
		qs = append(qs, clamp01(truth.Eval(k)+r.NormFloat64()*0.02))
	}
	got, err := Fit(ks, qs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Eval(200)-truth.Eval(200)) > 0.05 {
		t.Errorf("asymptote off: fitted %v truth %v", got.Eval(200), truth.Eval(200))
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]int{1, 2}, []float64{0.1}); err == nil {
		t.Error("mismatched lengths must fail")
	}
	if _, err := Fit([]int{1, 2}, []float64{0.1, 0.2}); err != ErrInsufficientData {
		t.Errorf("want ErrInsufficientData, got %v", err)
	}
	// Garbage observations filtered out -> insufficient.
	if _, err := Fit([]int{-1, 0, 3}, []float64{0.5, 2.0, math.NaN()}); err != ErrInsufficientData {
		t.Errorf("want ErrInsufficientData, got %v", err)
	}
}

func TestFitSeries(t *testing.T) {
	truth := Curve{QMax: 0.85, A: 0.5, Lambda: 0.1}
	series := make([]float64, 80)
	for i := range series {
		series[i] = truth.Eval(i + 1)
	}
	got, err := FitSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Eval(40)-truth.Eval(40)) > 0.02 {
		t.Errorf("FitSeries eval(40): %v vs %v", got.Eval(40), truth.Eval(40))
	}
}

func TestGainTableMonotoneConcave(t *testing.T) {
	c := Curve{QMax: 0.95, A: 0.9, Lambda: 0.07}
	gt := NewGainTable(c, 10, 50)
	prevGain := -1.0
	prevMarginal := math.Inf(1)
	for x := 0; x <= gt.MaxX(); x++ {
		g := gt.Gain(x)
		if g < prevGain-1e-12 {
			t.Fatalf("gain not monotone at x=%d", x)
		}
		prevGain = g
		if x < gt.MaxX() {
			m := gt.Marginal(x)
			if m > prevMarginal+1e-12 {
				t.Fatalf("marginal not decreasing at x=%d: %v > %v", x, m, prevMarginal)
			}
			prevMarginal = m
		}
	}
	if gt.Gain(-1) != 0 || gt.Gain(0) != 0 {
		t.Error("gain at x<=0 must be 0")
	}
	if gt.Gain(1000) != gt.Gain(gt.MaxX()) {
		t.Error("gain beyond table must clamp")
	}
	if gt.K0() != 10 {
		t.Errorf("k0 = %d", gt.K0())
	}
}

func TestGainTableFromValuesEnforcesConcavity(t *testing.T) {
	// Noisy, even decreasing values: the table must still be monotone concave.
	values := []float64{0.3, 0.5, 0.45, 0.7, 0.71, 0.70}
	gt := NewGainTableFromValues(values, 0)
	prevM := math.Inf(1)
	for x := 0; x < gt.MaxX(); x++ {
		m := gt.Marginal(x)
		if m < 0 {
			t.Fatalf("negative marginal at %d", x)
		}
		if m > prevM+1e-12 {
			t.Fatalf("marginal increased at %d", x)
		}
		prevM = m
	}
	empty := NewGainTableFromValues(nil, 5)
	if empty.Gain(3) != 0 {
		t.Error("empty table gain must be 0")
	}
}

func TestQuantile(t *testing.T) {
	qs := []float64{0.1, 0.9, 0.5, 0.3, 0.7}
	if got := Quantile(qs, 0); got != 0.1 {
		t.Errorf("p=0: %v", got)
	}
	if got := Quantile(qs, 1); got != 0.9 {
		t.Errorf("p=1: %v", got)
	}
	if got := Quantile(qs, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("median: %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
	// Input must not be reordered.
	if qs[0] != 0.1 || qs[1] != 0.9 {
		t.Error("Quantile must not modify input")
	}
}

// TestPropertySimilarityBounds: OracleRef stays in [0, 1] and is symmetric
// — a's counts against b's rfd equal b's counts against a's — on random
// pairs of rfds over six tags, empty ones included.
func TestPropertySimilarityBounds(t *testing.T) {
	metrics := []Metric{MetricCosine, MetricJSD, MetricL1, MetricHellinger}
	tags := []string{"t1", "t2", "t3", "t4", "t5", "t6"}
	side := func(w [6]uint8) (*rfd.ICounts, rfd.Dist) {
		n := make([]int, len(w))
		var sum float64
		for i := range w {
			n[i] = int(w[i] % 32)
			sum += float64(n[i])
		}
		d := make(rfd.Dist)
		for i, tag := range tags {
			if sum > 0 {
				d[tag] = float64(n[i]) / sum
			}
		}
		return countsOf(t, tags, n), d
	}
	f := func(aw, bw [6]uint8) bool {
		ca, a := side(aw)
		cb, b := side(bw)
		for _, m := range metrics {
			s := OracleRef(m, rfd.NewRef(ca, b))
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
			if math.Abs(s-OracleRef(m, rfd.NewRef(cb, a))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCurveGainAdditive(t *testing.T) {
	f := func(qmax8, a8, l8 uint8, k8, x8, y8 uint8) bool {
		c := Curve{
			QMax:   0.5 + float64(qmax8)/512.0,
			A:      float64(a8) / 512.0,
			Lambda: 0.001 + float64(l8)/256.0,
		}
		k := int(k8) % 100
		x := int(x8) % 50
		y := int(y8) % 50
		// Gain is additive along the path: g(k, x+y) = g(k,x) + g(k+x, y).
		lhs := c.Gain(k, x+y)
		rhs := c.Gain(k, x) + c.Gain(k+x, y)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFit(b *testing.B) {
	truth := Curve{QMax: 0.9, A: 0.7, Lambda: 0.06}
	var ks []int
	var qs []float64
	for k := 1; k <= 100; k++ {
		ks = append(ks, k)
		qs = append(qs, truth.Eval(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Fit(ks, qs)
	}
}
