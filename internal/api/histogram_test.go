package api

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"
)

// refHistogram is the straightforward O(n log n) reference the lock-free
// routeStats is checked against: it keeps every observation and derives
// buckets, sum and quantiles from the sorted raw data.
type refHistogram struct {
	obs []time.Duration
}

func (r *refHistogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.obs = append(r.obs, d)
}

func (r *refHistogram) buckets() (perBucket [numLatencyBuckets]uint64) {
	for _, d := range r.obs {
		perBucket[bucketIndex(d)]++
	}
	return perBucket
}

func (r *refHistogram) sum() time.Duration {
	var s time.Duration
	for _, d := range r.obs {
		s += d
	}
	return s
}

// quantile returns the exact q-quantile of the raw observations.
func (r *refHistogram) quantile(q float64) time.Duration {
	sorted := append([]time.Duration(nil), r.obs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// estimateQuantile mimics a Prometheus histogram_quantile over the fixed
// buckets: find the bucket holding the q-th observation and return its
// upper bound (the coarsest answer the bucket layout supports).
func estimateQuantile(perBucket [numLatencyBuckets]uint64, q float64) time.Duration {
	var total uint64
	for _, n := range perBucket {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range perBucket {
		cum += n
		if cum >= rank {
			if i == len(latencyBucketBounds) {
				return latencyBucketBounds[len(latencyBucketBounds)-1] * 2
			}
			return latencyBucketBounds[i]
		}
	}
	return latencyBucketBounds[len(latencyBucketBounds)-1] * 2
}

// bucketLowerBound is the lower edge of bucket i (exclusive).
func bucketLowerBound(i int) time.Duration {
	if i == 0 {
		return 0
	}
	return latencyBucketBounds[i-1]
}

// TestHistogramProperty drives seeded random latency streams through the
// lock-free routeStats and checks, against the reference implementation:
// exact bucket counts, exact _sum and _count, and quantile estimates that
// land within one bucket's width of the true quantile.
func TestHistogramProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		rng := rand.New(rand.NewSource(seed))
		rs := &routeStats{}
		ref := &refHistogram{}
		n := 500 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Log-uniform over ~50µs..20s so every bucket (and the +Inf
			// overflow) gets traffic across seeds.
			exp := rng.Float64()*5.6 + 4.7 // 10^4.7ns ≈ 50µs .. 10^10.3ns ≈ 20s
			d := time.Duration(pow10(exp))
			status := http.StatusOK
			if rng.Intn(10) == 0 {
				status = http.StatusInternalServerError
			}
			rs.observe(status, d)
			ref.observe(d)
		}

		total, perBucket := rs.bucketTotal()
		if total != uint64(n) || rs.count.Load() != uint64(n) {
			t.Fatalf("seed %d: count = %d/%d, want %d", seed, total, rs.count.Load(), n)
		}
		if perBucket != ref.buckets() {
			t.Errorf("seed %d: bucket counts diverge\n got %v\nwant %v", seed, perBucket, ref.buckets())
		}
		if got, want := rs.totalNanos.Load(), int64(ref.sum()); got != want {
			t.Errorf("seed %d: sum = %d, want %d", seed, got, want)
		}

		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := ref.quantile(q)
			est := estimateQuantile(perBucket, q)
			// The estimate is the upper bound of the bucket holding the true
			// quantile, so it must bracket the exact value within that
			// bucket's width (overflow bucket excepted — it is unbounded).
			idx := bucketIndex(exact)
			if idx == len(latencyBucketBounds) {
				if est < latencyBucketBounds[len(latencyBucketBounds)-1] {
					t.Errorf("seed %d q%.2f: overflow quantile estimated below top bound: %v", seed, q, est)
				}
				continue
			}
			lo, hi := bucketLowerBound(idx), latencyBucketBounds[idx]
			if est < lo || est > hi {
				t.Errorf("seed %d q%.2f: estimate %v outside bucket (%v, %v] of exact %v",
					seed, q, est, lo, hi, exact)
			}
		}
	}
}

// pow10 computes 10^exp in nanoseconds without importing math twice over.
func pow10(exp float64) float64 {
	r := 1.0
	for exp >= 1 {
		r *= 10
		exp--
	}
	// Fractional remainder via exp/log-free approximation is overkill;
	// a short Taylor-ish loop keeps observations well spread which is all
	// the property test needs.
	if exp > 0 {
		r *= 1 + 9*exp/2 // rough 10^f for f in [0,1): monotone, in [1,10)
	}
	return r
}

// TestBucketIndexEdges pins the le-inclusive boundary convention.
func TestBucketIndexEdges(t *testing.T) {
	if bucketIndex(0) != 0 {
		t.Error("0 must land in the first bucket")
	}
	for i, bound := range latencyBucketBounds {
		if got := bucketIndex(bound); got != i {
			t.Errorf("bound %v lands in bucket %d, want %d (le is inclusive)", bound, got, i)
		}
		if got := bucketIndex(bound + 1); got != i+1 {
			t.Errorf("bound %v+1ns lands in bucket %d, want %d", bound, got, i+1)
		}
	}
	if got := bucketIndex(time.Hour); got != len(latencyBucketBounds) {
		t.Errorf("1h lands in bucket %d, want overflow %d", got, len(latencyBucketBounds))
	}
}

// TestObserveNegativeClamped: a clock step backwards must not corrupt the
// counters.
func TestObserveNegativeClamped(t *testing.T) {
	rs := &routeStats{}
	rs.observe(http.StatusOK, -5*time.Second)
	total, perBucket := rs.bucketTotal()
	if total != 1 || perBucket[0] != 1 || rs.totalNanos.Load() != 0 {
		t.Errorf("negative elapsed mishandled: total=%d first=%d sum=%d",
			total, perBucket[0], rs.totalNanos.Load())
	}
}

// TestQuantileAccessor pins the series a scraper estimates quantiles
// from: Collect reports a tracked route's cumulative `_bucket` samples —
// one per finite bound, then +Inf — exactly as the reference counts them,
// and no series for a route nobody tracked.
func TestQuantileAccessor(t *testing.T) {
	m := NewMetrics()
	rs := m.register("GET /q")
	rng := rand.New(rand.NewSource(2014))
	ref := &refHistogram{}
	for i := 0; i < 4000; i++ {
		d := time.Duration(pow10(rng.Float64()*5.6 + 4.7)) // ~50µs .. ~20s, overflow included
		rs.observe(http.StatusOK, d)
		ref.observe(d)
	}
	var x Exposition
	m.Collect(&x)
	var got []uint64
	for _, f := range x.Families() {
		if f.Name != "itag_http_request_duration_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Suffix != "_bucket" {
				continue
			}
			if s.Labels[0].Value != "GET /q" {
				t.Fatalf("bucket sample for untracked route %q", s.Labels[0].Value)
			}
			got = append(got, uint64(s.Value))
		}
	}
	var want []uint64
	cumulative := uint64(0)
	for _, n := range ref.buckets() {
		cumulative += n
		want = append(want, cumulative)
	}
	if !slices.Equal(got, want) {
		t.Errorf("cumulative buckets diverge\n got %v\nwant %v", got, want)
	}
}

// TestMetricsRouteAccessors covers the per-route view of /api/v1/metrics:
// Snapshot resolves a tracked route's count and mean latency, lists no
// route nobody tracked, and reads zero in flight once every request
// returned.
func TestMetricsRouteAccessors(t *testing.T) {
	m := NewMetrics()
	h := m.Track("POST /probe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Microsecond)
	}))
	for i := 0; i < 8; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/probe", nil))
	}
	snap := m.Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Route != "POST /probe" {
		t.Fatalf("routes = %+v, want only POST /probe", snap.Routes)
	}
	if r := snap.Routes[0]; r.Count != 8 || r.Status2xx != 8 || r.AvgMillis < 0.2 {
		t.Fatalf("route = %+v, want 8 2xx observations averaging ≥ 0.2ms", r)
	}
	if snap.InFlight != 0 {
		t.Errorf("InFlight = %d after all requests returned", snap.InFlight)
	}
}

// BenchmarkObserve measures the per-request metrics hot path — the S7
// serving gate rides on this staying in the tens of nanoseconds.
func BenchmarkObserve(b *testing.B) {
	rs := &routeStats{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs.observe(http.StatusOK, time.Duration(i%1000)*time.Millisecond/10)
	}
}

// BenchmarkObserveParallel exercises the lock-free claim under contention.
func BenchmarkObserveParallel(b *testing.B) {
	rs := &routeStats{}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 3 * time.Millisecond
		for pb.Next() {
			rs.observe(http.StatusOK, d)
		}
	})
}
