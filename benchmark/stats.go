package main

import (
	"math"
	"sort"
	"time"
)

// median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is quantile for a tail percentile, which it reports only when
// at least ten samples lie beyond it — p99 needs 1 000 samples. It never
// quietly answers with a lower percentile.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	if float64(len(xs))*(1-q) < 10-1e-9 { // 100 × (1 − 0.9) is 9.999… in floating point
		return 0, false
	}
	return quantile(xs, q), true
}

// spread is the distance between the quartiles as a share of the median,
// with the same quartile convention as Python's statistics.quantiles(n=4)
// (exclusive method), which is what the driver computes.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quartile i of 4, exclusive method
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sliceStat is one slice reduced to the numbers calibration works on.
type sliceStat struct {
	OK        int     `json:"ok"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	OpP50MS   float64 `json:"op_p50_ms"`
	PostP50MS float64 `json:"post_p50_ms"`
	ViewP50MS float64 `json:"view_p50_ms"`
	RefP50US  float64 `json:"ref_p50_us"`
}

func reduceSlice(r sliceResult) sliceStat {
	st := sliceStat{Failed: r.failed, WallS: r.wall.Seconds()}
	var total, post, view []float64
	for _, s := range r.samples {
		if !s.ok {
			continue
		}
		st.OK++
		total = append(total, msOf(s.total))
		if s.nPosts > 0 {
			post = append(post, msOf(s.posts)/float64(s.nPosts))
		}
		if s.nViews > 0 {
			view = append(view, msOf(s.views)/float64(s.nViews))
		}
	}
	st.OpP50MS, st.PostP50MS, st.ViewP50MS = median(total), median(post), median(view)
	ref := make([]float64, len(r.refLat))
	for i, d := range r.refLat {
		ref[i] = float64(d) / float64(time.Microsecond)
	}
	st.RefP50US = median(ref)
	return st
}

// calibrated is a run's timing, raw and in reference-box units.
type calibrated struct {
	OpsPerS, OpP50MS       float64 // calibrated medians over the slices
	PostP50MS, ViewP50MS   float64
	RawOpsPerS, RawOpP50MS float64
	K                      []float64 // per slice: ref p50 ÷ nominal
	MedianK                float64
	RefP50US, RefSpread    float64
}

// calibrate turns per-slice raw timings into reference-box units. Slice i
// ran k_i times slower than the reference box, judging by the reference
// calls that closed it: times are divided by k_i, rates multiplied, and the
// run reports the median over slices, so a disturbed slice moves nothing.
func calibrate(slices []sliceStat, nominalUS float64) calibrated {
	var c calibrated
	var ops, p50, post, view, rawOps, rawP50, ref, invK []float64
	for _, s := range slices {
		k := s.RefP50US / nominalUS
		if k <= 0 || s.WallS <= 0 {
			continue
		}
		c.K = append(c.K, k)
		invK = append(invK, 1/k)
		ref = append(ref, s.RefP50US)
		rate := float64(s.OK) / s.WallS
		rawOps = append(rawOps, rate)
		rawP50 = append(rawP50, s.OpP50MS)
		ops = append(ops, rate*k)
		p50 = append(p50, s.OpP50MS/k)
		post = append(post, s.PostP50MS/k)
		view = append(view, s.ViewP50MS/k)
	}
	c.OpsPerS, c.OpP50MS = median(ops), median(p50)
	c.PostP50MS, c.ViewP50MS = median(post), median(view)
	c.RawOpsPerS, c.RawOpP50MS = median(rawOps), median(rawP50)
	c.MedianK = median(c.K)
	c.RefP50US, c.RefSpread = median(ref), spread(ref)
	return c
}
