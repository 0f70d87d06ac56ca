package quality

import (
	"math"
	"testing"
)

func TestFitConstantSeries(t *testing.T) {
	// A fully converged resource: quality flat at 0.9. The fit must return
	// a curve evaluating ~0.9 everywhere with ~zero marginal gains.
	ks := make([]int, 50)
	qs := make([]float64, 50)
	for i := range ks {
		ks[i] = i + 1
		qs[i] = 0.9
	}
	c, err := Fit(ks, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 25, 100} {
		if math.Abs(c.Eval(k)-0.9) > 0.02 {
			t.Errorf("Eval(%d) = %v, want ~0.9", k, c.Eval(k))
		}
	}
	if g := c.Gain(50, 20); g > 0.02 {
		t.Errorf("converged curve projected gain %v", g)
	}
}

func TestFitDecreasingSeriesStillValid(t *testing.T) {
	// Pathological input (quality drops): the fit must still return a
	// valid, clamped curve rather than NaN garbage.
	ks := []int{1, 2, 3, 4, 5, 6}
	qs := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4}
	c, err := Fit(ks, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() {
		t.Errorf("invalid curve: %v", c)
	}
	for _, k := range []int{1, 10, 100} {
		v := c.Eval(k)
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("Eval(%d) = %v", k, v)
		}
	}
}

func TestGainTableZeroHorizon(t *testing.T) {
	c := Curve{QMax: 0.9, A: 0.5, Lambda: 0.1}
	gt := NewGainTable(c, 5, 0)
	if gt.MaxX() != 0 || gt.Gain(10) != 0 {
		t.Errorf("zero-horizon table: maxX=%d gain=%v", gt.MaxX(), gt.Gain(10))
	}
	gtNeg := NewGainTable(c, 5, -3)
	if gtNeg.MaxX() != 0 {
		t.Errorf("negative horizon must clamp: %d", gtNeg.MaxX())
	}
}

func TestCurveStringAndMarginalConsistency(t *testing.T) {
	c := Curve{QMax: 0.9, A: 0.5, Lambda: 0.1}
	if c.String() == "" {
		t.Error("empty String()")
	}
	// Sum of marginals equals cumulative gain.
	var sum float64
	for k := 0; k < 30; k++ {
		sum += c.Gain(k, 1)
	}
	if math.Abs(sum-c.Gain(0, 30)) > 1e-9 {
		t.Errorf("marginal sum %v != gain %v", sum, c.Gain(0, 30))
	}
}

// NewGainTable builds a table from a curve at current post count k0.
func NewGainTable(c Curve, k0, maxX int) *GainTable {
	if maxX < 0 {
		maxX = 0
	}
	g := make([]float64, maxX+1)
	prevMarginal := math.Inf(1)
	for x := 1; x <= maxX; x++ {
		m := c.Eval(k0+x) - c.Eval(k0+x-1)
		if m < 0 {
			m = 0
		}
		if m > prevMarginal {
			m = prevMarginal // enforce concavity
		}
		prevMarginal = m
		g[x] = g[x-1] + m
	}
	return &GainTable{gains: g}
}
