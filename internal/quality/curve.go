package quality

import (
	"errors"
	"fmt"
	"math"
)

// Curve is a saturating convergence model for a resource's quality as a
// function of its post count:
//
//	q(k) = QMax − A·exp(−Lambda·k)
//
// Golder & Huberman's observation that rfds stabilize implies quality rises
// toward an asymptote; the exponential-saturation form captures that with
// three parameters and admits a fast fit. The Quality Manager fits one curve
// per resource from its observed quality series and uses it to project the
// gain of allocating extra posts (paper §I: "monitoring the projected
// quality gains"; §IV: the optimal allocation maximizes projected gains).
type Curve struct {
	QMax   float64 // asymptotic quality
	A      float64 // amplitude: QMax − q(0)
	Lambda float64 // convergence rate per post
}

// Eval returns the modeled quality at k posts, clamped to [0, 1].
func (c Curve) Eval(k int) float64 {
	return clamp01(c.QMax - c.A*math.Exp(-c.Lambda*float64(k)))
}

// Gain returns the projected quality gain of moving a resource from k posts
// to k+x posts. Non-positive x yields 0.
func (c Curve) Gain(k, x int) float64 {
	if x <= 0 {
		return 0
	}
	g := c.Eval(k+x) - c.Eval(k)
	if g < 0 {
		return 0
	}
	return g
}

// Valid reports whether the curve parameters are finite and well-formed.
func (c Curve) Valid() bool {
	for _, v := range []float64{c.QMax, c.A, c.Lambda} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return c.Lambda >= 0 && c.A >= 0 && c.QMax >= 0 && c.QMax <= 1.0000001
}

// String formats the curve.
func (c Curve) String() string {
	return fmt.Sprintf("q(k)=%.4f-%.4f*exp(-%.5f*k)", c.QMax, c.A, c.Lambda)
}

// ErrInsufficientData is returned by Fit when fewer than three usable
// observations are provided.
var ErrInsufficientData = errors.New("quality: curve fit requires at least 3 observations")

// Fit fits a Curve to observations (ks[i], qs[i]) by least squares.
//
// Given Lambda, the model is linear in (QMax, A): q = QMax − A·z with
// z = exp(−Lambda·k), solved in closed form; Lambda itself is found by a
// log-spaced grid search refined with golden-section. Observations with
// q outside [0,1] or non-positive k are ignored.
func Fit(ks []int, qs []float64) (Curve, error) {
	if len(ks) != len(qs) {
		return Curve{}, fmt.Errorf("quality: mismatched fit inputs: %d ks vs %d qs", len(ks), len(qs))
	}
	var fk []float64
	var fq []float64
	for i, k := range ks {
		q := qs[i]
		if k <= 0 || q < 0 || q > 1 || math.IsNaN(q) {
			continue
		}
		fk = append(fk, float64(k))
		fq = append(fq, q)
	}
	if len(fk) < 3 {
		return Curve{}, ErrInsufficientData
	}

	sse := func(lambda float64) (float64, Curve) {
		// Linear least squares for q = QMax − A·z, z = exp(−λk).
		n := float64(len(fk))
		var sz, szz, sq, szq float64
		for i := range fk {
			z := math.Exp(-lambda * fk[i])
			sz += z
			szz += z * z
			sq += fq[i]
			szq += z * fq[i]
		}
		det := n*szz - sz*sz
		if math.Abs(det) < 1e-18 {
			return math.Inf(1), Curve{}
		}
		// Solve [n  sz; sz szz] [QMax; -A] = [sq; szq]
		qmax := (sq*szz - sz*szq) / det
		negA := (n*szq - sz*sq) / det
		a := -negA
		c := Curve{QMax: qmax, A: a, Lambda: lambda}
		var s float64
		for i := range fk {
			d := fq[i] - (qmax - a*math.Exp(-lambda*fk[i]))
			s += d * d
		}
		return s, c
	}

	// Grid over lambda spanning convergence half-lives from ~1 post to the
	// observation horizon.
	maxK := fk[0]
	for _, k := range fk {
		if k > maxK {
			maxK = k
		}
	}
	lo, hi := 1e-4, 2.0
	if maxK > 1 {
		lo = math.Max(1e-5, 0.05/maxK)
	}
	best := math.Inf(1)
	var bestC Curve
	bestL := lo
	const gridN = 48
	for i := 0; i <= gridN; i++ {
		l := lo * math.Pow(hi/lo, float64(i)/gridN)
		s, c := sse(l)
		if s < best {
			best, bestC, bestL = s, c, l
		}
	}
	// Golden-section refine around bestL.
	a := bestL / 2.5
	b := bestL * 2.5
	if b > hi {
		b = hi
	}
	if a < lo {
		a = lo
	}
	const phi = 0.6180339887498949
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, c1 := sse(x1)
	f2, c2 := sse(x2)
	for iter := 0; iter < 40 && (b-a) > 1e-7; iter++ {
		if f1 < f2 {
			b, x2, f2, c2 = x2, x1, f1, c1
			x1 = b - phi*(b-a)
			f1, c1 = sse(x1)
		} else {
			a, x1, f1, c1 = x1, x2, f2, c2
			x2 = a + phi*(b-a)
			f2, c2 = sse(x2)
		}
	}
	if f1 < best {
		best, bestC = f1, c1
	}
	if f2 < best {
		best, bestC = f2, c2
	}

	// Sanitize: clamp into model-meaningful ranges.
	if bestC.QMax > 1 {
		bestC.QMax = 1
	}
	if bestC.QMax < 0 {
		bestC.QMax = 0
	}
	if bestC.A < 0 {
		bestC.A = 0
	}
	if bestC.A > bestC.QMax {
		bestC.A = bestC.QMax
	}
	if !bestC.Valid() {
		return Curve{}, fmt.Errorf("quality: fit produced invalid curve %v", bestC)
	}
	return bestC, nil
}

// GainTable precomputes, for one resource, the projected cumulative gains
// g(x) = q(k0+x) − q(k0) for x in [0, maxX]. The optimal allocators consume
// these tables. Gains are non-decreasing and concave by construction (the
// table enforces both, guarding against fit noise).
type GainTable struct {
	gains []float64 // gains[x] = projected cumulative gain of x extra posts
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

// NewGainTableFromValues builds a table directly from projected quality
// values q(k0), q(k0+1), ..., enforcing monotone concave gains. Used when
// gains come from Monte-Carlo estimates rather than a fitted curve.
func NewGainTableFromValues(values []float64) *GainTable {
	if len(values) == 0 {
		return &GainTable{gains: []float64{0}}
	}
	g := make([]float64, len(values))
	prevMarginal := math.Inf(1)
	for x := 1; x < len(values); x++ {
		m := values[x] - values[x-1]
		if m < 0 {
			m = 0
		}
		if m > prevMarginal {
			m = prevMarginal
		}
		prevMarginal = m
		g[x] = g[x-1] + m
	}
	return &GainTable{gains: g}
}

// Gain returns the cumulative projected gain of x extra posts.
func (t *GainTable) Gain(x int) float64 {
	if x <= 0 || len(t.gains) == 0 {
		return 0
	}
	if x >= len(t.gains) {
		return t.gains[len(t.gains)-1]
	}
	return t.gains[x]
}

// Marginal returns the projected gain of the (x+1)-th extra post given x
// already allocated.
func (t *GainTable) Marginal(x int) float64 {
	return t.Gain(x+1) - t.Gain(x)
}

// MaxX returns the largest precomputed allocation.
func (t *GainTable) MaxX() int { return len(t.gains) - 1 }
