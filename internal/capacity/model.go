// Package capacity implements admission control for the serving path: a
// queueing model fitted online from the latency histograms, and a
// saturation limiter that sheds load past the model's knee.
//
// The model follows the Server{Alpha,Beta} linearisation used by
// batch-serving autoscalers: per-request latency grows roughly linearly
// with the number of requests sharing the server, so
//
//	latency(c) ≈ Alpha + Beta·(c-1)
//
// where Alpha is the base service time at concurrency 1 and Beta is the
// marginal latency each additional concurrent request adds. The knee —
// the highest concurrency whose predicted latency still meets the SLO —
// falls out in closed form, which is what makes the model cheap enough
// to refit on the request path.
package capacity

import "math"

// Model is a fitted Server{Alpha,Beta} latency model. Both coefficients
// are in seconds; Beta is per unit of concurrency.
type Model struct {
	Alpha float64 // base latency at concurrency 1
	Beta  float64 // marginal latency per additional concurrent request
}

// Latency predicts the per-request latency at concurrency c. Concurrency
// below 1 is clamped: a lone request cannot run faster than Alpha.
func (m Model) Latency(c float64) float64 {
	if c < 1 {
		c = 1
	}
	return m.Alpha + m.Beta*(c-1)
}

// Knee returns the highest concurrency at which the predicted latency
// still meets slo (seconds). When even a single request exceeds the SLO
// the knee is 1 (shedding to zero would deadlock recovery: the model can
// only learn the server got faster by letting some traffic through).
// When Beta is zero or negative the model has seen no evidence of
// saturation and the knee is unbounded (+Inf); callers clamp it to their
// configured maximum.
func (m Model) Knee(slo float64) float64 {
	if slo <= m.Alpha {
		return 1
	}
	if m.Beta <= 0 {
		return math.Inf(1)
	}
	return 1 + (slo-m.Alpha)/m.Beta
}
