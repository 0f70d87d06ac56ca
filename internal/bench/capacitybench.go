package bench

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/api"
	"itag/internal/capacity"
)

// This file holds the S9 open-loop capacity experiment. Every other bench
// is closed-loop — each virtual tagger waits for its response before
// sending the next request — so offered load can never exceed service
// capacity and overload is inexpressible. S9 injects requests on a seeded
// Poisson arrival process at a configured rate regardless of how the
// server is doing, which is what a real tagger fleet does to a saturated
// iTag deployment. It measures a bottlenecked task route through the same
// admission stack the server mounts (capacity.Governor + Limiter steering
// on api.Metrics histogram windows, shed-before-Track) and fails unless:
//
//   - unlimited path at 2× the measured knee capacity: p99 blows past
//     10× the SLO (the failure mode admission control exists to prevent)
//   - admission-controlled path at the same offered load: p99 of admitted
//     requests holds ≤ SLO with goodput ≥ 80% of knee capacity

// s9Route labels the bottlenecked route; reusing the real task-request
// pattern keeps the governor wiring identical to the server's.
const s9Route = "POST /api/v1/projects/{id}/tasks"

// arrivalOffsets realises a Poisson arrival process: offsets from stream
// start at the given mean rate (events/sec), exponentially distributed
// inter-arrivals, deterministic under seed, covering [0, horizon).
func arrivalOffsets(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var offs []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= horizon.Seconds() {
			return offs
		}
		offs = append(offs, time.Duration(t*float64(time.Second)))
	}
}

// s9Front is one serving stack under test: a W-worker bottleneck stage
// (semaphore + fixed service time — the knee is at W·service⁻¹ req/s)
// behind the route histogram, with or without the admission governor in
// front. The middleware order mirrors internal/server: the limiter sheds
// OUTSIDE metrics.Track so microsecond 429s cannot drag the p99 down
// exactly when the governor needs to see the overload.
type s9Front struct {
	metrics *api.Metrics
	gov     *capacity.Governor // nil = unlimited
	handler http.Handler
}

func newS9Front(workers int, service, slo time.Duration, limited bool) *s9Front {
	f := &s9Front{metrics: api.NewMetrics()}
	sem := make(chan struct{}, workers)
	stage := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sem <- struct{}{}
		time.Sleep(service)
		<-sem
		_, _ = w.Write([]byte(`{"ok":true}`))
	})
	tracked := f.metrics.Track(s9Route, stage)
	if !limited {
		f.handler = tracked
		return f
	}
	f.gov = capacity.NewGovernor(capacity.GovernorConfig{
		Routes:         []string{s9Route},
		SLO:            slo,
		MaxConcurrency: 512,
		MinInterval:    50 * time.Millisecond,
	}, f.metrics, capacity.NewLimiter(512))
	lim := f.gov.Limiter()
	f.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, ok := lim.TryAcquire()
		if !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(lim.RetryAfter().Seconds()))))
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		defer func() {
			release()
			f.gov.Maybe(time.Now())
		}()
		tracked.ServeHTTP(w, r)
	})
	return f
}

// serveOnce drives one in-process request through the stack and reports
// the response status. No sockets: overload phases hold thousands of
// requests in flight and must not exhaust file descriptors.
func (f *s9Front) serveOnce() int {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/projects/p1/tasks", nil)
	f.handler.ServeHTTP(rec, req)
	return rec.Code
}

// s9Sample is one arrival's outcome.
type s9Sample struct {
	status int
	lat    time.Duration
}

// drive replays an arrival schedule open-loop: the injector sleeps to
// each offset and fires the request on its own goroutine whether or not
// earlier ones have finished, then waits for every response.
func (f *s9Front) drive(offsets []time.Duration) []s9Sample {
	samples := make([]s9Sample, len(offsets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		if d := off - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			status := f.serveOnce()
			samples[i] = s9Sample{status: status, lat: time.Since(t0)}
		}(i)
	}
	wg.Wait()
	return samples
}

// closedLoop measures knee capacity: conc workers in lock-step request
// loops for dur. With conc well above the bottleneck width the stage is
// never idle, so completions/sec is the saturation throughput.
func (f *s9Front) closedLoop(conc int, dur time.Duration) float64 {
	var done atomic.Uint64
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if f.serveOnce() == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / dur.Seconds()
}

// s9P99 reports the p99 latency of the samples matching the status
// filter (0 = all), and how many matched.
func s9P99(samples []s9Sample, status int) (time.Duration, int) {
	var lats []time.Duration
	for _, s := range samples {
		if status == 0 || s.status == status {
			lats = append(lats, s.lat)
		}
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(math.Ceil(0.99*float64(len(lats)))) - 1
	return lats[idx], len(lats)
}

func s9Count(samples []s9Sample, status int) int {
	n := 0
	for _, s := range samples {
		if s.status == status {
			n++
		}
	}
	return n
}

// s9Durations sizes the phases; -small trims them but keeps every phase
// long enough for its threshold to have real margin (the unlimited p99 grows
// roughly linearly with phase length, so it must stay well past 10×SLO).
type s9Durations struct {
	calibrate, unlimited, converge, measured time.Duration
}

func s9Sizes(sz Sizes) s9Durations {
	if sz.N <= SmallSizes().N {
		return s9Durations{calibrate: 400 * time.Millisecond, unlimited: 1600 * time.Millisecond,
			converge: 1200 * time.Millisecond, measured: 1500 * time.Millisecond}
	}
	return s9Durations{calibrate: 600 * time.Millisecond, unlimited: 2 * time.Second,
		converge: 1500 * time.Millisecond, measured: 2 * time.Second}
}

// S9Capacity measures overload behaviour with and without queueing-model
// admission control. A W-worker bottleneck stage with a fixed service
// time gives a known saturation knee; the knee capacity is calibrated
// closed-loop, then a seeded Poisson arrival stream offers 2× that
// capacity open-loop to the unlimited stack (p99 must blow past 10× SLO
// — unbounded queueing) and to the admission-controlled stack (after an
// unmeasured convergence window, admitted p99 must hold ≤ SLO with ≥80%
// of knee capacity as goodput). A missed threshold is an error returned
// beside the table.
func S9Capacity(sz Sizes) (Result, error) {
	const (
		workers = 4
		service = 5 * time.Millisecond
		slo     = 100 * time.Millisecond
	)
	durs := s9Sizes(sz)
	res := Result{
		ID: "S9",
		Title: fmt.Sprintf("open-loop capacity: admission control at 2x the knee (%d-wide stage, %v service, %v p99 SLO)",
			workers, service, slo),
		Header: []string{"phase", "offered/s", "duration", "ok/s", "shed", "p99 (ok)", "p99/SLO"},
	}

	// Closed-loop knee calibration on an unlimited stack: the measured
	// saturation throughput is the denominator for the goodput threshold and
	// the base for the 2× offered rate.
	calib := newS9Front(workers, service, slo, false)
	kneeCap := calib.closedLoop(4*workers, durs.calibrate)
	if kneeCap <= 0 {
		return Result{}, fmt.Errorf("s9: knee calibration measured zero throughput")
	}
	res.Rows = append(res.Rows, []string{"calibrate (closed-loop)", "-", fmt.Sprint(durs.calibrate),
		fmt.Sprintf("%.0f", kneeCap), "0", "-", "-"})
	offered := 2 * kneeCap

	// Unlimited at 2× knee: every arrival is admitted, the queue grows
	// without bound for the whole phase, and latency is dominated by
	// backlog wait.
	unlimited := newS9Front(workers, service, slo, false)
	unSamples := unlimited.drive(arrivalOffsets(sz.Seed, offered, durs.unlimited))
	unP99, unOK := s9P99(unSamples, http.StatusOK)
	res.Rows = append(res.Rows, []string{"unlimited @2x knee", fmt.Sprintf("%.0f", offered), fmt.Sprint(durs.unlimited),
		fmt.Sprintf("%.0f", float64(unOK)/durs.unlimited.Seconds()), "0",
		fmt.Sprint(unP99.Round(time.Millisecond)), fmt.Sprintf("%.1f", unP99.Seconds()/slo.Seconds())})

	// Admission-controlled at the same offered rate. The convergence
	// window is unmeasured: the governor starts fail-open at
	// MaxConcurrency and needs a few refit windows to fit the model and
	// walk the ceiling down to the knee.
	limited := newS9Front(workers, service, slo, true)
	limited.drive(arrivalOffsets(sz.Seed+1, offered, durs.converge))
	limSamples := limited.drive(arrivalOffsets(sz.Seed+2, offered, durs.measured))
	limP99, limOK := s9P99(limSamples, http.StatusOK)
	limShed := s9Count(limSamples, http.StatusTooManyRequests)
	goodput := float64(limOK) / durs.measured.Seconds()
	res.Rows = append(res.Rows, []string{"admission @2x knee", fmt.Sprintf("%.0f", offered), fmt.Sprint(durs.measured),
		fmt.Sprintf("%.0f", goodput), d(limShed),
		fmt.Sprint(limP99.Round(time.Millisecond)), fmt.Sprintf("%.2f", limP99.Seconds()/slo.Seconds())})

	res.Notes = append(res.Notes,
		fmt.Sprintf("bottleneck stage: %d workers x %v service time — knee capacity calibrated closed-loop at %.0f req/s", workers, service, kneeCap),
		fmt.Sprintf("arrivals: seeded Poisson process at %.0f req/s (2x knee), injected open-loop — the injector never waits for responses", offered),
		fmt.Sprintf("unlimited path: p99 %v = %.1fx SLO (must reach 10x) — unbounded queueing during the whole overload window", unP99.Round(time.Millisecond), unP99.Seconds()/slo.Seconds()),
		fmt.Sprintf("admission path: p99 %v vs %v SLO with %.0f req/s goodput (%.0f%% of knee, must reach 80%%) and %d sheds — governor fits Server{Alpha,Beta} on per-refresh histogram windows and sheds past the knee", limP99.Round(time.Millisecond), slo, goodput, 100*goodput/kneeCap, limShed),
	)
	var missed []string
	if unP99 < 10*slo {
		missed = append(missed, fmt.Sprintf("unlimited p99 %v did not reach 10x the %v SLO", unP99, slo))
	}
	if limOK == 0 || limP99 > slo {
		missed = append(missed, fmt.Sprintf("admitted p99 %v (%d admitted) is not within the %v SLO", limP99, limOK, slo))
	}
	if goodput < 0.8*kneeCap {
		missed = append(missed, fmt.Sprintf("goodput %.0f req/s is below 80%% of the %.0f req/s knee", goodput, kneeCap))
	}
	if len(missed) > 0 {
		return res, fmt.Errorf("s9: %s", strings.Join(missed, "; "))
	}
	return res, nil
}
