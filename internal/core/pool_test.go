package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"itag/internal/crowd"
)

func TestPoolRunsAllEngines(t *testing.T) {
	h := newHarness(t, 10, 8, 0)
	const nEngines = 6
	engines := make([]*Engine, nEngines)
	for i := range engines {
		engines[i] = h.engine(t, Config{Budget: 40, Batch: 8, Seed: int64(i)})
	}
	errs := Pool{Workers: 3}.Run(engines)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if !engines[i].Done() {
			t.Fatalf("engine %d not done after pool run", i)
		}
		if got := engines[i].Spent(); got != 40 {
			t.Fatalf("engine %d spent %d, want 40", i, got)
		}
	}
}

func TestPoolMatchesSerialRun(t *testing.T) {
	h := newHarness(t, 8, 6, 0)
	serial := h.engine(t, Config{Budget: 32, Batch: 8, Seed: 7})
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}
	pooled := h.engine(t, Config{Budget: 32, Batch: 8, Seed: 7})
	if errs := (Pool{Workers: 4}).Run([]*Engine{pooled}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// A single engine's run is deterministic in its own seed; pooling must
	// not change its outcome.
	if serial.MeanStability() != pooled.MeanStability() || serial.Spent() != pooled.Spent() {
		t.Fatalf("pooled run diverged from serial: stability %v vs %v, spent %d vs %d",
			pooled.MeanStability(), serial.MeanStability(), pooled.Spent(), serial.Spent())
	}
}

// failPlatform rejects every publish, forcing a step error.
type failPlatform struct{}

func (failPlatform) Name() string               { return "fail" }
func (failPlatform) Publish(crowd.Task) error   { return errors.New("marketplace down") }
func (failPlatform) Step() int                  { return 0 }
func (failPlatform) Collect(int) []crowd.Result { return nil }
func (failPlatform) Pending() int               { return 0 }
func (failPlatform) Clock() int                 { return 0 }
func (failPlatform) Review(string, bool)        {}

// TestPoolCancelRetiresInFlight cancels the context after the fleet has
// taken a few steps: RunContext must return, an engine that finished
// reports nil, and every other engine reports ctx.Err() with budget left.
func TestPoolCancelRetiresInFlight(t *testing.T) {
	h := newHarness(t, 10, 8, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps atomic.Int64
	countStep := func() error {
		if steps.Add(1) == 10 {
			cancel()
		}
		return nil
	}
	const budget = 400
	engines := make([]*Engine, 6)
	for i := range engines {
		engines[i] = h.engine(t, Config{Budget: budget, Batch: 8, Seed: int64(i), Flush: countStep})
	}
	ret := make(chan []error, 1)
	go func() { ret <- Pool{Workers: 3}.RunContext(ctx, engines) }()
	var errs []error
	select {
	case errs = <-ret:
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	unfinished := 0
	for i, err := range errs {
		if engines[i].Done() {
			if err != nil {
				t.Errorf("finished engine %d: %v", i, err)
			}
			continue
		}
		unfinished++
		if !errors.Is(err, ctx.Err()) {
			t.Errorf("unfinished engine %d: err = %v, want %v", i, err, ctx.Err())
		}
		if engines[i].Spent() >= budget {
			t.Errorf("unfinished engine %d spent its whole budget", i)
		}
	}
	if unfinished == 0 {
		t.Fatal("every engine finished: the cancellation came too late to test anything")
	}
}

func TestPoolRetiresFailingEngineOnly(t *testing.T) {
	h := newHarness(t, 10, 8, 0)
	engines := []*Engine{
		h.engine(t, Config{Budget: 24, Batch: 8, Seed: 1}),
		h.engine(t, Config{Budget: 24, Batch: 8, Seed: 2, Platform: failPlatform{}}),
		h.engine(t, Config{Budget: 24, Batch: 8, Seed: 3}),
	}
	errs := Pool{Workers: 2}.Run(engines)
	if errs[1] == nil {
		t.Fatal("failing engine reported no error")
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("healthy engine %d: %v", i, errs[i])
		}
		if engines[i].Spent() != 24 {
			t.Fatalf("healthy engine %d spent %d, want 24", i, engines[i].Spent())
		}
	}
}
