package core

import (
	"errors"
	"testing"

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
