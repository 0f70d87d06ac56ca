package core

import (
	"context"
	"errors"
	"testing"

	"itag/internal/crowd"
	"itag/internal/dataset"
	"itag/internal/store"
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

func TestServiceRunSimulations(t *testing.T) {
	// Full stack: service → engines → pool → catalog.
	s := NewService(store.NewCatalog(store.OpenMemory()), 77)
	prov, err := s.RegisterProvider(context.Background(), "fleet-owner")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.CreateProject(context.Background(), ProjectSpec{
			ProviderID: prov, Name: "fleet", Budget: 40,
			Simulate: true, NumResources: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.RunSimulations(context.Background(), ids, 4); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rec, err := s.Catalog().GetProject(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != store.ProjectDone {
			t.Fatalf("project %s status %q, want done", id, rec.Status)
		}
		if rec.Spent != 40 {
			t.Fatalf("project %s spent %d, want 40", id, rec.Spent)
		}
		if err := s.WaitSimulation(context.Background(), id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
}

func TestRunSimulationsClaimRollback(t *testing.T) {
	s := NewService(store.NewCatalog(store.OpenMemory()), 33)
	prov, err := s.RegisterProvider(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() string {
		id, err := s.CreateProject(context.Background(), ProjectSpec{
			ProviderID: prov, Name: "fleet", Budget: 24,
			Simulate: true, NumResources: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, b := mk(), mk()
	// Mark b as already running so the batch claim conflicts after a was
	// claimed.
	runB, err := s.run(b)
	if err != nil {
		t.Fatal(err)
	}
	runB.mu.Lock()
	runB.running = true
	runB.mu.Unlock()

	if err := s.RunSimulations(context.Background(), []string{a, b}, 2); !errors.Is(err, ErrProjectRunning) {
		t.Fatalf("conflicting batch: got %v, want ErrProjectRunning", err)
	}
	runB.mu.Lock()
	runB.running = false
	runB.mu.Unlock()

	// The rollback must leave a claimable again.
	if err := s.RunSimulations(context.Background(), []string{a}, 2); err != nil {
		t.Fatalf("a not startable after rollback: %v", err)
	}
	if err := s.WaitSimulation(context.Background(), a); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimulationsRejectsManualProject(t *testing.T) {
	s := NewService(store.NewCatalog(store.OpenMemory()), 5)
	prov, err := s.RegisterProvider(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateProject(context.Background(), ProjectSpec{
		ProviderID: prov, Name: "manual", Budget: 10,
		Resources: []dataset.Resource{{ID: "up-1", Name: "uploaded", Popularity: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunSimulations(context.Background(), []string{id}, 2); err == nil {
		t.Fatal("RunSimulations accepted a manual (uploaded-resources) project")
	}
}
