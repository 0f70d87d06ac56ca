package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"itag/internal/dataset"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{name: "quality"}
	if s.Name() != "quality" {
		t.Error("name")
	}
	if _, ok := s.Last(); ok {
		t.Error("empty series must have no last point")
	}
	s.Add(1, 0.5)
	s.Add(2, 0.7)
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	last, ok := s.Last()
	if !ok || last.X != 2 || last.Y != 0.7 {
		t.Errorf("last = %+v", last)
	}
	pts := s.Points()
	pts[0].Y = -1
	if s.Points()[0].Y == -1 {
		t.Error("Points must return a copy")
	}
}

func TestSeriesCSV(t *testing.T) {
	s := &Series{name: "q"}
	s.Add(0, 0.25)
	s.Add(10, 0.5)
	got := s.CSV()
	want := "x,q\n0,0.25\n10,0.5\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	if !strings.HasPrefix(got, "x,q\n") {
		t.Error("missing header")
	}
}

func TestSeriesConcurrent(t *testing.T) {
	s := &Series{name: "c"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Add(float64(i), float64(i))
				_ = s.Len()
				_, _ = s.Last()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 4000 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestMonitorFanOut(t *testing.T) {
	m := NewMonitor()
	sub := m.Subscribe(16)
	defer sub.Cancel()

	m.Record(SeriesMeanStability, 1, 0.5)
	m.Eventf(1, "promote", "resource %s", "r1")

	want := []string{NotifyTick, NotifyEvent}
	for i, wantType := range want {
		select {
		case n := <-sub.C:
			if n.Type != wantType {
				t.Fatalf("notification %d = %q, want %q", i, n.Type, wantType)
			}
			switch wantType {
			case NotifyTick:
				if n.Series != SeriesMeanStability || n.X != 1 || n.Y != 0.5 {
					t.Errorf("tick = %+v", n)
				}
			case NotifyEvent:
				if n.Event == nil || n.Event.Kind != "promote" {
					t.Errorf("event = %+v", n)
				}
			}
		case <-time.After(time.Second):
			t.Fatalf("no %q notification", wantType)
		}
	}
	if sub.Dropped() != 0 {
		t.Errorf("dropped = %d", sub.Dropped())
	}
}

func TestMonitorSlowSubscriberDropsNotBlocks(t *testing.T) {
	m := NewMonitor()
	sub := m.Subscribe(16) // buffer floor
	defer sub.Cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			m.Record(SeriesMeanStability, float64(i), 0.1)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if sub.Dropped() == 0 {
		t.Error("expected drops with a full buffer")
	}
	received := 0
	for range len(sub.C) {
		<-sub.C
		received++
	}
	if int64(received)+sub.Dropped() != 100 {
		t.Errorf("received %d + dropped %d != 100", received, sub.Dropped())
	}
}

func TestMonitorCancelDetaches(t *testing.T) {
	m := NewMonitor()
	sub := m.Subscribe(16)
	sub.Cancel()
	sub.Cancel() // idempotent
	m.Record(SeriesMeanStability, 1, 1)
	if _, open := <-sub.C; open {
		t.Error("cancelled subscription channel still open")
	}
}

// TestServiceSubscribeSeesRun wires the fan-out end to end: a subscriber
// attached through the Service observes a tick for every post of a project
// tagged to its budget, and a provider's promote.
func TestServiceSubscribeSeesRun(t *testing.T) {
	ctx := context.Background()
	s := newService(t)
	p := createSimProject(t, s, 60)
	proj := p.id

	sub, err := s.Subscribe(ctx, proj, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if _, err := s.Subscribe(ctx, "ghost", 16); err == nil {
		t.Error("subscribe to unknown project must fail")
	}

	if err := s.Promote(ctx, proj, p.resource(0)); err != nil {
		t.Fatal(err)
	}
	p.tagUntilSpent(t, s)
	ticks, promotes, last := 0, 0, 0.0
	for len(sub.C) > 0 {
		switch n := <-sub.C; n.Type {
		case NotifyTick:
			if n.Series == SeriesMeanStability {
				ticks++
				last = n.X
			}
		case NotifyEvent:
			if n.Event.Kind == "promote" {
				promotes++
			}
		}
	}
	// The engine samples its series every recordEvery posts, and at the
	// last one.
	if ticks == 0 || last != 60 || promotes != 1 || sub.Dropped() != 0 {
		t.Errorf("%d stability ticks (last at x=%v), %d promotes, %d dropped; want ticks up to 60, 1 promote, none dropped",
			ticks, last, promotes, sub.Dropped())
	}
}

// TestEngineRunContextCancel proves cancellation actually interrupts a
// stepped run mid-flight.
func TestEngineRunContextCancel(t *testing.T) {
	s := newService(t)
	p := createSimProject(t, s, 50_000_000)

	run, err := s.run(p.id)
	if err != nil {
		t.Fatal(err)
	}
	p.simulate(t, run.Engine)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- run.Engine.RunContext(ctx) }()
	time.Sleep(50 * time.Millisecond) // let it get going
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not stop")
	}
	if spent := run.Engine.Spent(); spent <= 0 || spent >= 50_000_000 {
		t.Errorf("spent = %d, want a partial run", spent)
	}
}

func TestProjectsPageCursors(t *testing.T) {
	ctx := context.Background()
	s := newService(t)
	prov, _ := s.RegisterProvider(ctx, "p")
	for i := 0; i < 5; i++ {
		res := []dataset.Resource{{ID: fmt.Sprintf("res-%d", i), Kind: dataset.KindURL, Name: "example.com"}}
		if _, err := s.CreateProject(ctx, ProjectSpec{ProviderID: prov, Budget: 10, Resources: res}); err != nil {
			t.Fatal(err)
		}
	}
	var all []string
	cursor := ""
	for {
		infos, next, err := s.ProjectsPage(ctx, prov, cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) > 2 {
			t.Fatalf("page size = %d", len(infos))
		}
		for _, info := range infos {
			all = append(all, info.Project.ID)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if len(all) != 5 {
		t.Fatalf("paged projects = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("page order broken: %v", all)
		}
	}
	if _, _, err := s.ProjectsPage(ctx, "", "!!!bad!!!", 2); err == nil {
		t.Error("invalid cursor must fail")
	}
}
