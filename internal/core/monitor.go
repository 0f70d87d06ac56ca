package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Monitor collects the live run telemetry providers watch in the iTag UI
// (paper Fig. 5: quality-score evolution; Fig. 6: per-resource status
// changes). Series are keyed by name and indexed by budget spent, so curves
// across strategies are directly comparable.
//
// Beyond the pull-side Series/Events accessors, a Monitor fans every
// sample and event out to subscribers (Subscribe), which is what feeds the
// server's SSE stream — clients watch a run live instead of polling the
// series endpoints.
type Monitor struct {
	mu     sync.RWMutex
	series map[string]*Series
	events []Event

	subs      map[int]*Subscription
	nextSubID int
	finished  bool
	finishMsg string
	finishAt  int // spent at finish
}

// Standard series names recorded by the engine.
const (
	SeriesMeanStability = "mean_stability"
	SeriesMeanOracle    = "mean_oracle"
	SeriesCountHigh     = "count_ge_tau_high"
	SeriesCountLow      = "count_lt_tau_low"
)

// Event is one notable run occurrence (strategy switch, promote, stop, ...).
type Event struct {
	At     time.Time `json:"at"`
	Spent  int       `json:"spent"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
}

// Point is one (x, y) sample of a series (x is typically budget spent or a
// step counter).
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one recorded curve: an append-only time series, safe for
// concurrent use.
type Series struct {
	mu     sync.RWMutex
	name   string
	points []Point
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{X: x, Y: y})
	s.mu.Unlock()
}

// Len returns the number of points.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.points)
}

// Points returns a copy of the points.
func (s *Series) Points() []Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Last returns the most recent point; ok=false when empty.
func (s *Series) Last() (Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// CSV renders the series as "x,y" lines with a header.
func (s *Series) CSV() string {
	pts := s.Points()
	var b strings.Builder
	fmt.Fprintf(&b, "x,%s\n", s.name)
	for _, p := range pts {
		fmt.Fprintf(&b, "%g,%g\n", p.X, p.Y)
	}
	return b.String()
}

// Notification kinds delivered to subscribers.
const (
	NotifyTick     = "tick"     // one series sample
	NotifyEvent    = "event"    // one Event (promote, stop, switch, ...)
	NotifyFinished = "finished" // the run completed (Err set on failure)
)

// Notification is one telemetry push to a subscriber.
type Notification struct {
	Type   string  `json:"type"`
	Series string  `json:"series,omitempty"` // tick
	X      float64 `json:"x,omitempty"`      // tick: budget spent
	Y      float64 `json:"y,omitempty"`      // tick: series value
	Event  *Event  `json:"event,omitempty"`  // event
	Spent  int     `json:"spent,omitempty"`  // finished
	Err    string  `json:"error,omitempty"`  // finished
}

// Subscription is one receiver of a Monitor's telemetry fan-out. The
// channel is buffered; when a subscriber falls behind, notifications are
// dropped (never blocking the engine) and counted in Dropped.
type Subscription struct {
	// C delivers notifications until Cancel is called.
	C <-chan Notification

	m       *Monitor
	id      int
	ch      chan Notification
	dropped atomic.Int64
	once    sync.Once
}

// Dropped returns how many notifications this subscriber missed because
// its buffer was full.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Cancel detaches the subscription and closes its channel.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.m.mu.Lock()
		delete(s.m.subs, s.id)
		s.m.mu.Unlock()
		close(s.ch)
	})
}

// NewMonitor returns an empty Monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		series: make(map[string]*Series),
		subs:   make(map[int]*Subscription),
	}
}

// Subscribe registers a telemetry receiver with the given channel buffer
// (minimum 16). If the run already finished, the finished notification is
// replayed immediately so late subscribers don't wait forever.
func (m *Monitor) Subscribe(buf int) *Subscription {
	if buf < 16 {
		buf = 16
	}
	ch := make(chan Notification, buf)
	m.mu.Lock()
	m.nextSubID++
	sub := &Subscription{C: ch, ch: ch, m: m, id: m.nextSubID}
	m.subs[sub.id] = sub
	if m.finished {
		ch <- Notification{Type: NotifyFinished, Spent: m.finishAt, Err: m.finishMsg}
	}
	m.mu.Unlock()
	return sub
}

// publishLocked fans one notification out to every subscriber without
// blocking; slow subscribers lose it and their drop counter advances.
// The terminal finished notification is never lost: a full buffer sheds
// its oldest entry instead, so every stream still observes the end of the
// run. Caller holds m.mu (publishers and Cancel both take it, so the
// channel cannot close mid-send).
func (m *Monitor) publishLocked(n Notification) {
	for _, sub := range m.subs {
		select {
		case sub.ch <- n:
			continue
		default:
		}
		if n.Type != NotifyFinished {
			sub.dropped.Add(1)
			continue
		}
		select {
		case <-sub.ch:
			sub.dropped.Add(1)
		default:
		}
		select {
		case sub.ch <- n:
		default:
			sub.dropped.Add(1) // unreachable: only the consumer removes
		}
	}
}

// Record appends y to the named series at x (budget spent) and notifies
// subscribers with a tick.
func (m *Monitor) Record(name string, x, y float64) {
	m.mu.Lock()
	s, ok := m.series[name]
	if !ok {
		s = &Series{name: name}
		m.series[name] = s
	}
	m.publishLocked(Notification{Type: NotifyTick, Series: name, X: x, Y: y})
	m.mu.Unlock()
	s.Add(x, y)
}

// Series returns the named series (nil if never recorded).
func (m *Monitor) Series(name string) *Series {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.series[name]
}

// SeriesNames returns all recorded series names.
func (m *Monitor) SeriesNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.series))
	for name := range m.series {
		out = append(out, name)
	}
	return out
}

// Eventf records a formatted event and notifies subscribers.
func (m *Monitor) Eventf(spent int, kind, format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ev := Event{
		At:     time.Now().UTC(),
		Spent:  spent,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	}
	m.events = append(m.events, ev)
	m.publishLocked(Notification{Type: NotifyEvent, Event: &ev})
}

// Events returns a copy of the event log.
func (m *Monitor) Events() []Event {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Finish marks the run complete and pushes the finished notification.
// Subsequent Subscribe calls see it replayed; calling Finish again (e.g.
// a project re-run after AddBudget) re-arms and re-notifies.
func (m *Monitor) Finish(spent int, runErr error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = true
	m.finishAt = spent
	m.finishMsg = ""
	if runErr != nil {
		m.finishMsg = runErr.Error()
	}
	m.publishLocked(Notification{Type: NotifyFinished, Spent: spent, Err: m.finishMsg})
}

// Restart clears the finished flag when a run resumes (AddBudget followed
// by a new start), so fresh subscribers wait for live telemetry again.
func (m *Monitor) Restart() {
	m.mu.Lock()
	m.finished = false
	m.finishMsg = ""
	m.mu.Unlock()
}

// Finished reports whether Finish has been called (and the spent count at
// that point).
func (m *Monitor) Finished() (bool, int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.finished, m.finishAt
}
