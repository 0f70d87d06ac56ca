package client

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// Event is one Server-Sent Event from GET /api/v1/projects/{id}/events.
// Type is the SSE event name; Data the raw JSON payload (decode with the
// typed accessors or json.Unmarshal).
type Event struct {
	Type string
	Data json.RawMessage
}

// SSE event types emitted by the server.
const (
	EventHello    = "hello"     // stream opened; budget spent so far
	EventTick     = "tick"      // one quality-series sample
	EventRunEvent = "run-event" // promote / stop / switch / cancel / ...
	EventDropped  = "dropped"   // this subscriber fell behind; count lost
)

// Tick is the payload of a "tick" event.
type Tick struct {
	Series string  `json:"series"`
	X      float64 `json:"x"` // budget spent
	Y      float64 `json:"y"`
}

// RunEvent is the payload of a "run-event" event.
type RunEvent struct {
	At     string `json:"at"`
	Spent  int    `json:"spent"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Dropped is the payload of a "dropped" event.
type Dropped struct {
	Count int64 `json:"count"`
}

// Tick decodes a tick event (ok=false for other types).
func (e Event) Tick() (Tick, bool) {
	if e.Type != EventTick {
		return Tick{}, false
	}
	var t Tick
	return t, json.Unmarshal(e.Data, &t) == nil
}

// EventStream is a live SSE subscription. Read events from C until it
// closes (Close, context cancellation, or server shutdown), then check Err.
type EventStream struct {
	// C delivers events in arrival order and closes when the stream ends.
	C <-chan Event

	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
	done   chan struct{}
}

// Err reports why the stream ended (nil after Close or a clean end of
// the stream).
func (s *EventStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the stream down; safe to call concurrently and repeatedly.
func (s *EventStream) Close() {
	s.cancel()
	<-s.done
}

// StreamEvents subscribes to a project's live telemetry. The stream stays
// open until ctx is cancelled, Close is called, or the server ends it.
func (c *Client) StreamEvents(ctx context.Context, projectID string) (*EventStream, error) {
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		c.base+"/api/v1/projects/"+url.PathEscape(projectID)+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		cancel()
		return nil, decodeAPIError(resp)
	}

	ch := make(chan Event, 64)
	stream := &EventStream{C: ch, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(stream.done)
		defer close(ch)
		defer resp.Body.Close()
		err := readSSE(resp.Body, func(ev Event) bool {
			select {
			case ch <- ev:
				return true
			case <-sctx.Done():
				return false
			}
		})
		if err != nil && sctx.Err() == nil {
			stream.mu.Lock()
			stream.err = err
			stream.mu.Unlock()
		}
	}()
	return stream, nil
}

// readSSE parses an SSE byte stream, invoking fn per event until fn
// returns false or the stream ends. Comment lines (heartbeats) are
// skipped. A clean EOF returns nil.
func readSSE(r io.Reader, fn func(Event) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev Event
	var data strings.Builder
	flush := func() bool {
		if ev.Type == "" && data.Len() == 0 {
			return true
		}
		if ev.Type == "" {
			ev.Type = "message" // SSE default event name
		}
		ev.Data = json.RawMessage(data.String())
		ok := fn(ev)
		ev = Event{}
		data.Reset()
		return ok
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if !flush() {
				return nil
			}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "event:"):
			ev.Type = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	flush() // stream ended mid-event (server shutdown)
	return nil
}
