package chaos

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"itag/internal/store"
)

// fakeClock pins the schedule's notion of now so window tests are exact.
type fakeClock struct{ at atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.at.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.at.Add(int64(d)) }

func clocked(s *Schedule) *fakeClock {
	c := &fakeClock{}
	c.at.Store(1) // non-zero so Start() arms
	s.now = c.now
	return c
}

func TestScheduleWindows(t *testing.T) {
	s := NewSchedule(1, Fault{Kind: KindPartition, From: "a", To: "b", After: 100 * time.Millisecond, For: 50 * time.Millisecond})
	clk := clocked(s)

	if v := s.Leg("a", "b"); v.Drop {
		t.Fatal("disarmed schedule dropped traffic")
	}
	s.Start()
	if v := s.Leg("a", "b"); v.Drop {
		t.Fatal("fault active before its window")
	}
	clk.advance(120 * time.Millisecond)
	if v := s.Leg("a", "b"); !v.Drop || !v.Unreachable {
		t.Fatalf("want partition drop inside window, got %+v", v)
	}
	if v := s.Leg("b", "a"); !v.Drop {
		t.Fatal("two-way partition did not drop the reverse leg")
	}
	if v := s.Leg("a", "c"); v.Drop {
		t.Fatal("partition leaked onto an unmatched host")
	}
	clk.advance(60 * time.Millisecond)
	if v := s.Leg("a", "b"); v.Drop {
		t.Fatal("fault still active after its window")
	}
	s.Stop()
	clk.advance(-60 * time.Millisecond)
	if v := s.Leg("a", "b"); v.Drop {
		t.Fatal("stopped schedule dropped traffic")
	}
}

func TestOneWayPartitionAndHostMatching(t *testing.T) {
	s := NewSchedule(1, Fault{Kind: KindPartition, From: "http://a", To: "b", OneWay: true})
	clocked(s)
	s.Start()
	if v := s.Leg("a", "b"); !v.Drop {
		t.Fatal("one-way partition did not drop the forward leg (scheme-insensitive match)")
	}
	if v := s.Leg("b", "a"); v.Drop {
		t.Fatal("one-way partition dropped the reverse leg")
	}
}

func TestLossDeterministicAndSeeded(t *testing.T) {
	run := func(seed int64) []bool {
		s := NewSchedule(seed, Fault{Kind: KindLoss, From: "a", To: "*", P: 0.5})
		clocked(s)
		s.Start()
		out := make([]bool, 64)
		for i := range out {
			out[i] = s.Leg("a", "b").Drop
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	drops := 0
	for _, d := range a {
		if d {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("p=0.5 loss dropped %d/%d — not probabilistic", drops, len(a))
	}
}

func TestLatencyAccumulates(t *testing.T) {
	s := NewSchedule(1,
		Fault{Kind: KindLatency, To: "b", Delay: 10 * time.Millisecond},
		Fault{Kind: KindLatency, From: "a", Delay: 5 * time.Millisecond},
	)
	clocked(s)
	s.Start()
	if got := s.Leg("a", "b").Delay; got != 15*time.Millisecond {
		t.Fatalf("want accumulated 15ms delay, got %v", got)
	}
}

// recordTransport notes whether the inner round trip ran.
type recordTransport struct{ calls atomic.Int64 }

func (rt *recordTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.calls.Add(1)
	rec := httptest.NewRecorder()
	rec.WriteString("ok")
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func TestTransportLegs(t *testing.T) {
	newReq := func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, "http://b/x", nil)
		return req
	}

	t.Run("partition fails before dispatch", func(t *testing.T) {
		inner := &recordTransport{}
		s := NewSchedule(1, Fault{Kind: KindPartition, From: "a", To: "b"})
		clocked(s)
		s.Start()
		_, err := Wrap(inner, s, "a").RoundTrip(newReq())
		if !errors.Is(err, syscall.EHOSTUNREACH) {
			t.Fatalf("want EHOSTUNREACH, got %v", err)
		}
		if inner.calls.Load() != 0 {
			t.Fatal("partitioned request reached the inner transport")
		}
	})

	t.Run("response-leg loss runs the handler then loses the reply", func(t *testing.T) {
		inner := &recordTransport{}
		s := NewSchedule(1, Fault{Kind: KindLoss, From: "b", To: "a", P: 1})
		clocked(s)
		s.Start()
		_, err := Wrap(inner, s, "a").RoundTrip(newReq())
		var op *net.OpError
		if !errors.As(err, &op) || op.Op != "read" {
			t.Fatalf("want read-side reset, got %v", err)
		}
		if inner.calls.Load() != 1 {
			t.Fatal("response-leg loss must execute the request first")
		}
	})

	t.Run("disarmed schedule is a passthrough", func(t *testing.T) {
		inner := &recordTransport{}
		s := NewSchedule(1, Fault{Kind: KindPartition, From: "a", To: "b"})
		resp, err := Wrap(inner, s, "a").RoundTrip(newReq())
		if err != nil {
			t.Fatalf("passthrough failed: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		if string(body) != "ok" {
			t.Fatalf("unexpected body %q", body)
		}
	})
}

// echoTransport answers every request at once, its response body reading
// what the request body carries: an exchange that streams both ways.
type echoTransport struct{}

func (echoTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: req.Body, ContentLength: -1, Request: req}, nil
}

// TestStreamedExchangeLegs: a request body of unknown length is an exchange
// that streams both ways, and a schedule armed while it is open still
// reaches it. A dropped leg cuts the exchange at the Read that carried the
// bytes, with the error a dropped request gets, every later Read on it
// fails the same way, and Cuts counts it once, under its leg.
func TestStreamedExchangeLegs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault Fault
		want  syscall.Errno
		cuts  [2]uint64
	}{
		{"partition on the request leg", Fault{Kind: KindPartition, From: "a", To: "b", OneWay: true}, syscall.EHOSTUNREACH, [2]uint64{1, 0}},
		{"loss on the response leg", Fault{Kind: KindLoss, From: "b", To: "a", P: 1}, syscall.ECONNRESET, [2]uint64{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSchedule(1)
			clocked(s)
			pr, pw := io.Pipe()
			defer pw.Close()
			req, _ := http.NewRequest(http.MethodPost, "http://b/stream", pr)
			resp, err := Wrap(echoTransport{}, s, "a").RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			frame := func(b string) (string, error) {
				go io.WriteString(pw, b)
				p := make([]byte, len(b))
				n, err := io.ReadFull(resp.Body, p)
				return string(p[:n]), err
			}
			if got, err := frame("one"); got != "one" || err != nil {
				t.Fatalf("disarmed: read %q, %v", got, err)
			}
			s.Faults = []Fault{tc.fault}
			s.Start()
			for i := 0; i < 2; i++ {
				if _, err := frame("two"); !errors.Is(err, tc.want) {
					t.Fatalf("read %d after the fault: %v, want %v", i, err, tc.want)
				}
			}
			if req, resp := s.Cuts(); [2]uint64{req, resp} != tc.cuts {
				t.Fatalf("Cuts() = %d, %d; want %v", req, resp, tc.cuts)
			}
		})
	}
}

// TestDiskFaultsThroughTheStoreHook drives a schedule's disk faults through
// the hook each store is opened with: a stall slows a write, a torn write
// crashes the store it matches and no other, and an operation-scoped fault
// leaves the other operations alone.
func TestDiskFaultsThroughTheStoreHook(t *testing.T) {
	dir := t.TempDir()
	s := NewSchedule(1,
		Fault{Kind: KindDiskStall, Host: "node-a", Delay: 30 * time.Millisecond, After: 0, For: 0},
	)
	clocked(s)
	// Both stores take the one schedule's hook; faults pick them by path.
	open := func(name string) *store.DB {
		db, err := store.Open(dir+"/"+name+".wal", store.Options{SyncEvery: 1, Fault: s.Disk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	db := open("node-a")

	put := func(db *store.DB) error { return db.Put("t", "k", 1) }
	if err := put(db); err != nil {
		t.Fatalf("write with disarmed schedule: %v", err)
	}
	s.Start()
	t0 := time.Now()
	if err := put(db); err != nil {
		t.Fatalf("stalled write failed: %v", err)
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("stall not applied: write took %v", d)
	}

	// A torn rename touches no write; a torn write crashes the store, which
	// stays crashed.
	s.Faults = []Fault{{Kind: KindTornWrite, Host: "node-a", Op: store.FileRename}}
	if err := put(db); err != nil {
		t.Fatalf("a fault pinned to renames failed a write: %v", err)
	}
	s.Faults = []Fault{{Kind: KindTornWrite, Host: "node-a"}}
	if err := put(db); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("want ErrCrashed from torn write, got %v", err)
	}
	s.Stop()
	if err := put(db); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("a crashed store took a write once the fault went: %v", err)
	}

	// Other stores are untouched by a host-scoped fault.
	db2 := open("node-b")
	s.Start()
	if err := put(db2); err != nil {
		t.Fatalf("host-scoped fault leaked to another store: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("seed=42;after=5s,for=2s,partition,from=*,to=node-b;latency=30ms,to=node-c;loss=0.25,from=node-a,oneway;stall=100ms,host=node-a,op=sync;torn-write,host=node-b")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 {
		t.Fatalf("seed = %d", s.Seed)
	}
	if len(s.Faults) != 5 {
		t.Fatalf("want 5 faults, got %d", len(s.Faults))
	}
	want := []Kind{KindPartition, KindLatency, KindLoss, KindDiskStall, KindTornWrite}
	for i, k := range want {
		if s.Faults[i].Kind != k {
			t.Fatalf("fault %d kind = %v, want %v", i, s.Faults[i].Kind, k)
		}
	}
	if f := s.Faults[0]; f.After != 5*time.Second || f.For != 2*time.Second || f.To != "node-b" {
		t.Fatalf("partition clause parsed wrong: %+v", f)
	}
	if f := s.Faults[3]; f.Op != store.FileSync || f.Delay != 100*time.Millisecond {
		t.Fatalf("stall clause parsed wrong: %+v", f)
	}

	for _, bad := range []string{
		"",
		"seed=7",
		"loss=1.5,from=a",
		"latency=fast",
		"after=1s",
		"bogus=1",
		"stall=1ms,op=append",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}
