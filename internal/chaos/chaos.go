// Package chaos is the fault-injection layer: a seeded, deterministic
// schedule of network and disk faults that tests (the replication-history
// checker among them) and `itagd -chaos-spec` script against the real
// stack.
//
// A Schedule holds an ordered set of Faults, each active inside a window
// relative to Start(). Network faults (partition, one-way loss, latency
// spikes) are applied by the Transport RoundTripper wrapper and the
// WrapListener accept wrapper, disk faults (stalls, torn writes) by
// Schedule.Disk, the store.FaultHook a store is opened with. Nothing is
// process-wide: without a schedule nothing is wrapped or hooked.
//
// Determinism: the schedule's probabilistic draws (loss) come from a
// counter-hashed stream seeded by Schedule.Seed, so two runs that issue the
// same sequence of matching requests see the same drops regardless of
// wall-clock jitter. Window activation is wall-clock relative to Start(),
// which is as deterministic as the workload driving it.
package chaos

import (
	"strings"
	"sync/atomic"
	"time"

	"itag/internal/store"
)

// Kind names a fault class.
type Kind uint8

const (
	// KindPartition drops every matching request with an unreachable
	// error — both directions unless OneWay.
	KindPartition Kind = iota + 1
	// KindLoss drops matching traffic with probability P. The request leg
	// (From→To) fails before dispatch; the response leg (a fault whose
	// From is the responder) lets the request execute and then loses the
	// reply — the classic acked-but-unconfirmed window.
	KindLoss
	// KindLatency delays matching traffic by Delay before dispatch.
	KindLatency
	// KindDiskStall sleeps Delay before a matching file operation, then
	// lets it proceed (no crash): a hiccuping disk.
	KindDiskStall
	// KindTornWrite kills the store at a matching file operation (a write
	// unless Op says otherwise), a write putting down half its bytes first:
	// the torn record a dying process leaves for recovery.
	KindTornWrite
)

func (k Kind) String() string {
	switch k {
	case KindPartition:
		return "partition"
	case KindLoss:
		return "loss"
	case KindLatency:
		return "latency"
	case KindDiskStall:
		return "stall"
	case KindTornWrite:
		return "torn-write"
	}
	return "unknown"
}

// Fault is one scheduled fault. Zero windows mean "from Start, forever";
// host patterns are compared scheme-insensitively and "*" (or "") matches
// any host.
type Fault struct {
	Kind Kind

	// From/To scope network faults by traffic direction.
	From, To string
	// OneWay restricts a partition to the From→To direction.
	OneWay bool

	// Host scopes disk faults to file paths containing this substring
	// ("*"/"" matches every file of every store the hook serves).
	Host string
	// Op pins a disk fault to one file operation (0 = any operation for
	// stalls, store.FileWrite for torn writes).
	Op store.FileOp

	// After offsets activation from Schedule.Start; For bounds the active
	// window (<=0 = until the schedule stops).
	After, For time.Duration
	// Delay is the injected latency (KindLatency) or stall (KindDiskStall).
	Delay time.Duration
	// P is the drop probability for KindLoss (<=0 or >=1 means always).
	P float64
}

// Schedule is a seeded fault plan. It is inert until Start is called; all
// methods are safe for concurrent use.
type Schedule struct {
	Seed   int64
	Faults []Fault

	start atomic.Int64  // unixnano of Start; 0 = inactive
	draws atomic.Uint64 // loss-draw counter (determinism)
	cuts  [2]atomic.Uint64

	now func() time.Time // test override; nil = time.Now
}

// NewSchedule builds a schedule over the given faults.
func NewSchedule(seed int64, faults ...Fault) *Schedule {
	return &Schedule{Seed: seed, Faults: faults}
}

// Start arms the schedule: fault windows are measured from this instant.
// Starting an armed schedule rebases the windows.
func (s *Schedule) Start() {
	if s == nil {
		return
	}
	s.start.Store(s.clock().UnixNano())
}

// Stop disarms the schedule; every fault goes inactive immediately.
func (s *Schedule) Stop() {
	if s == nil {
		return
	}
	s.start.Store(0)
}

// Cuts reports how many open exchanges a dropped leg has cut since the
// schedule was made, by the leg that dropped: the request leg (a replicate
// stream's shipments) and the response leg (its acks).
func (s *Schedule) Cuts() (request, response uint64) {
	return s.cuts[0].Load(), s.cuts[1].Load()
}

// Active reports whether the schedule has been started and not stopped.
func (s *Schedule) Active() bool { return s != nil && s.start.Load() != 0 }

func (s *Schedule) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// elapsed returns the time since Start, or false when disarmed.
func (s *Schedule) elapsed() (time.Duration, bool) {
	st := s.start.Load()
	if st == 0 {
		return 0, false
	}
	return s.clock().Sub(time.Unix(0, st)), true
}

func (f *Fault) activeAt(d time.Duration) bool {
	if d < f.After {
		return false
	}
	return f.For <= 0 || d < f.After+f.For
}

// hostOf canonicalizes an address for matching: scheme stripped, nothing
// else touched ("http://node-a" and "node-a" are the same host).
func hostOf(s string) string {
	if i := strings.Index(s, "://"); i >= 0 {
		return s[i+3:]
	}
	return s
}

func matchHost(pattern, host string) bool {
	p := hostOf(pattern)
	return p == "" || p == "*" || p == hostOf(host)
}

// draw returns the n-th value of the seeded uniform [0,1) stream. The
// counter is global to the schedule, so determinism holds as long as the
// sequence of draws is the same — which a seeded workload guarantees.
func (s *Schedule) draw() float64 {
	n := s.draws.Add(1)
	x := uint64(s.Seed)*0x9E3779B97F4A7C15 + n*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (f *Fault) lossHits(s *Schedule) bool {
	if f.P <= 0 || f.P >= 1 {
		return true
	}
	return s.draw() < f.P
}

// NetVerdict is the outcome of evaluating one traffic leg.
type NetVerdict struct {
	// Drop fails the leg: requests die before dispatch, responses are
	// discarded after the handler ran.
	Drop bool
	// Unreachable marks a Drop as a partition (host-unreachable error)
	// rather than packet loss (connection-reset error).
	Unreachable bool
	// Delay is the accumulated injected latency for the leg.
	Delay time.Duration
}

// Leg evaluates the faults matching traffic flowing from→to right now.
// The zero verdict means "deliver normally".
func (s *Schedule) Leg(from, to string) NetVerdict {
	var v NetVerdict
	if s == nil {
		return v
	}
	d, ok := s.elapsed()
	if !ok {
		return v
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if !f.activeAt(d) {
			continue
		}
		switch f.Kind {
		case KindPartition:
			fwd := matchHost(f.From, from) && matchHost(f.To, to)
			rev := !f.OneWay && matchHost(f.From, to) && matchHost(f.To, from)
			if fwd || rev {
				v.Drop, v.Unreachable = true, true
			}
		case KindLoss:
			if matchHost(f.From, from) && matchHost(f.To, to) && f.lossHits(s) {
				v.Drop = true
			}
		case KindLatency:
			if matchHost(f.From, from) && matchHost(f.To, to) {
				v.Delay += f.Delay
			}
		}
	}
	return v
}

// Disk is the schedule's disk faults as a store.FaultHook. Every active
// fault that matches the operation and the file's path acts on it: the
// stalls' delays are slept, and a torn write crashes the store, a write
// putting down the first half of its bytes.
func (s *Schedule) Disk(op store.FileOp, path string, n int) (crash bool, keep int) {
	d, ok := s.elapsed()
	if !ok {
		return false, 0
	}
	var stall time.Duration
	for i := range s.Faults {
		f := &s.Faults[i]
		if !f.activeAt(d) || f.Host != "" && f.Host != "*" && !strings.Contains(path, f.Host) {
			continue
		}
		switch f.Kind {
		case KindDiskStall:
			if f.Op == 0 || f.Op == op {
				stall += f.Delay
			}
		case KindTornWrite:
			if f.Op == op || f.Op == 0 && op == store.FileWrite {
				crash = true
			}
		}
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	return crash, n / 2
}
