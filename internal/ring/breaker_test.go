package ring

import (
	"testing"
	"time"
)

// TestBackoffScheduleRegression pins the shared retry curve: capped
// exponential from base, so a regression in the schedule (say, a refactor
// that drops the cap or doubles from the wrong origin) fails loudly instead
// of silently hammering dead peers.
func TestBackoffScheduleRegression(t *testing.T) {
	cases := []struct {
		base, max time.Duration
		streak    int
		want      time.Duration
	}{
		{100 * time.Millisecond, time.Second, 0, 100 * time.Millisecond},
		{100 * time.Millisecond, time.Second, 1, 200 * time.Millisecond},
		{100 * time.Millisecond, time.Second, 2, 400 * time.Millisecond},
		{100 * time.Millisecond, time.Second, 3, 800 * time.Millisecond},
		{100 * time.Millisecond, time.Second, 4, time.Second},
		{100 * time.Millisecond, time.Second, 50, time.Second},
		// Zero base falls back to the 250ms default.
		{0, time.Second, 0, 250 * time.Millisecond},
		// A cap below the base clamps to the base.
		{500 * time.Millisecond, 100 * time.Millisecond, 5, 500 * time.Millisecond},
		// Streaks far past where base<<streak would overflow int64 settle
		// at the cap instead of going negative.
		{50 * time.Millisecond, 30 * time.Second, 64, 30 * time.Second},
		{50 * time.Millisecond, 30 * time.Second, 1 << 19, 30 * time.Second},
	}
	for _, c := range cases {
		if got := Backoff(c.base, c.max, c.streak); got != c.want {
			t.Errorf("Backoff(%v, %v, %d) = %v, want %v", c.base, c.max, c.streak, got, c.want)
		}
	}
	// Jitter spreads over [d/2, 3d/2) and never collapses to zero.
	d := 100 * time.Millisecond
	for i := 0; i < 200; i++ {
		j := Jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("Jitter(%v) = %v outside [%v, %v)", d, j, d/2, d+d/2)
		}
	}
	if Jitter(0) != 0 {
		t.Errorf("Jitter(0) = %v, want 0", Jitter(0))
	}
}

// TestBreaker walks the one circuit breaker through its state machine, one
// scenario per row: each row replays a script of events against a fresh
// breaker and states what the breaker must answer at every step.
func TestBreaker(t *testing.T) {
	const (
		threshold = 3
		cool      = time.Second
	)
	t0 := time.Unix(1_700_000_000, 0)
	mid := t0.Add(cool / 2)                  // inside the first cooldown
	after := t0.Add(cool + time.Millisecond) // first cooldown elapsed
	after2 := after.Add(cool + time.Millisecond)

	type step struct {
		op   string // allow | fail | success | release | open
		at   time.Time
		want bool // allow: admitted; fail: (re)opened; open: refusing
	}
	openAtT0 := []step{{"fail", t0, false}, {"fail", t0, false}, {"fail", t0, true}}
	with := func(prefix []step, more ...step) []step { return append(append([]step(nil), prefix...), more...) }

	cases := []struct {
		name  string
		steps []step
		opens uint64
	}{
		{"zero value is closed", []step{{"allow", t0, true}, {"open", t0, false}}, 0},
		{"stays closed under the threshold", []step{
			{"allow", t0, true}, {"fail", t0, false}, {"allow", t0, true}, {"fail", t0, false},
			{"open", t0, false}, {"allow", t0, true},
		}, 0},
		{"a success resets the failure count", []step{
			{"fail", t0, false}, {"fail", t0, false}, {"success", t0, false},
			{"fail", t0, false}, {"fail", t0, false}, {"allow", t0, true},
		}, 0},
		{"opens at the threshold and refuses during the cooldown", with(openAtT0,
			step{"open", mid, true}, step{"allow", mid, false}), 1},
		{"admits a single probe after the cooldown", with(openAtT0,
			step{"open", after, false}, step{"allow", after, true}, step{"allow", after, false}), 1},
		{"a cancelled probe is released for the next caller", with(openAtT0,
			step{"allow", after, true}, step{"release", after, false},
			step{"allow", after, true}, step{"allow", after, false}), 1},
		{"a failed probe re-opens at once, without a fresh threshold", with(openAtT0,
			step{"allow", after, true}, step{"fail", after, true},
			step{"open", after.Add(cool / 2), true}, step{"allow", after.Add(cool / 2), false},
			step{"allow", after2, true}), 2},
		{"a successful probe closes the circuit fully", with(openAtT0,
			step{"allow", after, true}, step{"success", after, false},
			step{"open", after, false}, step{"allow", after, true}, step{"allow", after, true},
			step{"fail", after, false}), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b Breaker
			for i, s := range tc.steps {
				var got bool
				switch s.op {
				case "allow":
					got = b.Allow(s.at)
				case "fail":
					got = b.Failure(s.at, threshold, cool)
				case "open":
					got = b.Open(s.at)
				case "success":
					b.Success()
				case "release":
					b.Release()
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if got != s.want {
					t.Fatalf("step %d (%s at +%v) = %v, want %v", i, s.op, s.at.Sub(t0), got, s.want)
				}
			}
			if b.opens != tc.opens {
				t.Errorf("opens = %d, want %d", b.opens, tc.opens)
			}
		})
	}

	// Peek is the read-only view health classification and metrics scrapes
	// rely on: it must never create an entry, or every scrape inflates the
	// tracked-peer count to the full ring and pins stale addresses.
	t.Run("peek allocates nothing", func(t *testing.T) {
		var ps Breakers
		if b := ps.Peek("node-a:8080"); b != nil {
			t.Fatal("Peek of an uncontacted peer returned a breaker")
		}
		if _, total, _ := ps.Snapshot(t0); total != 0 {
			t.Fatalf("Peek allocated: %d peers tracked, want 0", total)
		}
		b := ps.Get("node-a:8080")
		if ps.Peek("node-a:8080") != b {
			t.Fatal("Peek missed a contacted peer's breaker")
		}
		for i := 0; i < threshold; i++ {
			b.Failure(t0, threshold, cool)
		}
		if open, total, opens := ps.Snapshot(mid); open != 1 || total != 1 || opens != 1 {
			t.Fatalf("Snapshot = (%d open, %d total, %d opens), want (1, 1, 1)", open, total, opens)
		}
	})
}
