package users

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestNewUsersHaveFullRate(t *testing.T) {
	m := NewManager()
	// Unknown taggers default to 1 (no evidence against them).
	if got := m.TaggerApprovalRate("stranger"); got != 1 {
		t.Errorf("unknown tagger rate = %v", got)
	}
	if len(m.TaggerStats()) != 0 {
		t.Errorf("a new manager holds stats: %+v", m.TaggerStats())
	}
}

func TestRecordTagJudgment(t *testing.T) {
	m := NewManager()
	for i := 0; i < 7; i++ {
		if err := m.RecordTagJudgment("t1", true, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := m.RecordTagJudgment("t1", false, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TaggerApprovalRate("t1"); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("rate = %v, want 0.7", got)
	}
	if got := m.TaggerEarnings("t1"); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("earnings = %v, want 0.35 (only approved posts pay)", got)
	}
	if err := m.RecordTagJudgment("t1", true, -1); err == nil {
		t.Error("negative reward must be rejected")
	}
	if m.TaggerEarnings("nobody") != 0 {
		t.Error("unknown tagger earnings must be 0")
	}
}

func TestQualification(t *testing.T) {
	m := NewManager()
	// Below minJudged: always qualified regardless of rate.
	m.RecordTagJudgment("rookie", false, 0)
	if !m.Qualified("rookie", 0.9, 5) {
		t.Error("rookie with 1 judgment must still qualify")
	}
	// Enough judgments, bad rate: disqualified.
	for i := 0; i < 10; i++ {
		_ = m.RecordTagJudgment("bad", i < 2, 0)
	}
	if m.Qualified("bad", 0.5, 5) {
		t.Error("bad tagger must be disqualified")
	}
	// Enough judgments, good rate: qualified.
	for i := 0; i < 10; i++ {
		_ = m.RecordTagJudgment("good", i > 0, 0)
	}
	if !m.Qualified("good", 0.5, 5) {
		t.Error("good tagger must qualify")
	}
	// Unknown taggers qualify.
	if !m.Qualified("stranger", 0.99, 1) {
		t.Error("unknown tagger must qualify")
	}
}

func TestQualifiedTaggersSorted(t *testing.T) {
	m := NewManager()
	_ = m.RecordTagJudgment("zeta", true, 0)
	_ = m.RecordTagJudgment("alpha", false, 0)
	for i := 0; i < 10; i++ {
		_ = m.RecordTagJudgment("mid", false, 0)
	}
	got := m.QualifiedTaggers(0.5, 5)
	if !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("qualified = %v", got)
	}
}

func TestStatsSnapshots(t *testing.T) {
	m := NewManager()
	_ = m.RecordTagJudgment("t1", true, 0.10)
	ts := m.TaggerStats()
	if len(ts) != 1 || ts[0].ID != "t1" || ts[0].Approved != 1 || ts[0].Earned != 0.10 {
		t.Errorf("tagger stats = %+v", ts)
	}
	if ts[0].Rate() != 1 {
		t.Errorf("rate = %v", ts[0].Rate())
	}
	if (Stat{}).Rate() != 1 {
		t.Error("empty stat rate must be 1")
	}
}

func TestConcurrentJudgments(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = m.RecordTagJudgment("t1", true, 0.01)
				_ = m.TaggerApprovalRate("t1")
			}
		}()
	}
	wg.Wait()
	st := m.TaggerStats()
	if st[0].Judged != 4000 {
		t.Errorf("judged = %d, want 4000", st[0].Judged)
	}
	if math.Abs(m.TaggerEarnings("t1")-40.0) > 1e-6 {
		t.Errorf("earnings = %v, want 40", m.TaggerEarnings("t1"))
	}
}
