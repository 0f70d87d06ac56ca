// Package users implements the in-memory tagger tally of the iTag User
// Manager (paper §III, Fig. 2).
//
// It tracks the tagger side of the approval process of §III-A: providers
// approve or reject taggers' posts, yielding a tagger approval rate, and the
// rate gates participation — taggers who consistently produce low-quality
// tags fall below the qualification threshold and stop receiving tasks.
// Simulated engines judge through it (core.Config.Users) and their platforms
// qualify workers by it. The service's human users keep their counts in
// their stored records (store.UserRec), not here.
package users

import (
	"fmt"
	"sort"
	"sync"
)

// Stat is the public view of one tagger's approval record.
type Stat struct {
	ID       string
	Judged   int
	Approved int
	Earned   float64
}

// Rate returns the approval rate; taggers with no judgments yet get 1
// (benefit of the doubt, as crowd platforms grant new workers).
func (s Stat) Rate() float64 {
	if s.Judged == 0 {
		return 1
	}
	return float64(s.Approved) / float64(s.Judged)
}

type stats struct {
	judged   int
	approved int
	earned   float64
}

// Manager tracks approval statistics for taggers.
// It is safe for concurrent use.
type Manager struct {
	mu      sync.RWMutex
	taggers map[string]*stats
}

// NewManager returns an empty Manager.
func NewManager() *Manager {
	return &Manager{taggers: make(map[string]*stats)}
}

// RecordTagJudgment records a provider's verdict on one of the tagger's
// posts; on approval the reward is credited (the Quality Manager "offers
// the unit of incentive to taggers once a tag has been approved", §III-B).
func (m *Manager) RecordTagJudgment(taggerID string, approved bool, reward float64) error {
	if reward < 0 {
		return fmt.Errorf("users: negative reward %v", reward)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.taggers[taggerID]
	if !ok {
		s = &stats{}
		m.taggers[taggerID] = s
	}
	s.judged++
	if approved {
		s.approved++
		s.earned += reward
	}
	return nil
}

// TaggerApprovalRate returns the tagger's approval rate (1 if unknown or
// unjudged).
func (m *Manager) TaggerApprovalRate(id string) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return rate(m.taggers[id])
}

func rate(s *stats) float64 {
	if s == nil || s.judged == 0 {
		return 1
	}
	return float64(s.approved) / float64(s.judged)
}

// TaggerEarnings returns the total incentives credited to a tagger.
func (m *Manager) TaggerEarnings(id string) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if s := m.taggers[id]; s != nil {
		return s.earned
	}
	return 0
}

// Qualified reports whether a tagger meets the qualification gate: at least
// minRate approval once they have minJudged or more judgments. Taggers with
// fewer judgments are qualified (they have not had a fair chance yet).
func (m *Manager) Qualified(taggerID string, minRate float64, minJudged int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := m.taggers[taggerID]
	if s == nil || s.judged < minJudged {
		return true
	}
	return rate(s) >= minRate
}

// QualifiedTaggers returns the IDs of judged taggers passing the gate,
// sorted.
func (m *Manager) QualifiedTaggers(minRate float64, minJudged int) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for id, s := range m.taggers {
		if s.judged < minJudged || rate(s) >= minRate {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// TaggerStats returns a snapshot of all tagger stats, sorted by ID.
func (m *Manager) TaggerStats() []Stat {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Stat, 0, len(m.taggers))
	for id, s := range m.taggers {
		out = append(out, Stat{ID: id, Judged: s.judged, Approved: s.approved, Earned: s.earned})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
