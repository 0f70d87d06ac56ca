package core

// Run resumption rebuilds a Service's in-memory state from the catalog — the
// one call behind a daemon's boot, a cluster slot's boot and a follower's
// promotion. A restarted process, like a follower that takes over a key
// range, holds the full persisted state (projects, resources, posts, tasks,
// users) but no process state: no live Runs, an ID counter at zero. Users
// need nothing rebuilt: their judgment counts and earnings are their stored
// records, written in the commit of each verdict, and read from there.
// ResumeRuns reconstructs what the catalog can support:
//
//   - the ID counter advances past every persisted ID so new registrations
//     and projects cannot collide with replicated ones
//   - every active project with remaining budget gets a rebuilt Run:
//     seed posts replayed from the post log restore the engine's quality
//     state, resource stop/promote flags are re-applied, and the task
//     counter resumes past the highest persisted task ID so task IDs stay
//     unique across the failover; the run reports what was spent before it
//     on top of what its engine spends
//   - every task leased and written but not submitted is held again: its
//     resource counts it, the budget keeps its pay, it shows in PendingTasks
//     and its tagger's submit completes it, as it would have before
//     the restart or promotion

import (
	"context"
	"strconv"
	"strings"

	"itag/internal/dataset"
	"itag/internal/store"
	"itag/internal/strategy"
)

// ResumeRuns rebuilds in-memory run state from the catalog (see the file
// comment). It is idempotent: projects that already hold a live run are
// left alone. Returns the number of runs rebuilt.
func (s *Service) ResumeRuns(ctx context.Context) (int, error) {
	users, err := s.cat.ListUsers("")
	if err != nil {
		return 0, err
	}
	maxID := 0
	for _, u := range users {
		maxID = maxIDSuffix(maxID, u.ID)
	}
	projects, err := s.cat.ListProjects("")
	if err != nil {
		return 0, err
	}
	for _, rec := range projects {
		maxID = maxIDSuffix(maxID, rec.ID)
	}
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()

	resumed := 0
	for _, rec := range projects {
		if err := ctx.Err(); err != nil {
			return resumed, err
		}
		if rec.Status != store.ProjectActive {
			continue
		}
		s.mu.Lock()
		_, live := s.runs[rec.ID]
		s.mu.Unlock()
		if live {
			continue
		}
		run, err := s.rebuildRun(rec)
		if err != nil {
			return resumed, err
		}
		if run == nil {
			continue // exhausted or unresumable; reads stay served
		}
		s.mu.Lock()
		if _, exists := s.runs[rec.ID]; !exists {
			s.runs[rec.ID] = run
			resumed++
		}
		s.mu.Unlock()
		// The project's answers now come from the engine, not the catalog:
		// whatever was stamped while it had no run is retired.
		s.bumpRunsEpoch()
	}
	return resumed, nil
}

// rebuildRun reconstructs one project's Run from the catalog, or
// returns (nil, nil) when the project cannot issue further tasks (budget
// exhausted, no resources).
func (s *Service) rebuildRun(rec store.ProjectRec) (*Run, error) {
	recs, err := s.cat.ListResources(rec.ID)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	resources := make([]dataset.Resource, len(recs))
	seedPosts := make(map[string][][]string)
	for i, r := range recs {
		resources[i] = dataset.Resource{
			ID: r.ID, Kind: dataset.Kind(r.Kind), Name: r.Name,
			Topic: r.Topic, Popularity: r.Popularity,
		}
		posts, perr := s.cat.PostsOf(r.ID)
		if perr != nil {
			return nil, perr
		}
		for _, p := range posts {
			if len(p.Tags) > 0 {
				seedPosts[r.ID] = append(seedPosts[r.ID], p.Tags)
			}
		}
	}
	tasks, err := s.cat.TasksByProject(rec.ID, "")
	if err != nil {
		return nil, err
	}
	completed, maxTask := 0, 0
	var leased []store.TaskRec
	for _, t := range tasks {
		switch t.Status {
		case store.TaskCompleted:
			completed++
		case store.TaskAssigned:
			leased = append(leased, t)
		}
		maxTask = maxIDSuffix(maxTask, t.ID)
	}
	// The engine re-counts budget from zero and debits the leases again, so
	// size it to what is left besides them. Spent is persisted on stop/finish,
	// leases outstanding then included; completed plus leased tasks are the
	// live lower bound for a leader that died mid-run.
	spent := max(rec.Spent, completed+len(leased)) - len(leased)
	if rec.Budget-spent <= 0 {
		return nil, nil
	}
	strat, err := strategy.Parse(rec.Strategy)
	if err != nil {
		return nil, err
	}
	spec := ProjectSpec{
		ProviderID: rec.ProviderID, Name: rec.Name, Kind: rec.Kind,
		Budget: rec.Budget - spent, PayPerTask: rec.PayPerTask,
		Strategy: rec.Strategy, Platform: rec.Platform,
		Resources: resources, SeedPosts: seedPosts,
	}
	run, err := s.buildRun(spec, strat, s.seed+int64(maxTask))
	if err != nil {
		return nil, err
	}
	run.taskSeq = maxTask
	run.spentBefore = spent
	for _, t := range leased {
		if run.Engine.rehold(t.ResourceID) {
			run.hold(t)
		}
	}
	for _, r := range recs {
		if r.Promoted {
			_ = run.Engine.Promote(r.ID)
		}
		if r.Stopped {
			_ = run.Engine.StopResource(r.ID)
		}
	}
	return run, nil
}

// maxIDSuffix folds an ID of the form "<prefix>-<digits>" into the running
// maximum of its numeric suffix (IDs minted by newID and RequestTask).
func maxIDSuffix(cur int, id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return cur
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n <= cur {
		return cur
	}
	return n
}
