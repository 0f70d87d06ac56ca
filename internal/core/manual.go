package core

import (
	"itag/internal/errs"
)

// This file adds the interactive (audience-participation) path of the demo
// (§IV): instead of the engine driving a platform of simulated taggers,
// human taggers request tasks one at a time and submit posts
// asynchronously. The same Algorithm-1 state is used: ChooseNext is
// ChooseResources with |Rc|=1, and SubmitPost is UPDATE.

// ChooseNext assigns the next tagging task: it debits one task from the
// budget and returns the chosen resource ID, and whether the choice consumed
// the resource's promotion (a promotion is one-shot, so a caller that stores
// the flag clears it with this lease). ok=false when the budget is exhausted or
// nothing is eligible. While a task is outstanding the resource's post
// count, as seen by strategies, includes it (Algorithm 1 increments x_i at
// assignment time).
func (e *Engine) ChooseNext() (resourceID string, promoted, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.budget-e.spent <= 0 {
		e.done = true
		return "", false, false
	}
	chosen, n := e.choose(1)
	if len(chosen) == 0 {
		e.done = true
		return "", false, false
	}
	idx := chosen[0]
	e.debit(idx)
	return e.resources[idx].ID, n == 1, true
}

// debit charges one outstanding task to resource i. Callers hold e.mu.
func (e *Engine) debit(i int) {
	e.alloc[i]++
	e.pending[i]++
	e.spent++
	e.touch(i)
	e.reindex(i)
}

// SubmitPost completes an outstanding manual task with the tagger's post.
// The post enters the resource's statistics immediately; approval happens
// post-hoc via judgments in the users manager (paper Fig. 6: providers
// review the latest tagging from the notification feed).
func (e *Engine) SubmitPost(resourceID, taggerID string, tags []string) error {
	return e.submitPost(resourceID, taggerID, tags, nil)
}

// submitPost is SubmitPost with the post hook of this one call: concurrent
// submitters each stage into, and afterwards commit, a write set of their
// own, so each learns the fate of its own post.
func (e *Engine) submitPost(resourceID, taggerID string, tags []string, hook PostHook) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[resourceID]
	if !ok {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown resource %q", resourceID)
	}
	if e.pending[i] <= 0 {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "no outstanding task for resource %q", resourceID)
	}
	if err := e.addPost(i, tags); err != nil {
		return err
	}
	e.pending[i]--
	e.reindex(i)
	if hook != nil {
		hook(resourceID, taggerID, tags)
	}
	e.record()
	return nil
}

// reopenPending makes a submitted task outstanding again: its post entered
// the statistics but could not be persisted, so the task is not done. The
// statistics keep the post until the run is rebuilt from the catalog — a
// WAL that failed a commit accepts no further one, so that is the next
// thing that happens to this process.
func (e *Engine) reopenPending(resourceID string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := e.index[resourceID]
	e.pending[i]++
	e.touch(i)
	e.reindex(i)
}

// rehold debits a task a previous process leased and wrote but that was not
// submitted, as ChooseNext did for it there: the resource counts it, the
// budget holds its pay, and a submit can complete it. False for a resource
// the engine does not have.
func (e *Engine) rehold(resourceID string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[resourceID]
	if ok {
		e.debit(i)
	}
	return ok
}

// CancelPending releases an outstanding manual task (tagger walked away),
// refunding the budget.
func (e *Engine) CancelPending(resourceID string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.index[resourceID]
	if !ok {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "unknown resource %q", resourceID)
	}
	if e.pending[i] <= 0 {
		return errs.New(errs.ComponentCore, errs.CategoryValidation, "no outstanding task for resource %q", resourceID)
	}
	e.pending[i]--
	e.alloc[i]--
	e.spent--
	e.touch(i)
	e.reindex(i)
	e.monitor.Eventf(e.spent, "cancel", "resource %s", resourceID)
	return nil
}

// PendingTasks returns the number of outstanding manual tasks.
func (e *Engine) PendingTasks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, p := range e.pending {
		total += p
	}
	return total
}
