package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"itag/internal/crowd"
	"itag/internal/store"
)

// TestResourceClockCoversStatus is the contract the response cache's
// stamps stand on: whatever an operation changes in what Engine.Status
// reports for a resource, it moves that resource's clock; whatever it
// changes in what Service.Project reports from the run, it moves the
// engine's. Seeded random sequences of every path that touches engine
// state — lease, submit, cancel, promote (and its one-shot consumption),
// stop, resume, simulated steps, strategy switch, budget extension, and at
// the end of each sequence the paths only a failed commit or an exhausted
// post source or a platform outage reaches (SubmitTask's reopenPending,
// RequestTask's refund, update's refund, a step whose Publish fails) — are
// checked op by op.
//
// Mutation check: without the e.touch(idx) in ChooseNext the first lease of
// every seed fails this test ("allocated" moves, the clock does not).
func TestResourceClockCoversStatus(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { clockCoversStatus(t, seed) })
	}
}

func clockCoversStatus(t *testing.T, seed int64) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))
	tear, opts := tornAppends(store.Options{})
	db := openWAL(t, filepath.Join(t.TempDir(), "itag.wal"), opts)
	s := NewService(store.NewCatalog(db), seed)
	p := createSimProject(t, s, 400)
	proj, tagger := p.id, p.taggers[0]
	run, err := s.run(proj)
	if err != nil {
		t.Fatal(err)
	}
	e := run.Engine
	// Leases are ChooseResources with |Rc| = 1: with a marketplace to step
	// through as well, one engine sees every path.
	p.simulate(t, e)
	ids := make([]string, len(e.resources))
	for i, res := range e.resources {
		ids[i] = res.ID
	}

	type snapshot struct {
		status   []ResourceStatus
		resClock []uint64
		info     ProjectInfo
		engClock uint64
	}
	snap := func() snapshot {
		sn := snapshot{engClock: e.engClock.Load()}
		for i, id := range ids {
			st, err := e.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			sn.status = append(sn.status, st)
			sn.resClock = append(sn.resClock, e.resClock[i].Load())
		}
		if sn.info, err = s.Project(ctx, proj); err != nil {
			t.Fatal(err)
		}
		// The record is the projects table's to version.
		sn.info.Project = store.ProjectRec{}
		return sn
	}
	before := snap()
	check := func(op string) {
		t.Helper()
		after := snap()
		for i := range ids {
			if !reflect.DeepEqual(before.status[i], after.status[i]) && after.resClock[i] == before.resClock[i] {
				t.Fatalf("%s changed what Status(%s) reports without moving its clock:\n before %+v\n after  %+v",
					op, ids[i], before.status[i], after.status[i])
			}
			if after.resClock[i] < before.resClock[i] {
				t.Fatalf("%s moved %s's clock backwards", op, ids[i])
			}
		}
		if before.info != after.info && after.engClock == before.engClock {
			t.Fatalf("%s changed what Project reports without moving the engine clock:\n before %+v\n after  %+v",
				op, before.info, after.info)
		}
		before = after
	}

	var held []store.TaskRec
	lease := func() {
		task, err := s.RequestTask(ctx, proj, tagger)
		if err == nil {
			held = append(held, task)
		}
		check(fmt.Sprintf("lease (%v)", err))
	}
	take := func() store.TaskRec {
		i := r.Intn(len(held))
		task := held[i]
		held = append(held[:i], held[i+1:]...)
		return task
	}
	for step := 0; step < 150; step++ {
		id := ids[r.Intn(len(ids))]
		switch op := r.Intn(10); {
		case op < 3 || len(held) == 0 && op < 5:
			lease()
		case op < 5:
			task := take()
			err := s.SubmitTask(ctx, proj, task.ID, []string{"go", fmt.Sprintf("t%d", r.Intn(6))})
			check(fmt.Sprintf("submit (%v)", err))
		case op == 5 && len(held) > 0:
			task := take()
			run.refund(task.ID, task.ResourceID) // the tagger walked away: CancelPending
			check("cancel")
		case op == 5:
			err := s.SwitchStrategy(ctx, proj, []string{"fp", "mu", "fp-mu", "random"}[r.Intn(4)])
			check(fmt.Sprintf("switch strategy (%v)", err))
		case op == 6:
			err := s.Promote(ctx, proj, id)
			check(fmt.Sprintf("promote %s (%v)", id, err))
		case op == 7:
			err := s.StopResource(ctx, proj, id)
			check(fmt.Sprintf("stop %s (%v)", id, err))
		case op == 8:
			err := s.ResumeResource(ctx, proj, id)
			check(fmt.Sprintf("resume %s (%v)", id, err))
		default:
			if r.Intn(4) == 0 {
				err := s.AddBudget(ctx, proj, 16)
				check(fmt.Sprintf("add budget (%v)", err))
			}
			_, err := e.StepOnce()
			check(fmt.Sprintf("simulated step (%v)", err))
		}
	}

	// The store stops taking commits: a submit's post is in the statistics
	// and its task is reopened; a lease is refunded.
	for len(held) == 0 {
		if err := s.AddBudget(ctx, proj, 16); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			_ = s.ResumeResource(ctx, proj, id)
		}
		before = snap()
		lease()
	}
	tear.Start()
	if err := s.SubmitTask(ctx, proj, take().ID, []string{"lost"}); err == nil {
		t.Fatal("SubmitTask acked a post the store did not take")
	}
	check("submit over a failed commit")
	if _, err := s.RequestTask(ctx, proj, tagger); err == nil {
		t.Fatal("RequestTask acked a task the store did not take")
	}
	check("lease over a failed commit")

	// Two changes ride in operations whose other half has already moved the
	// clocks — a reopened task after its post was folded in, a simulated
	// task that came back empty after it was allocated — but each is a
	// critical section of its own a reader can land between: alone, too.
	e.reopenPending(ids[0])
	check("reopen pending")
	e.update(crowd.Result{Task: crowd.Task{ResourceID: ids[1]}, Err: ErrResourceExhausted})
	check("exhausted result")

	// A simulated step whose platform refuses the batch: the promotion choose
	// consumed is a Status change even though nothing was allocated.
	e.cfg.Platform = refusingPlatform{e.cfg.Platform}
	for _, id := range ids[2:5] {
		if err := e.ResumeResource(id); err != nil {
			t.Fatal(err)
		}
		if err := e.Promote(id); err != nil {
			t.Fatal(err)
		}
	}
	before = snap()
	if _, err := e.StepOnce(); err == nil {
		t.Fatal("StepOnce succeeded on a platform that publishes nothing")
	}
	check("simulated step over a failed publish")
}

// refusingPlatform fails every Publish.
type refusingPlatform struct{ crowd.Platform }

func (refusingPlatform) Publish(crowd.Task) error { return errors.New("platform down") }
