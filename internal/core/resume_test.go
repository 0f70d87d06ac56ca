package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"itag/internal/dataset"
	"itag/internal/store"
)

// TestResumeRunsAfterFailover replays the cluster promotion scenario: a
// second Service over the same catalog (as a promoted follower holds after
// replication) must rebuild enough in-memory state to keep serving the
// manual-tagging surface without ID collisions.
func TestResumeRunsAfterFailover(t *testing.T) {
	ctx := context.Background()
	db := store.OpenMemory()
	s1 := NewService(store.NewCatalog(db), 7)
	defer s1.Close()

	prov, err := s1.RegisterProvider(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := s1.RegisterTagger(ctx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := s1.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "manual", Budget: 10, PayPerTask: 0.05,
		Resources: []dataset.Resource{{ID: "res-a", Name: "A"}, {ID: "res-b", Name: "B"}},
		SeedPosts: map[string][][]string{"res-a": {{"seed", "tags"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Complete two tasks and leave a third assigned (in flight at "crash").
	for i := 0; i < 2; i++ {
		task, err := s1.RequestTask(ctx, proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.SubmitTask(ctx, proj, task.ID, []string{"alpha", "beta"}); err != nil {
			t.Fatal(err)
		}
	}
	// The provider approves one of the tagger's posts and rejects the other,
	// and the tagger rates the provider twice.
	verdict := true
	for _, res := range []string{"res-a", "res-b"} {
		posts, err := s1.Catalog().PostsOf(res)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range posts {
			if p.TaggerID != tagger {
				continue
			}
			if err := s1.JudgePost(ctx, proj, res, uint64(i+1), verdict); err != nil {
				t.Fatal(err)
			}
			verdict = !verdict
		}
	}
	for _, positive := range []bool{true, false} {
		if err := s1.RateProvider(ctx, prov, positive); err != nil {
			t.Fatal(err)
		}
	}
	inflight, err := s1.RequestTask(ctx, proj, tagger)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.StopResource(ctx, proj, "res-b"); err != nil {
		t.Fatal(err)
	}

	// Failover: a fresh Service over the same catalog, no process state.
	s2 := NewService(store.NewCatalog(db), 7)
	defer s2.Close()
	if _, err := s2.RequestTask(ctx, proj, tagger); err == nil {
		t.Fatal("RequestTask before ResumeRuns should fail (no live run)")
	}
	n, err := s2.ResumeRuns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ResumeRuns rebuilt %d runs, want 1", n)
	}
	if n2, err := s2.ResumeRuns(ctx); err != nil || n2 != 0 {
		t.Fatalf("second ResumeRuns = (%d, %v), want idempotent (0, nil)", n2, err)
	}

	// The promoted service reads the judgments made before the failover:
	// they are in the user records, not in the process that judged them.
	if u := storedUser(t, s2, tagger); u.Judged != 2 || u.JudgedOK != 1 || u.Earned != 0.05 || u.ApprovalRate() != 0.5 {
		t.Errorf("tagger after the failover = %+v, want 2 judged, 1 approved, earned one pay", u)
	}
	if u := storedUser(t, s2, prov); u.Judged != 2 || u.JudgedOK != 1 || u.Earned != 0 {
		t.Errorf("provider after the failover = %+v, want 2 ratings, 1 positive", u)
	}

	// The task in flight at the failover is held by the promoted service:
	// spent and pending count it, and its tagger's submit completes it.
	if info, err := s2.Project(ctx, proj); err != nil || info.Spent != 3 || info.PendingTasks != 1 {
		t.Fatalf("after the failover spent = %d, pending = %d, %v; want 3, 1", info.Spent, info.PendingTasks, err)
	}
	if err := s2.SubmitTask(ctx, proj, inflight.ID, []string{"delta"}); err != nil {
		t.Fatalf("submit of the task in flight at the failover: %v", err)
	}
	if info, err := s2.Project(ctx, proj); err != nil || info.Spent != 3 || info.PendingTasks != 0 {
		t.Fatalf("after the held task was submitted spent = %d, pending = %d, %v; want 3, 0", info.Spent, info.PendingTasks, err)
	}
	if got, err := s2.Catalog().GetTask(proj, inflight.ID); err != nil || got.Status != store.TaskCompleted {
		t.Fatalf("stored task after its submit = %+v, %v", got, err)
	}

	// Task IDs must continue past every persisted task, including the one
	// still assigned at failover.
	task, err := s2.RequestTask(ctx, proj, tagger)
	if err != nil {
		t.Fatalf("RequestTask after resume: %v", err)
	}
	if task.ID <= inflight.ID {
		t.Fatalf("resumed task ID %q does not continue past %q", task.ID, inflight.ID)
	}
	if err := s2.SubmitTask(ctx, proj, task.ID, []string{"gamma"}); err != nil {
		t.Fatal(err)
	}

	// The stopped resource flag survived into the rebuilt engine: with
	// res-b stopped every new assignment lands on res-a.
	for i := 0; i < 3; i++ {
		tk, err := s2.RequestTask(ctx, proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if tk.ResourceID != "res-a" {
			t.Fatalf("task %q assigned stopped resource %q", tk.ID, tk.ResourceID)
		}
	}

	// Judging after the failover counts on top of what was judged before it.
	posts, err := s2.Catalog().PostsOf("res-a")
	if err != nil || len(posts) == 0 {
		t.Fatalf("PostsOf after failover: %d posts, err %v", len(posts), err)
	}
	if err := s2.JudgePost(ctx, proj, "res-a", 1, true); err != nil {
		t.Fatalf("JudgePost after resume: %v", err)
	}
	last := len(posts)
	if posts[last-1].TaggerID != tagger || posts[last-1].Approved != nil {
		t.Fatalf("res-a's last post = %+v, want an unjudged post by %s", posts[last-1], tagger)
	}
	if err := s2.JudgePost(ctx, proj, "res-a", uint64(last), true); err != nil {
		t.Fatalf("JudgePost after resume: %v", err)
	}
	if u := storedUser(t, s2, tagger); u.Judged != 3 || u.JudgedOK != 2 || u.Earned != 0.10 {
		t.Errorf("tagger after a judgment on the promoted service = %+v, want 3 judged, 2 approved", u)
	}

	// Newly minted IDs continue past replicated ones.
	tag2, err := s2.RegisterTagger(ctx, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if tag2 == tagger || tag2 <= tagger {
		t.Fatalf("new tagger ID %q collides with or precedes replicated %q", tag2, tagger)
	}
}

// TestPromotionSurvivesResume: a promotion is stored with its resource, so
// a service rebuilt over the same catalog (a restart, a failover) leases the
// promoted resource first; the lease that consumes it clears the stored
// flag in its own commit, so the service rebuilt after that lease follows
// the strategy again.
func TestPromotionSurvivesResume(t *testing.T) {
	ctx := context.Background()
	db := store.OpenMemory()
	resume := func() *Service {
		t.Helper()
		s := NewService(store.NewCatalog(db), 7)
		if n, err := s.ResumeRuns(ctx); err != nil || n != 1 {
			t.Fatalf("ResumeRuns = %d, %v; want one run", n, err)
		}
		return s
	}
	promoted := func(s *Service) bool {
		t.Helper()
		r, err := s.Catalog().GetResource("res-00")
		if err != nil {
			t.Fatal(err)
		}
		return r.Promoted
	}
	s1 := NewService(store.NewCatalog(db), 7)
	prov, err := s1.RegisterProvider(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	tagger, err := s1.RegisterTagger(ctx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	spec := ProjectSpec{ProviderID: prov, Name: "promoted", Budget: 20, PayPerTask: 0.05, Strategy: "fp"}
	for i := 0; i < 10; i++ {
		spec.Resources = append(spec.Resources, dataset.Resource{ID: fmt.Sprintf("res-%02d", i)})
	}
	proj, err := s1.CreateProject(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Promote(ctx, proj, "res-00"); err != nil {
		t.Fatal(err)
	}
	if !promoted(s1) {
		t.Fatal("Promote did not store the flag")
	}

	s2 := resume()
	task, err := s2.RequestTask(ctx, proj, tagger)
	if err != nil || task.ResourceID != "res-00" {
		t.Fatalf("the resumed service leased %q (%v), want the promoted res-00", task.ResourceID, err)
	}
	if promoted(s2) {
		t.Fatal("the lease that consumed the promotion left the stored flag set")
	}

	s3 := resume()
	if st, err := s3.ResourceDetail(ctx, proj, "res-00"); err != nil || st.Promoted {
		t.Fatalf("res-00 after the second resume = %+v, %v; want its promotion spent", st, err)
	}
	if task, err := s3.RequestTask(ctx, proj, tagger); err != nil || task.ResourceID == "res-00" {
		t.Fatalf("after the promotion was spent the resumed service leased %q (%v); fp picks a resource with fewer posts", task.ResourceID, err)
	}

	// A tasks:batch call clears the flag in the commit of its items.
	if err := s3.Promote(ctx, proj, "res-00"); err != nil {
		t.Fatal(err)
	}
	out, err := s3.BatchTasks(ctx, proj, []BatchItem{{TaggerID: tagger}, {TaggerID: tagger, Tags: []string{"x"}}}, nil)
	if err != nil || len(out) != 2 || out[0].ResourceID != "res-00" || out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("BatchTasks after a promotion = %+v, %v; want its first lease on res-00", out, err)
	}
	if promoted(s3) {
		t.Fatal("the batch that consumed the promotion left the stored flag set")
	}
}

// TestResumeRunsSkipsExhaustedProjects: a project with no budget left gets
// no run — reads still work, task issuance reports a missing run.
func TestResumeRunsSkipsExhaustedProjects(t *testing.T) {
	ctx := context.Background()
	db := store.OpenMemory()
	s1 := NewService(store.NewCatalog(db), 3)
	defer s1.Close()
	prov, _ := s1.RegisterProvider(ctx, "p")
	tagger, _ := s1.RegisterTagger(ctx, "t")
	proj, err := s1.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Budget: 2,
		Resources: []dataset.Resource{{ID: "res-x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		task, err := s1.RequestTask(ctx, proj, tagger)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.SubmitTask(ctx, proj, task.ID, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}

	s2 := NewService(store.NewCatalog(db), 3)
	defer s2.Close()
	if n, err := s2.ResumeRuns(ctx); err != nil || n != 0 {
		t.Fatalf("ResumeRuns = (%d, %v), want (0, nil) for exhausted project", n, err)
	}
	if _, err := s2.Project(ctx, proj); err != nil {
		t.Fatalf("exhausted project must stay readable: %v", err)
	}
}

func TestNewIDFilter(t *testing.T) {
	ctx := context.Background()
	s := NewService(store.NewCatalog(store.OpenMemory()), 1)
	defer s.Close()
	// Only IDs ending in an even digit are "ours".
	s.SetIDFilter(func(prefix, id string) bool {
		return int(id[len(id)-1]-'0')%2 == 0
	})
	for i := 0; i < 5; i++ {
		id, err := s.RegisterTagger(ctx, "t")
		if err != nil {
			t.Fatal(err)
		}
		if int(id[len(id)-1]-'0')%2 != 0 {
			t.Fatalf("minted ID %q rejected by the installed filter", id)
		}
		if !strings.HasPrefix(id, "tag-") {
			t.Fatalf("unexpected ID shape %q", id)
		}
	}
}

// TestResumeRunsForgetsFoldedRows: the rows a follower folded for a project's
// export while it had no run are dropped once ResumeRuns gives it one, and
// the export then comes from the run's engine.
func TestResumeRunsForgetsFoldedRows(t *testing.T) {
	ctx := context.Background()
	db := store.OpenMemory()
	s1 := NewService(store.NewCatalog(db), 7)
	prov, err := s1.RegisterProvider(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := s1.CreateProject(ctx, ProjectSpec{
		ProviderID: prov, Name: "manual", Budget: 10, PayPerTask: 0.05,
		Resources: []dataset.Resource{{ID: "res-a", Name: "A"}, {ID: "res-b", Name: "B"}},
		SeedPosts: map[string][][]string{"res-a": {{"seed", "tags"}}, "res-b": {{"seed"}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	s2 := NewService(store.NewCatalog(db), 7)
	folded, _, err := s2.ExportPage(ctx, proj, "", 0)
	if err != nil || len(folded) != 2 {
		t.Fatalf("export with no run: %d rows, %v", len(folded), err)
	}
	if n := len(s2.folded.rows); n != 2 {
		t.Fatalf("%d folded rows after the export, want 2", n)
	}
	if n, err := s2.ResumeRuns(ctx); err != nil || n != 1 {
		t.Fatalf("ResumeRuns = %d, %v; want 1 run", n, err)
	}
	if n := len(s2.folded.rows); n != 0 {
		t.Fatalf("%d folded rows outlive the resumed run", n)
	}
	rows, _, err := s2.ExportPage(ctx, proj, "", 0)
	if err != nil || len(rows) != 2 {
		t.Fatalf("export after ResumeRuns: %d rows, %v", len(rows), err)
	}
	for i := range rows {
		if rows[i].ID != folded[i].ID || rows[i].Posts != folded[i].Posts {
			t.Fatalf("row %d after ResumeRuns is %+v, the fold read %+v", i, rows[i], folded[i])
		}
	}
	if n := len(s2.folded.rows); n != 0 {
		t.Fatalf("the export of a resumed run folded %d rows", n)
	}
}
