package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"itag/internal/core"
	"itag/internal/store"
)

// TestRouteDeadlineScope: with a 1 ns route deadline, only the routes that
// loop over items and check their context per item time out — taggers:batch
// and the projects list answer 504 timeout, tasks:batch answers 200 with
// every item failing timeout — while a lease, a submit and a judge, which
// read their context once, answer as they would with no deadline at all.
func TestRouteDeadlineScope(t *testing.T) {
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	srv := httptest.NewServer(NewWith(svc, Options{RouteTimeout: time.Nanosecond}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	c := &client{t: t, srv: srv}
	prov := c.register("providers", "p")
	tagger := c.register("taggers", "t")
	var created registerResp
	c.do("POST", "/api/v1/projects", CreateProjectReq{
		ProviderID: prov, Name: "deadline", Budget: 10, PayPerTask: 0.1,
		Resources: []UploadedResource{{ID: "u1", Kind: "url", Name: "a"}, {ID: "u2", Kind: "url", Name: "b"}},
	}, http.StatusCreated, &created)
	proj := "/api/v1/projects/" + created.ID

	timedOut := func(method, path string, body any) {
		t.Helper()
		status, raw := rawDo(t, c, method, path, body)
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || status != http.StatusGatewayTimeout || env.Error.Code != "timeout" {
			t.Errorf("%s %s: %d %s, want 504 timeout", method, path, status, raw)
		}
	}
	timedOut("POST", "/api/v1/taggers:batch", map[string][]string{"names": {"a", "b", "c"}})
	timedOut("GET", "/api/v1/projects?provider="+prov, nil)

	var batch batchTasksResp
	c.do("POST", proj+"/tasks:batch", batchTasksReq{Items: []core.BatchItem{
		{TaggerID: tagger, Tags: []string{"go"}}, {TaggerID: tagger, Tags: []string{"web"}},
	}}, http.StatusOK, &batch)
	if batch.OK != 0 || batch.Failed != 2 {
		t.Errorf("tasks:batch = %+v, want both items failed", batch)
	}
	for i, res := range batch.Results {
		if res.Error == nil || res.Error.Code != "timeout" {
			t.Errorf("tasks:batch item %d = %+v, want a timeout error", i, res)
		}
	}

	var task store.TaskRec
	c.do("POST", proj+"/tasks", map[string]string{"tagger_id": tagger}, http.StatusCreated, &task)
	c.do("POST", fmt.Sprintf("%s/tasks/%s/submit", proj, task.ID), submitTaskReq{Tags: []string{"go"}}, http.StatusOK, nil)
	c.do("POST", fmt.Sprintf("%s/posts/%s/1/judge", proj, task.ResourceID), judgeReq{Approved: true}, http.StatusOK, nil)
}
