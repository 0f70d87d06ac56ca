package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"itag/internal/core"
	"itag/internal/store"
)

type client struct {
	t   *testing.T
	srv *httptest.Server
}

func newClient(t *testing.T) *client {
	t.Helper()
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 99)
	srv := httptest.NewServer(New(svc, nil))
	t.Cleanup(srv.Close)
	return &client{t: t, srv: srv}
}

func (c *client) do(method, path string, body any, wantStatus int, out any) {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.srv.URL+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		c.t.Fatalf("%s %s: status %d, want %d (body: %v)", method, path, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
}

func (c *client) register(kind, name string) string {
	c.t.Helper()
	var resp registerResp
	c.do("POST", "/api/v1/"+kind, registerReq{Name: name}, http.StatusCreated, &resp)
	if resp.ID == "" {
		c.t.Fatal("empty ID")
	}
	return resp.ID
}

func (c *client) createSimProject(provider string, budget int) string {
	c.t.Helper()
	var resp registerResp
	c.do("POST", "/api/v1/projects", CreateProjectReq{
		ProviderID: provider, Name: "t", Budget: budget, PayPerTask: 0.05,
		Simulate: true, NumResources: 8,
	}, http.StatusCreated, &resp)
	return resp.ID
}

func (c *client) waitDone(projectID string, timeout time.Duration) core.ProjectInfo {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var info core.ProjectInfo
		c.do("GET", "/api/v1/projects/"+projectID, nil, http.StatusOK, &info)
		if !info.Running && info.Spent > 0 {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatal("project did not finish in time")
	return core.ProjectInfo{}
}

func TestHealthz(t *testing.T) {
	c := newClient(t)
	var resp map[string]string
	c.do("GET", "/api/v1/healthz", nil, http.StatusOK, &resp)
	if resp["status"] != "ok" {
		t.Errorf("healthz = %v", resp)
	}
}

func TestRegisterAndGetUser(t *testing.T) {
	c := newClient(t)
	prov := c.register("providers", "alice")
	tagr := c.register("taggers", "bob")
	var u userResp
	c.do("GET", "/api/v1/users/"+prov, nil, http.StatusOK, &u)
	if u.Role != store.RoleProvider || u.ApprovalRate != 1 {
		t.Errorf("provider = %+v", u)
	}
	c.do("GET", "/api/v1/users/"+tagr, nil, http.StatusOK, &u)
	if u.Role != store.RoleTagger {
		t.Errorf("tagger = %+v", u)
	}
	c.do("GET", "/api/v1/users/ghost", nil, http.StatusNotFound, nil)
}

func TestCreateProjectValidationHTTP(t *testing.T) {
	c := newClient(t)
	c.do("POST", "/api/v1/projects", CreateProjectReq{}, http.StatusBadRequest, nil)
	c.do("POST", "/api/v1/projects", map[string]any{"unknown_field": 1}, http.StatusBadRequest, nil)
	prov := c.register("providers", "p")
	c.do("POST", "/api/v1/projects", CreateProjectReq{ProviderID: prov, Budget: -5, Simulate: true}, http.StatusBadRequest, nil)
}

func TestFullSimulatedProjectOverHTTP(t *testing.T) {
	c := newClient(t)
	prov := c.register("providers", "alice")
	proj := c.createSimProject(prov, 80)

	// List shows it.
	var infos projectsPage
	c.do("GET", "/api/v1/projects?provider="+prov, nil, http.StatusOK, &infos)
	if len(infos.Items) != 1 || infos.Items[0].Project.ID != proj || infos.NextCursor != "" {
		t.Fatalf("projects = %+v", infos)
	}

	// Controls before start.
	// A simulated project's resource IDs carry the project's ID.
	r1, r2 := proj+"-r0001", proj+"-r0002"
	c.do("POST", "/api/v1/projects/"+proj+"/resources/"+r1+"/promote", nil, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/resources/"+r2+"/stop", nil, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/resources/"+r2+"/resume", nil, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/strategy", strategyReq{Strategy: "mu"}, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/strategy", strategyReq{Strategy: "bogus"}, http.StatusBadRequest, nil)

	// Run it.
	c.do("POST", "/api/v1/projects/"+proj+"/start", nil, http.StatusAccepted, nil)
	info := c.waitDone(proj, 10*time.Second)
	if info.Spent != 80 {
		t.Errorf("spent = %d", info.Spent)
	}
	if info.MeanStability <= 0 {
		t.Error("no quality tracked")
	}

	// Series.
	var series seriesResp
	c.do("GET", "/api/v1/projects/"+proj+"/series?name="+core.SeriesMeanStability, nil, http.StatusOK, &series)
	if len(series.X) == 0 || len(series.X) != len(series.Y) {
		t.Errorf("series = %d/%d points", len(series.X), len(series.Y))
	}
	c.do("GET", "/api/v1/projects/"+proj+"/series?name=nope", nil, http.StatusBadRequest, nil)

	// Resource detail.
	var st core.ResourceStatus
	c.do("GET", "/api/v1/projects/"+proj+"/resources/"+r1, nil, http.StatusOK, &st)
	if st.ID != r1 {
		t.Errorf("detail = %+v", st)
	}
	c.do("GET", "/api/v1/projects/"+proj+"/resources/zzz", nil, http.StatusBadRequest, nil)

	// Export.
	var rows exportPage
	c.do("GET", "/api/v1/projects/"+proj+"/export", nil, http.StatusOK, &rows)
	if len(rows.Items) != 8 || rows.NextCursor != "" {
		t.Errorf("export rows = %d, next %q", len(rows.Items), rows.NextCursor)
	}

	// Add budget and re-run.
	c.do("POST", "/api/v1/projects/"+proj+"/budget", budgetReq{Extra: 20}, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/start", nil, http.StatusAccepted, nil)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var i2 core.ProjectInfo
		c.do("GET", "/api/v1/projects/"+proj, nil, http.StatusOK, &i2)
		if !i2.Running && i2.Spent == 100 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("extended run did not finish")
}

func TestManualTaggingOverHTTP(t *testing.T) {
	c := newClient(t)
	prov := c.register("providers", "alice")
	tagr := c.register("taggers", "bob")
	var resp registerResp
	c.do("POST", "/api/v1/projects", CreateProjectReq{
		ProviderID: prov, Name: "manual", Budget: 2, PayPerTask: 0.25,
		Resources: []UploadedResource{
			{ID: "u1", Kind: "url", Name: "example.com"},
			{ID: "u2", Kind: "url", Name: "example.org"},
		},
	}, http.StatusCreated, &resp)
	proj := resp.ID

	// Manual projects refuse simulation.
	c.do("POST", "/api/v1/projects/"+proj+"/start", nil, http.StatusBadRequest, nil)

	// Request and submit a task.
	var task store.TaskRec
	c.do("POST", "/api/v1/projects/"+proj+"/tasks", requestTaskReq{TaggerID: tagr}, http.StatusCreated, &task)
	if task.ResourceID == "" || task.Reward != 0.25 {
		t.Fatalf("task = %+v", task)
	}
	c.do("POST", fmt.Sprintf("/api/v1/projects/%s/tasks/%s/submit", proj, task.ID),
		submitTaskReq{Tags: []string{"go", "database"}}, http.StatusOK, nil)
	c.do("POST", fmt.Sprintf("/api/v1/projects/%s/tasks/%s/submit", proj, task.ID),
		submitTaskReq{Tags: []string{"dup"}}, http.StatusBadRequest, nil)

	// Judge the post: approve pays the tagger.
	c.do("POST", fmt.Sprintf("/api/v1/projects/%s/posts/%s/1/judge", proj, task.ResourceID),
		judgeReq{Approved: true}, http.StatusOK, nil)
	c.do("POST", fmt.Sprintf("/api/v1/projects/%s/posts/%s/1/judge", proj, task.ResourceID),
		judgeReq{Approved: false}, http.StatusConflict, nil) // already judged
	c.do("POST", fmt.Sprintf("/api/v1/projects/%s/posts/%s/99/judge", proj, task.ResourceID),
		judgeReq{Approved: true}, http.StatusNotFound, nil)

	var u userResp
	c.do("GET", "/api/v1/users/"+tagr, nil, http.StatusOK, &u)
	if u.Earned != 0.25 || u.UserRec.Earned != 0.25 || u.Judged != 1 || u.JudgedOK != 1 || u.ApprovalRate != 1 {
		t.Errorf("tagger after approval = %+v", u)
	}

	// Tagger rates the provider.
	c.do("POST", "/api/v1/providers/"+prov+"/rate", rateReq{Positive: true}, http.StatusOK, nil)
	c.do("POST", "/api/v1/providers/"+prov+"/rate", rateReq{Positive: false}, http.StatusOK, nil)
	c.do("POST", "/api/v1/providers/ghost/rate", rateReq{Positive: true}, http.StatusNotFound, nil)
	var p userResp
	c.do("GET", "/api/v1/users/"+prov, nil, http.StatusOK, &p)
	if p.Judged != 2 || p.JudgedOK != 1 || p.ApprovalRate != 0.5 || p.Earned != 0 {
		t.Errorf("provider after two ratings = %+v", p)
	}

	// Bad seq parse.
	c.do("POST", fmt.Sprintf("/api/v1/projects/%s/posts/%s/notanumber/judge", proj, task.ResourceID),
		judgeReq{Approved: true}, http.StatusBadRequest, nil)
}

func TestStopProjectOverHTTP(t *testing.T) {
	c := newClient(t)
	prov := c.register("providers", "a")
	proj := c.createSimProject(prov, 50)
	c.do("POST", "/api/v1/projects/"+proj+"/stop", nil, http.StatusOK, nil)
	var info core.ProjectInfo
	c.do("GET", "/api/v1/projects/"+proj, nil, http.StatusOK, &info)
	if info.Project.Status != store.ProjectStopped {
		t.Errorf("status = %s", info.Project.Status)
	}
}

func TestUnknownProjectRoutes(t *testing.T) {
	c := newClient(t)
	c.do("GET", "/api/v1/projects/ghost", nil, http.StatusNotFound, nil)
	c.do("POST", "/api/v1/projects/ghost/start", nil, http.StatusBadRequest, nil)
	c.do("GET", "/api/v1/projects/ghost/export", nil, http.StatusBadRequest, nil)
}
