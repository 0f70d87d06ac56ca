package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/rng"
	"itag/internal/store"
	"itag/internal/taggersim"
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

// simProject is a project over eight resources of a generated world,
// uploaded as a provider uploads them: their IDs carry the provider's, so
// the projects of one server never share a resource.
type simProject struct {
	id    string
	world *dataset.World
}

func (c *client) createSimProject(provider string, budget int) simProject {
	c.t.Helper()
	world, err := dataset.Generate(rng.New(1), dataset.GeneratorConfig{NumResources: 8})
	if err != nil {
		c.t.Fatal(err)
	}
	req := CreateProjectReq{ProviderID: provider, Name: "t", Budget: budget, PayPerTask: 0.05}
	for i := range world.Dataset.Resources {
		r := &world.Dataset.Resources[i]
		r.ID = provider + "-" + r.ID
		req.Resources = append(req.Resources, UploadedResource{ID: r.ID, Kind: string(r.Kind), Name: r.Name})
	}
	var resp registerResp
	c.do("POST", "/api/v1/projects", req, http.StatusCreated, &resp)
	return simProject{id: resp.ID, world: world}
}

// resource is the ID of the project's i-th resource.
func (p simProject) resource(i int) string { return p.world.Dataset.Resources[i].ID }

// tag has a simulated tagger, registered for the purpose, lease and submit
// n tasks of the project on the served path, each post what the tagger's
// profile would post.
func (c *client) tag(p simProject, n int) {
	c.t.Helper()
	tagr := c.register("taggers", "sim")
	pop, err := taggersim.NewPopulation(rng.New(2), taggersim.PopulationConfig{Size: 1})
	if err != nil {
		c.t.Fatal(err)
	}
	sim, r := taggersim.NewSimulator(p.world), rng.New(3)
	for i := 0; i < n; i++ {
		var task store.TaskRec
		c.do("POST", "/api/v1/projects/"+p.id+"/tasks", requestTaskReq{TaggerID: tagr}, http.StatusCreated, &task)
		tags, err := sim.GeneratePost(r, &pop.Profiles[0], task.ResourceID)
		if err != nil {
			c.t.Fatal(err)
		}
		c.do("POST", "/api/v1/projects/"+p.id+"/tasks/"+task.ID+"/submit", submitTaskReq{Tags: tags}, http.StatusOK, nil)
	}
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
	c.do("POST", "/api/v1/projects", CreateProjectReq{ProviderID: prov, Budget: -5,
		Resources: []UploadedResource{{ID: "u1", Kind: "url", Name: "example.com"}}}, http.StatusBadRequest, nil)
}

// TestFullSimulatedProjectOverHTTP: a project over generated resources,
// steered by its provider and tagged by a simulated tagger, all through the
// v1 routes, to its budget and past it once the budget grows.
func TestFullSimulatedProjectOverHTTP(t *testing.T) {
	c := newClient(t)
	prov := c.register("providers", "alice")
	p := c.createSimProject(prov, 80)
	proj := p.id

	// List shows it.
	var infos projectsPage
	c.do("GET", "/api/v1/projects?provider="+prov, nil, http.StatusOK, &infos)
	if len(infos.Items) != 1 || infos.Items[0].Project.ID != proj || infos.NextCursor != "" {
		t.Fatalf("projects = %+v", infos)
	}

	// Controls before the first lease.
	r1, r2 := p.resource(1), p.resource(2)
	c.do("POST", "/api/v1/projects/"+proj+"/resources/"+r1+"/promote", nil, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/resources/"+r2+"/stop", nil, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/resources/"+r2+"/resume", nil, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/strategy", strategyReq{Strategy: "mu"}, http.StatusOK, nil)
	c.do("POST", "/api/v1/projects/"+proj+"/strategy", strategyReq{Strategy: "bogus"}, http.StatusBadRequest, nil)

	// Tag it to its budget.
	c.tag(p, 80)
	c.do("POST", "/api/v1/projects/"+proj+"/tasks", requestTaskReq{TaggerID: c.register("taggers", "late")}, http.StatusConflict, nil)
	var info core.ProjectInfo
	c.do("GET", "/api/v1/projects/"+proj, nil, http.StatusOK, &info)
	if info.Spent != 80 || info.PendingTasks != 0 {
		t.Errorf("spent = %d, pending %d", info.Spent, info.PendingTasks)
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

	// Add budget and tag on.
	c.do("POST", "/api/v1/projects/"+proj+"/budget", budgetReq{Extra: 20}, http.StatusOK, nil)
	c.tag(p, 20)
	c.do("GET", "/api/v1/projects/"+proj, nil, http.StatusOK, &info)
	if info.Spent != 100 {
		t.Errorf("spent after the extension = %d, want 100", info.Spent)
	}
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
	proj := c.createSimProject(prov, 50).id
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
	c.do("GET", "/api/v1/projects/ghost/export", nil, http.StatusBadRequest, nil)
}
