package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"itag/internal/api"
	"itag/internal/core"
	"itag/internal/errs"
	"itag/internal/store"
	"itag/internal/wire"
)

// TestBatchCallsKeepTheirOwnResults runs 200-item tasks:batch calls from
// several goroutines at once through New's handler, each goroutine for a
// tagger of its own, and holds every answer to its own call: one result per
// item, in item order, each naming a task the store holds for that tagger
// and that resource, completed exactly when the item carried tags, and no
// task named twice. The request-only items' leases are all held afterwards.
// A call's items, tags and results live in pooled arrays until its response
// is written, so a release before the encode hands them to another call.
func TestBatchCallsKeepTheirOwnResults(t *testing.T) {
	const goroutines, calls, items = 4, 12, 200
	svc := core.NewService(store.NewCatalog(store.OpenMemory()), 5)
	srv := httptest.NewServer(New(svc, nil))
	defer srv.Close()
	c := &client{t: t, srv: srv}
	prov := c.register("providers", "p")
	resources := make([]string, 300)
	for i := range resources {
		resources[i] = fmt.Sprintf("r%03d", i)
	}
	proj := c.manualProject(prov, goroutines*calls*items, resources...)
	taggers := make([]string, goroutines)
	for g := range taggers {
		taggers[g] = c.register("taggers", fmt.Sprintf("t%d", g))
	}

	var mu sync.Mutex
	seen := make(map[string]bool)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := batchTasksReq{Items: make([]core.BatchItem, items)}
			for i := range req.Items {
				req.Items[i].TaggerID = taggers[g]
				if i%2 == 0 {
					req.Items[i].Tags = []string{fmt.Sprintf("g%d", g), fmt.Sprintf("i%d", i)}
				}
			}
			body, _ := json.Marshal(req)
			for n := range calls {
				resp, err := http.Post(srv.URL+"/api/v1/projects/"+proj+"/tasks:batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out batchTasksResp
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || out.OK != items || len(out.Results) != items {
					t.Errorf("tagger %d call %d: %d, ok %d of %d results (%v)", g, n, resp.StatusCode, out.OK, len(out.Results), err)
					return
				}
				for i, res := range out.Results {
					task, err := svc.Catalog().GetTask(proj, res.TaskID)
					want := store.TaskAssigned
					if i%2 == 0 {
						want = store.TaskCompleted
					}
					if err != nil || task.WorkerID != taggers[g] || task.ResourceID != res.ResourceID ||
						task.Status != want || res.Submitted != (i%2 == 0) {
						t.Errorf("tagger %d call %d item %d: result %+v, stored %+v (%v)", g, n, i, res, task, err)
						return
					}
					mu.Lock()
					dup := seen[res.TaskID]
					seen[res.TaskID] = true
					mu.Unlock()
					if dup {
						t.Errorf("tagger %d call %d item %d: task %s answered twice", g, n, i, res.TaskID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var info core.ProjectInfo
	c.do("GET", "/api/v1/projects/"+proj, nil, http.StatusOK, &info)
	if want := goroutines * calls * items / 2; info.PendingTasks != want {
		t.Errorf("%d leases held after the calls, want %d", info.PendingTasks, want)
	}
}

// TestPooledBatchDecodeMatchesReq: the route's request, decoded into
// arrays drawn from batchCalls (some of them holding an earlier call's
// items), decodes every body the way batchTasksReq's decoder does, which
// FuzzRequestDecodeParity holds to encoding/json.
func TestPooledBatchDecodeMatchesReq(t *testing.T) {
	bodies := []string{
		`{"items":[{"tagger_id":"tag-000002","tags":["cat","tabby"]},{"tagger_id":"tag-000003"}]}`,
		`{"items":[]}`,
		`{"items":null}`,
		`{"items":[{"tags":[],"tagger_id":"t"},{"tags":null,"tagger_id":"u"}]}`,
		`{"items":[{"tagger_id":"a","tags":["x","y","z","w","v"]},{"tagger_id":"b","tags":["q"]},{"tagger_id":"c"}]}`,
	}
	for range 3 {
		for _, body := range bodies {
			var want batchTasksReq
			var got batchTasksCall
			okWant := wire.Into([]byte(body), &want, func(d *wire.Decoder, v *batchTasksReq) bool { return v.DecodeWire(d) })
			okGot := wire.Into([]byte(body), &got, func(d *wire.Decoder, v *batchTasksCall) bool { return v.DecodeWire(d) })
			if okGot != okWant || !reflect.DeepEqual(got.batchTasksReq, want) {
				t.Fatalf("%s: pooled decode %v %#v, want %v %#v", body, okGot, got.batchTasksReq, okWant, want)
			}
			got.Release()
		}
	}
}

// TestCoreResultsEncodeAsResults holds the handler's answer, encoded
// straight from the core's results, to json.Marshal of the same answer
// copied into batchTaskResults the way the handler once copied it: seeded
// task and resource IDs of tricky strings, item errors of several kinds,
// and the items a cancelled call never reached, which fail with its error.
func TestCoreResultsEncodeAsResults(t *testing.T) {
	itemErrs := []error{nil, nil, context.DeadlineExceeded, context.Canceled, store.ErrNotFound,
		errs.New(errs.ComponentCore, errs.CategoryExhausted, "project budget exhausted"),
		api.Errorf(http.StatusConflict, api.CodeConflict, "held <%s>", "x")}
	r := rand.New(rand.NewSource(1))
	for range 2000 {
		n := 1 + r.Intn(5)
		results := make([]core.BatchResult, r.Intn(n+1))
		for i := range results {
			results[i] = core.BatchResult{TaskID: trickyStrings[r.Intn(len(trickyStrings))],
				ResourceID: trickyStrings[r.Intn(len(trickyStrings))], Submitted: r.Intn(2) == 0,
				Err: itemErrs[r.Intn(len(itemErrs))]}
		}
		var ctxErr error
		if len(results) < n {
			ctxErr = itemErrs[2+r.Intn(2)]
		}
		got := batchTasksResp{OK: r.Intn(9), Failed: r.Intn(9), results: results, n: n, ctxErr: ctxErr}
		want := batchTasksResp{OK: got.OK, Failed: got.Failed, Results: make([]batchTaskResult, n)}
		for i := range want.Results {
			res := core.BatchResult{Err: ctxErr}
			if i < len(results) {
				res = results[i]
			}
			want.Results[i] = batchTaskResult{TaskID: res.TaskID, ResourceID: res.ResourceID, Submitted: res.Submitted}
			if res.Err != nil {
				want.Results[i].Error = toItemError(res.Err)
			}
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := got.AppendJSON(nil); !ok || string(b) != string(wantJSON) {
			t.Fatalf("%+v:\nAppendJSON   %s (%v)\njson.Marshal %s", got, b, ok, wantJSON)
		}
	}
}
