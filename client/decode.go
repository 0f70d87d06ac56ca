package client

import (
	"encoding/json"

	"itag/internal/wire"
)

// decode decodes a 200 body into out: directly when decodeDirect can, with
// encoding/json otherwise.
func decode(body []byte, out any) error {
	if decodeDirect(body, out) {
		return nil
	}
	return json.Unmarshal(body, out)
}

// decodeDirect decodes a 200 body into out without reflection when out is
// one of the types decoded on a hot path — the dashboard types *ExportPage,
// *ResourceStatus and *ProjectInfo (the responses copyResponse retains), and
// the tagger's *Task and *BatchTasksResp — and the body is shaped the way the
// server writes them (see wire.Into). It reports whether it decoded; on
// anything else it declines and leaves out untouched, for encoding/json to
// decode — or reject — exactly as it would have. FuzzDecodeParity holds it to
// that: whatever it accepts, json.Unmarshal accepts and decodes to a
// reflect.DeepEqual value.
//
// Every string in the result is a substring of one copy of the body, so a
// 50-row page of ten tags a row costs that copy and the slices that hold the
// rows and the tags, not an allocation per string.
func decodeDirect(body []byte, out any) bool {
	switch o := out.(type) {
	case *ExportPage:
		return wire.Into(body, o, exportPage)
	case *ResourceStatus:
		return wire.Into(body, o, resourceStatus)
	case *ProjectInfo:
		return wire.Into(body, o, projectInfo)
	case *Task:
		return wire.Into(body, o, task)
	case *BatchTasksResp:
		return wire.Into(body, o, batchTasksResp)
	}
	return false
}

// tags decodes a top_tags array onto the end of *all and points *dst at what
// it appended, capacity-capped so that an append to one row's tags cannot
// reach into the next row's. nil for null, empty (not nil) for [].
func tags(d *wire.Decoder, all, dst *[]TagFreq) bool {
	a := len(*all)
	null, ok := d.List(func() bool {
		*all = append(*all, TagFreq{})
		return tagFreq(d, &(*all)[len(*all)-1])
	})
	switch b := len(*all); {
	case null:
		*dst = nil
	case b == a:
		*dst = []TagFreq{}
	default:
		*dst = (*all)[a:b:b]
	}
	return ok
}

func tagFreq(d *wire.Decoder, t *TagFreq) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "tag":
			return 1 << 0, d.String(&t.Tag)
		case "count":
			return 1 << 1, d.Int(&t.Count)
		case "freq":
			return 1 << 2, d.Float(&t.Freq)
		}
		return 0, false
	})
}

func exportPage(d *wire.Decoder, p *ExportPage) bool {
	// Every row's tags, in row order, in one array that never grows: each tag
	// is an object, so the braces in the body bound the tags (the page's and
	// the rows' are the slack), and the rows' slices into it stay valid.
	all := make([]TagFreq, 0, d.Count('{'))
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "items":
			null, ok := d.List(func() bool {
				p.Items = append(p.Items, ExportedResource{})
				return exportedResource(d, &p.Items[len(p.Items)-1], &all)
			})
			if ok && !null && p.Items == nil {
				p.Items = []ExportedResource{}
			}
			return 1 << 0, ok
		case "next_cursor":
			return 1 << 1, d.String(&p.NextCursor)
		}
		return 0, false
	})
}

func exportedResource(d *wire.Decoder, r *ExportedResource, all *[]TagFreq) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&r.ID)
		case "name":
			return 1 << 1, d.String(&r.Name)
		case "posts":
			return 1 << 2, d.Int(&r.Posts)
		case "stability":
			return 1 << 3, d.Float(&r.Stability)
		case "top_tags":
			return 1 << 4, tags(d, all, &r.TopTags)
		}
		return 0, false
	})
}

func resourceStatus(d *wire.Decoder, r *ResourceStatus) bool {
	var all []TagFreq
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&r.ID)
		case "index":
			return 1 << 1, d.Int(&r.Index)
		case "posts":
			return 1 << 2, d.Int(&r.Posts)
		case "allocated":
			return 1 << 3, d.Int(&r.Allocated)
		case "stability":
			return 1 << 4, d.Float(&r.Stability)
		case "oracle":
			return 1 << 5, d.Float(&r.Oracle)
		case "promoted":
			return 1 << 6, d.Bool(&r.Promoted)
		case "stopped":
			return 1 << 7, d.Bool(&r.Stopped)
		case "exhausted":
			return 1 << 8, d.Bool(&r.Exhausted)
		case "series":
			return 1 << 9, d.Floats(&r.Series)
		case "top_tags":
			return 1 << 10, tags(d, &all, &r.TopTags)
		}
		return 0, false
	})
}

func projectInfo(d *wire.Decoder, p *ProjectInfo) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "project":
			return 1 << 0, project(d, &p.Project)
		case "spent":
			return 1 << 1, d.Int(&p.Spent)
		case "mean_stability":
			return 1 << 2, d.Float(&p.MeanStability)
		case "mean_oracle":
			return 1 << 3, d.Float(&p.MeanOracle)
		case "strategy_name":
			return 1 << 4, d.String(&p.StrategyName)
		case "pending_tasks":
			return 1 << 5, d.Int(&p.PendingTasks)
		}
		return 0, false
	})
}

func project(d *wire.Decoder, p *Project) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&p.ID)
		case "provider_id":
			return 1 << 1, d.String(&p.ProviderID)
		case "name":
			return 1 << 2, d.String(&p.Name)
		case "description":
			return 1 << 3, d.String(&p.Description)
		case "kind":
			return 1 << 4, d.String(&p.Kind)
		case "budget":
			return 1 << 5, d.Int(&p.Budget)
		case "spent":
			return 1 << 6, d.Int(&p.Spent)
		case "pay_per_task":
			return 1 << 7, d.Float(&p.PayPerTask)
		case "strategy":
			return 1 << 8, d.String(&p.Strategy)
		case "platform":
			return 1 << 9, d.String(&p.Platform)
		case "status":
			return 1 << 10, d.String(&p.Status)
		case "created_at":
			return 1 << 11, d.Time(&p.CreatedAt)
		}
		return 0, false
	})
}

func task(d *wire.Decoder, t *Task) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&t.ID)
		case "project_id":
			return 1 << 1, d.String(&t.ProjectID)
		case "resource_id":
			return 1 << 2, d.String(&t.ResourceID)
		case "worker_id":
			return 1 << 3, d.String(&t.WorkerID)
		case "status":
			return 1 << 4, d.String(&t.Status)
		case "reward":
			return 1 << 5, d.Float(&t.Reward)
		case "created_at":
			return 1 << 6, d.Time(&t.CreatedAt)
		case "done_at":
			return 1 << 7, d.Time(&t.DoneAt)
		}
		return 0, false
	})
}

func batchTasksResp(d *wire.Decoder, r *BatchTasksResp) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "results":
			// One result per object at most: the response's own braces and
			// the per-item errors' are the slack.
			results := make([]BatchTaskResult, 0, d.Count('{'))
			null, ok := d.List(func() bool {
				results = append(results, BatchTaskResult{})
				return batchTaskResult(d, &results[len(results)-1])
			})
			if !null {
				r.Results = results
			}
			return 1 << 0, ok
		case "ok":
			return 1 << 1, d.Int(&r.OK)
		case "failed":
			return 1 << 2, d.Int(&r.Failed)
		}
		return 0, false
	})
}

func batchTaskResult(d *wire.Decoder, r *BatchTaskResult) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "task_id":
			return 1 << 0, d.String(&r.TaskID)
		case "resource_id":
			return 1 << 1, d.String(&r.ResourceID)
		case "submitted":
			return 1 << 2, d.Bool(&r.Submitted)
		case "error":
			r.Error = new(ItemError)
			return 1 << 3, itemError(d, r.Error)
		}
		return 0, false
	})
}

func itemError(d *wire.Decoder, e *ItemError) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "code":
			return 1 << 0, d.String(&e.Code)
		case "message":
			return 1 << 1, d.String(&e.Message)
		}
		return 0, false
	})
}
