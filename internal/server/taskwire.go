package server

import (
	"slices"
	"sync"

	"itag/internal/core"
	"itag/internal/wire"
)

// The task routes' bodies without reflection, on internal/wire: the request
// types are api.Decodable and the responses api.Appender, so a tagger's lease,
// submit and tasks:batch call are decoded and encoded without encoding/json
// when the body is shaped the way the SDK writes it, to exactly what
// encoding/json makes of it (FuzzRequestDecodeParity, TestTaskResponsesMatchMarshal).
// The strings a decode yields are substrings of one copy of the body; what
// outlives the request is cloned where it is kept (a lease's worker ID is the
// stored user record's, a tag the interner's).

func (q *requestTaskReq) DecodeWire(d *wire.Decoder) bool {
	return d.Object(func(key string) (uint, bool) {
		if key == "tagger_id" {
			return 1, d.String(&q.TaggerID)
		}
		return 0, false
	})
}

func (q *submitTaskReq) DecodeWire(d *wire.Decoder) bool {
	return d.Object(func(key string) (uint, bool) {
		if key == "tags" {
			var all []string
			return 1, d.Strings(&all, &q.Tags)
		}
		return 0, false
	})
}

// DecodeWire decodes into arrays of the request's own: the decoder the
// parity suite holds to encoding/json. The route decodes a batchTasksCall.
func (q *batchTasksReq) DecodeWire(d *wire.Decoder) bool {
	return q.decode(d, new(batchCall))
}

// DecodeWire decodes the route's request into arrays drawn from batchCalls.
func (q *batchTasksCall) DecodeWire(d *wire.Decoder) bool {
	q.call = batchCalls.Get().(*batchCall)
	return q.decode(d, q.call)
}

// decode decodes a tasks:batch body into c's arrays and leaves them, grown,
// in c.
func (q *batchTasksReq) decode(d *wire.Decoder, c *batchCall) bool {
	return d.Object(func(key string) (uint, bool) {
		if key != "items" {
			return 0, false
		}
		// An item is an object, so the braces bound the items, up to the
		// per-call cap (a body of braces must not size a larger array). Every
		// item's tags share one array: a body's strings are at most half its
		// quotes, and an item's tagger_id, its value and its tags key take
		// three of them. Undercounted, either array just grows.
		n := min(max(d.Count('{')-1, 0), maxBatchItems)
		items, all := c.items[:0], c.tags[:0]
		if cap(items) < n || items == nil { // [] decodes to an empty list, not nil
			items = make([]core.BatchItem, 0, n)
		}
		all = slices.Grow(all, max(d.Count('"')/2-3*n, 0))
		null, ok := d.List(func() bool {
			items = append(items, core.BatchItem{})
			return batchItem(d, &items[len(items)-1], &all)
		})
		c.items, c.tags = items, all
		if !null {
			q.Items = items
		}
		return 1, ok
	})
}

// batchCall is one tasks:batch call's recycled arrays: the decoded items,
// the tags they share, and the core's results. A batchTasksCall decoded
// into it holds it until api's handler releases the request, after the
// response is written; nothing the call keeps refers to them
// (core.BatchTasks).
type batchCall struct {
	items   []core.BatchItem
	tags    []string
	results []core.BatchResult
}

var batchCalls = sync.Pool{New: func() any { return new(batchCall) }}

// maxPooledItems bounds the calls whose arrays go back to batchCalls: ten
// times a fleet's 200-item call. A larger call's arrays, or one whose tags
// outgrew a dozen an item, are left to the collector.
const maxPooledItems = 2000

// Release returns the request's arrays to batchCalls, cleared, so the pool
// pins no body and no result.
func (q *batchTasksCall) Release() {
	c := q.call
	if c == nil {
		return
	}
	q.call, q.Items = nil, nil
	if cap(c.items) > maxPooledItems || cap(c.tags) > 12*maxPooledItems || cap(c.results) > maxPooledItems {
		return
	}
	clear(c.items)
	clear(c.tags)
	clear(c.results)
	c.items, c.tags, c.results = c.items[:0], c.tags[:0], c.results[:0]
	batchCalls.Put(c)
}

func batchItem(d *wire.Decoder, it *core.BatchItem, all *[]string) bool {
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "tagger_id":
			return 1 << 0, d.String(&it.TaggerID)
		case "tags":
			return 1 << 1, d.Strings(all, &it.Tags)
		}
		return 0, false
	})
}

// AppendJSON never declines: neither answer holds a float or a time.
func (r submitResp) AppendJSON(dst []byte) ([]byte, bool) {
	e := wire.Enc{B: dst}
	e.Bool(`{"submitted":`, r.Submitted)
	return append(e.B, '}'), true
}

func (r batchTasksResp) AppendJSON(dst []byte) ([]byte, bool) {
	e := wire.Enc{B: dst}
	switch {
	case r.n > 0:
		e.B = append(e.B, `{"results":[`...)
		for i := range r.n {
			res := core.BatchResult{Err: r.ctxErr} // an item the call never reached
			if i < len(r.results) {
				res = r.results[i]
			}
			if i > 0 {
				e.B = append(e.B, ',')
			}
			var ie *itemError
			if res.Err != nil {
				ie = toItemError(res.Err)
			}
			appendResult(&e, res.TaskID, res.ResourceID, res.Submitted, ie)
		}
		e.B = append(e.B, ']')
	case r.Results == nil:
		e.B = append(e.B, `{"results":null`...)
	default:
		e.B = append(e.B, `{"results":[`...)
		for i, res := range r.Results {
			if i > 0 {
				e.B = append(e.B, ',')
			}
			appendResult(&e, res.TaskID, res.ResourceID, res.Submitted, res.Error)
		}
		e.B = append(e.B, ']')
	}
	e.Int(`,"ok":`, r.OK)
	e.Int(`,"failed":`, r.Failed)
	return append(e.B, '}'), true
}

// appendResult appends one batchTaskResult object.
func appendResult(e *wire.Enc, taskID, resourceID string, submitted bool, ie *itemError) {
	start := len(e.B)
	e.Opt(`,"task_id":`, taskID)
	e.Opt(`,"resource_id":`, resourceID)
	e.Flag(`,"submitted":true`, submitted)
	if ie != nil {
		e.Str(`,"error":{"code":`, ie.Code)
		e.Str(`,"message":`, ie.Message)
		e.B = append(e.B, '}')
	}
	e.End(start)
}
