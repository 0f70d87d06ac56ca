package server

import (
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

func (q *batchTasksReq) DecodeWire(d *wire.Decoder) bool {
	return d.Object(func(key string) (uint, bool) {
		if key != "items" {
			return 0, false
		}
		// An item is an object, so the braces bound the items, up to the
		// per-call cap (a body of braces must not size a larger array). Every
		// item's tags share one array: a body's strings are at most half its
		// quotes, and an item's tagger_id, its value and its tags key take
		// three of them. Undercounted, either array just grows.
		items := make([]core.BatchItem, 0, min(max(d.Count('{')-1, 0), maxBatchItems))
		all := make([]string, 0, max(d.Count('"')/2-3*cap(items), 0))
		null, ok := d.List(func() bool {
			items = append(items, core.BatchItem{})
			return batchItem(d, &items[len(items)-1], &all)
		})
		if !null {
			q.Items = items
		}
		return 1, ok
	})
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
	if r.Results == nil {
		e.B = append(e.B, `{"results":null`...)
	} else {
		e.B = append(e.B, `{"results":[`...)
		for i, res := range r.Results {
			if i > 0 {
				e.B = append(e.B, ',')
			}
			start := len(e.B)
			e.Opt(`,"task_id":`, res.TaskID)
			e.Opt(`,"resource_id":`, res.ResourceID)
			e.Flag(`,"submitted":true`, res.Submitted)
			if res.Error != nil {
				e.Str(`,"error":{"code":`, res.Error.Code)
				e.Str(`,"message":`, res.Error.Message)
				e.B = append(e.B, '}')
			}
			e.End(start)
		}
		e.B = append(e.B, ']')
	}
	e.Int(`,"ok":`, r.OK)
	e.Int(`,"failed":`, r.Failed)
	return append(e.B, '}'), true
}
