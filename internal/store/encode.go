package store

// The store's codec. Append encoders for what a commit writes: the five
// catalog record types and the WAL frame around them, each byte-identical to
// encoding/json, built from internal/wire's field encoders. A value is
// encoded once, where its WriteSet stages it, and a frame copies it as it is
// instead of re-compacting and re-validating it. Cursor decoders for what the
// store reads back: a frame's Record (replay, the cold tail path, every
// shipment a follower applies) and the five record types (record-cache
// misses, post scans). Each takes what its encoder writes and declines
// anything else to json.Unmarshal, which decodes or rejects it as it always
// has (wire.Into's contract).

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"slices"
	"strconv"
	"sync"

	"itag/internal/errs"
	"itag/internal/wire"
)

// encodeScratch recycles the buffers a WriteSet stages its values into.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendValue appends the JSON encoding of a stored value to dst: a catalog
// record through its encoder; anything else — and a record holding a value
// json.Marshal refuses, so the error is json.Marshal's own — through
// json.Marshal.
func appendValue(dst []byte, v any) ([]byte, error) {
	e := wire.Enc{B: dst, OK: true}
	switch r := v.(type) {
	case PostRec:
		r.encode(&e)
	case TaskRec:
		r.encode(&e)
	case ResourceRec:
		r.encode(&e)
	case ProjectRec:
		r.encode(&e)
	case UserRec:
		r.encode(&e)
	default:
		e.OK = false
	}
	if e.OK {
		return e.B, nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, errs.Wrap(err, errs.ComponentStore, errs.CategoryInternal, "marshal value")
	}
	return append(dst, raw...), nil
}

// The encode methods append a record's JSON object to e.B; e.OK turns false
// on a value json.Marshal refuses.

func (r PostRec) encode(e *wire.Enc) {
	e.Str(`{"resource_id":`, r.ResourceID)
	e.Opt(`,"tagger_id":`, r.TaggerID)
	e.Opt(`,"task_id":`, r.TaskID)
	e.Strings(`,"tags":`, r.Tags)
	e.Time(`,"time":`, r.Time)
	if r.Approved != nil {
		e.Bool(`,"approved":`, *r.Approved)
	}
	e.B = append(e.B, '}')
}

func (r TaskRec) encode(e *wire.Enc) {
	e.Str(`{"id":`, r.ID)
	e.Str(`,"project_id":`, r.ProjectID)
	e.Str(`,"resource_id":`, r.ResourceID)
	e.Opt(`,"worker_id":`, r.WorkerID)
	e.Str(`,"status":`, string(r.Status))
	e.Float(`,"reward":`, r.Reward)
	e.Time(`,"created_at":`, r.CreatedAt)
	e.Time(`,"done_at":`, r.DoneAt) // omitempty never omits a struct
	e.B = append(e.B, '}')
}

func (r ResourceRec) encode(e *wire.Enc) {
	e.Str(`{"id":`, r.ID)
	e.Str(`,"project_id":`, r.ProjectID)
	e.Str(`,"kind":`, r.Kind)
	e.Str(`,"name":`, r.Name)
	e.Int(`,"topic":`, r.Topic)
	e.Float(`,"popularity":`, r.Popularity)
	e.Flag(`,"promoted":true`, r.Promoted)
	e.Flag(`,"stopped":true`, r.Stopped)
	e.B = append(e.B, '}')
}

func (r ProjectRec) encode(e *wire.Enc) {
	e.Str(`{"id":`, r.ID)
	e.Str(`,"provider_id":`, r.ProviderID)
	e.Str(`,"name":`, r.Name)
	e.Opt(`,"description":`, r.Description)
	e.Opt(`,"kind":`, r.Kind)
	e.Int(`,"budget":`, r.Budget)
	e.Int(`,"spent":`, r.Spent)
	e.Float(`,"pay_per_task":`, r.PayPerTask)
	e.Str(`,"strategy":`, r.Strategy)
	e.Str(`,"platform":`, r.Platform)
	e.Str(`,"status":`, string(r.Status))
	e.Time(`,"created_at":`, r.CreatedAt)
	e.B = append(e.B, '}')
}

func (r UserRec) encode(e *wire.Enc) {
	e.Str(`{"id":`, r.ID)
	e.Str(`,"role":`, string(r.Role))
	e.Opt(`,"name":`, r.Name)
	e.Int(`,"judged":`, r.Judged)
	e.Int(`,"judged_ok":`, r.JudgedOK)
	e.Float(`,"earned":`, r.Earned)
	e.B = append(e.B, '}')
}

// decodeRec decodes a stored catalog record into the value json.Unmarshal
// makes of it: with the record's cursor decoder (intoRec) when the bytes are
// shaped as its encoder writes them, through json.Unmarshal otherwise.
func decodeRec[T any](raw []byte) (T, error) {
	var rec T
	if intoRec(raw, &rec) {
		return rec, nil
	}
	var slow T // apart from rec, which then stays off the heap
	err := json.Unmarshal(raw, &slow)
	return slow, err
}

// intoRec decodes raw into *rec with the cursor decoder of rec's type, the
// mirror of its encoder, and reports whether it did; it declines for any
// other type, and may leave *rec half written when it declines. Each string
// of the result is an exact-size allocation of its own (wire.Over): a cached
// record keeps what it holds alive, not a copy of the whole stored value.
func intoRec[T any](raw []byte, rec *T) bool {
	switch r := any(rec).(type) {
	case *PostRec:
		return over(raw, r, decodePost)
	case *TaskRec:
		return over(raw, r, decodeTask)
	case *ResourceRec:
		return over(raw, r, decodeResource)
	case *ProjectRec:
		return over(raw, r, decodeProject)
	case *UserRec:
		return over(raw, r, decodeUser)
	}
	return false
}

func over[R any](raw []byte, r *R, parse func(*wire.Decoder, *R) bool) bool {
	d, ok := wire.Over(raw)
	return ok && parse(&d, r) && d.End()
}

// The record decoders take the object their type's encode method writes,
// its fields in any order; the key lists name those fields.
var (
	postKeys     = []string{"resource_id", "tagger_id", "task_id", "tags", "time", "approved"}
	taskKeys     = []string{"id", "project_id", "resource_id", "worker_id", "status", "reward", "created_at", "done_at"}
	resourceKeys = []string{"id", "project_id", "kind", "name", "topic", "popularity", "promoted", "stopped"}
	projectKeys  = []string{"id", "provider_id", "name", "description", "kind", "budget", "spent", "pay_per_task", "strategy", "platform", "status", "created_at"}
	userKeys     = []string{"id", "role", "name", "judged", "judged_ok", "earned"}
)

func decodePost(d *wire.Decoder, r *PostRec) bool {
	var all []string
	return d.ObjectOf(postKeys, func(key string) (uint, bool) {
		switch key {
		case "resource_id":
			return 1 << 0, d.String(&r.ResourceID)
		case "tagger_id":
			return 1 << 1, d.String(&r.TaggerID)
		case "task_id":
			return 1 << 2, d.String(&r.TaskID)
		case "tags":
			return 1 << 3, d.Strings(&all, &r.Tags)
		case "time":
			return 1 << 4, d.Time(&r.Time)
		case "approved":
			approved := new(bool)
			r.Approved = approved
			return 1 << 5, d.Bool(approved)
		}
		return 0, false
	})
}

func decodeTask(d *wire.Decoder, r *TaskRec) bool {
	return d.ObjectOf(taskKeys, func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&r.ID)
		case "project_id":
			return 1 << 1, d.String(&r.ProjectID)
		case "resource_id":
			return 1 << 2, d.String(&r.ResourceID)
		case "worker_id":
			return 1 << 3, d.String(&r.WorkerID)
		case "status":
			return 1 << 4, d.String((*string)(&r.Status))
		case "reward":
			return 1 << 5, d.Float(&r.Reward)
		case "created_at":
			return 1 << 6, d.Time(&r.CreatedAt)
		case "done_at":
			return 1 << 7, d.Time(&r.DoneAt)
		}
		return 0, false
	})
}

func decodeResource(d *wire.Decoder, r *ResourceRec) bool {
	return d.ObjectOf(resourceKeys, func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&r.ID)
		case "project_id":
			return 1 << 1, d.String(&r.ProjectID)
		case "kind":
			return 1 << 2, d.String(&r.Kind)
		case "name":
			return 1 << 3, d.String(&r.Name)
		case "topic":
			return 1 << 4, d.Int(&r.Topic)
		case "popularity":
			return 1 << 5, d.Float(&r.Popularity)
		case "promoted":
			return 1 << 6, d.Bool(&r.Promoted)
		case "stopped":
			return 1 << 7, d.Bool(&r.Stopped)
		}
		return 0, false
	})
}

func decodeProject(d *wire.Decoder, r *ProjectRec) bool {
	return d.ObjectOf(projectKeys, func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&r.ID)
		case "provider_id":
			return 1 << 1, d.String(&r.ProviderID)
		case "name":
			return 1 << 2, d.String(&r.Name)
		case "description":
			return 1 << 3, d.String(&r.Description)
		case "kind":
			return 1 << 4, d.String(&r.Kind)
		case "budget":
			return 1 << 5, d.Int(&r.Budget)
		case "spent":
			return 1 << 6, d.Int(&r.Spent)
		case "pay_per_task":
			return 1 << 7, d.Float(&r.PayPerTask)
		case "strategy":
			return 1 << 8, d.String(&r.Strategy)
		case "platform":
			return 1 << 9, d.String(&r.Platform)
		case "status":
			return 1 << 10, d.String((*string)(&r.Status))
		case "created_at":
			return 1 << 11, d.Time(&r.CreatedAt)
		}
		return 0, false
	})
}

func decodeUser(d *wire.Decoder, r *UserRec) bool {
	return d.ObjectOf(userKeys, func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.String(&r.ID)
		case "role":
			return 1 << 1, d.String((*string)(&r.Role))
		case "name":
			return 1 << 2, d.String(&r.Name)
		case "judged":
			return 1 << 3, d.Int(&r.Judged)
		case "judged_ok":
			return 1 << 4, d.Int(&r.JudgedOK)
		case "earned":
			return 1 << 5, d.Float(&r.Earned)
		}
		return 0, false
	})
}

// AppendJSON appends json.Marshal's encoding of the task record to dst, the
// bytes a commit writes for it; false for a record json.Marshal refuses (a
// NaN reward, a time outside RFC 3339). The task routes answer with it.
func (r TaskRec) AppendJSON(dst []byte) ([]byte, bool) {
	e := wire.Enc{B: dst, OK: true}
	r.encode(&e)
	return e.B, e.OK
}

const hexDigits = "0123456789abcdef"

// appendFrame appends rec to dst as one CRC-framed segment line, in one
// pass: the bytes fmt.Sprintf("%08x ", crc) and json.Marshal(rec) made. The
// values were encoded where they were staged, already compact and
// HTML-escaped, so they are copied as they are. A commit batch's leader
// frames its local records with it into the WAL's frame buffer.
func appendFrame(dst []byte, rec Record) []byte {
	n := 96 + len(rec.Table) + len(rec.Key) + len(rec.Value)
	for _, sub := range rec.Batch {
		n += 64 + len(sub.Table) + len(sub.Key) + len(sub.Value)
	}
	start := len(dst)
	line := appendRecord(append(slices.Grow(dst, n), "00000000 "...), rec)
	crc := crc32.ChecksumIEEE(line[start+9:])
	for i := start + 7; i >= start; i, crc = i-1, crc>>4 {
		line[i] = hexDigits[crc&0xF]
	}
	return append(line, '\n')
}

// appendRecord is encoding/json's rendering of a Record.
func appendRecord(b []byte, rec Record) []byte {
	e := wire.Enc{B: strconv.AppendUint(append(b, `{"seq":`...), rec.Seq, 10)}
	e.Str(`,"op":`, string(rec.Op))
	e.Opt(`,"table":`, rec.Table)
	e.Opt(`,"key":`, rec.Key)
	if len(rec.Value) > 0 {
		e.B = append(append(e.B, `,"value":`...), rec.Value...)
	}
	if len(rec.Batch) > 0 {
		e.B = append(e.B, `,"batch":[`...)
		for i, sub := range rec.Batch {
			if i > 0 {
				e.B = append(e.B, ',')
			}
			e.B = appendRecord(e.B, sub)
		}
		e.B = append(e.B, ']')
	}
	return append(e.B, '}')
}

// decodeRecord decodes a frame body into the Record json.Unmarshal makes of
// it: with the cursor when the body is shaped as appendRecord writes it,
// through json.Unmarshal otherwise. Nothing in the result aliases body, which
// may be a reader's buffer: each key and each value is copied out as one
// exact-size allocation, and a table or op name this package defines is its
// constant.
func decodeRecord(body []byte) (Record, error) {
	var rec Record
	if intoRecord(body, &rec) {
		return rec, nil
	}
	var slow Record // apart from rec, which then stays off the heap
	err := json.Unmarshal(body, &slow)
	return slow, err
}

// intoRecord is decodeRecord's cursor alone: it reports whether it decoded,
// and may leave *rec half written when it did not. The cursor copies no more
// of the body than the record keeps (wire.Over).
func intoRecord(body []byte, rec *Record) bool {
	d, ok := wire.Over(body)
	return ok && record(&d, rec, body) && d.End()
}

// A Record's JSON keys, and the ops and tables its strings name: decoded
// without an allocation (wire.Decoder.StrOf).
var (
	recordKeys = []string{"seq", "op", "table", "key", "value", "batch"}
	opNames    = []string{string(OpPut), string(OpDelete), string(OpBatch)}
	tableNames = []string{TableResources, TablePosts, TableProjects, TableTasks, TableUsers}
)

// record decodes one Record in appendRecord's shape from d, a cursor over
// body; a nested record has no body. Each string the cursor decodes is
// already a copy.
func record(d *wire.Decoder, r *Record, body []byte) bool {
	return d.ObjectOf(recordKeys, func(key string) (uint, bool) {
		switch key {
		case "seq":
			tok, ok := d.Value() // parsed as json.Unmarshal parses a uint64
			seq, err := strconv.ParseUint(string(tok), 10, 64)
			r.Seq = seq
			return 1 << 0, ok && err == nil
		case "op":
			op, ok := d.StrOf(opNames)
			r.Op = Op(op)
			return 1 << 1, ok
		case "table":
			table, ok := d.StrOf(tableNames)
			r.Table = table
			return 1 << 2, ok
		case "key":
			return 1 << 3, d.String(&r.Key)
		case "value":
			v, ok := d.Value()
			r.Value = append(make([]byte, 0, len(v)), v...)
			return 1 << 4, ok
		case "batch":
			// appendRecord opens every record with `{"seq":`; the batch holds
			// all but the first.
			r.Batch = make([]Record, 0, max(bytes.Count(body, []byte(`{"seq":`))-1, 0))
			null, ok := d.List(func() bool {
				r.Batch = append(r.Batch, Record{})
				return record(d, &r.Batch[len(r.Batch)-1], nil)
			})
			if null {
				r.Batch = nil
			}
			return 1 << 5, ok
		}
		return 0, false
	})
}
