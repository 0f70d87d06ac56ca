package store

// Append encoders for what a commit writes: the five catalog record types
// and the WAL frame around them, each byte-identical to encoding/json, built
// from internal/wire's field encoders. A value is encoded once, where its
// WriteSet stages it, and a frame copies it as it is instead of re-compacting
// and re-validating it. Parsing stays on encoding/json.

import (
	"encoding/json"
	"hash/crc32"
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

// AppendJSON appends json.Marshal's encoding of the task record to dst, the
// bytes a commit writes for it; false for a record json.Marshal refuses (a
// NaN reward, a time outside RFC 3339). The task routes answer with it.
func (r TaskRec) AppendJSON(dst []byte) ([]byte, bool) {
	e := wire.Enc{B: dst, OK: true}
	r.encode(&e)
	return e.B, e.OK
}

const hexDigits = "0123456789abcdef"

// frameRecord encodes rec as one CRC-framed segment line, in one pass: the
// bytes fmt.Sprintf("%08x ", crc) and json.Marshal(rec) made. The values
// were encoded where they were staged, already compact and HTML-escaped, so
// they are copied as they are.
func frameRecord(rec Record) []byte {
	n := 96 + len(rec.Table) + len(rec.Key) + len(rec.Value)
	for _, sub := range rec.Batch {
		n += 64 + len(sub.Table) + len(sub.Key) + len(sub.Value)
	}
	line := appendRecord(make([]byte, 9, n), rec)
	crc := crc32.ChecksumIEEE(line[9:])
	for i := 7; i >= 0; i, crc = i-1, crc>>4 {
		line[i] = hexDigits[crc&0xF]
	}
	line[8] = ' '
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
