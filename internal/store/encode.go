package store

// Append encoders for what a commit writes: the five catalog record types
// and the WAL frame around them, each byte-identical to encoding/json
// (declared field order, omitempty as tagged, HTML-safe escapes, ES6 floats,
// RFC 3339 times). A value is encoded once, into its commit's buffer, and a
// frame copies it as it is instead of re-compacting and re-validating it.
// Parsing stays on encoding/json.

import (
	"encoding/json"
	"hash/crc32"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"itag/internal/errs"
)

const hexDigits = "0123456789abcdef"

// encodeScratch recycles the buffers DB.Apply encodes a commit's values into.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendValue appends the JSON encoding of a stored value to dst: a catalog
// record through its encoder; anything else — and a record holding a value
// json.Marshal refuses, so the error is json.Marshal's own — through
// json.Marshal.
func appendValue(dst []byte, v any) ([]byte, error) {
	e := jsonEnc{b: dst, ok: true}
	switch r := v.(type) {
	case PostRec:
		e.str(`{"resource_id":`, r.ResourceID)
		e.opt(`,"tagger_id":`, r.TaggerID)
		e.opt(`,"task_id":`, r.TaskID)
		e.tags(r.Tags)
		e.time(`,"time":`, r.Time)
		if r.Approved != nil {
			e.b = strconv.AppendBool(append(e.b, `,"approved":`...), *r.Approved)
		}
	case TaskRec:
		e.str(`{"id":`, r.ID)
		e.str(`,"project_id":`, r.ProjectID)
		e.str(`,"resource_id":`, r.ResourceID)
		e.opt(`,"worker_id":`, r.WorkerID)
		e.str(`,"status":`, string(r.Status))
		e.float(`,"reward":`, r.Reward)
		e.time(`,"created_at":`, r.CreatedAt)
		e.time(`,"done_at":`, r.DoneAt) // omitempty never omits a struct
	case ResourceRec:
		e.str(`{"id":`, r.ID)
		e.str(`,"project_id":`, r.ProjectID)
		e.str(`,"kind":`, r.Kind)
		e.str(`,"name":`, r.Name)
		e.int(`,"topic":`, r.Topic)
		e.float(`,"popularity":`, r.Popularity)
		e.flag(`,"promoted":true`, r.Promoted)
		e.flag(`,"stopped":true`, r.Stopped)
	case ProjectRec:
		e.str(`{"id":`, r.ID)
		e.str(`,"provider_id":`, r.ProviderID)
		e.str(`,"name":`, r.Name)
		e.opt(`,"description":`, r.Description)
		e.opt(`,"kind":`, r.Kind)
		e.int(`,"budget":`, r.Budget)
		e.int(`,"spent":`, r.Spent)
		e.float(`,"pay_per_task":`, r.PayPerTask)
		e.str(`,"strategy":`, r.Strategy)
		e.str(`,"platform":`, r.Platform)
		e.str(`,"status":`, string(r.Status))
		e.time(`,"created_at":`, r.CreatedAt)
	case UserRec:
		e.str(`{"id":`, r.ID)
		e.str(`,"role":`, string(r.Role))
		e.opt(`,"name":`, r.Name)
		e.int(`,"judged":`, r.Judged)
		e.int(`,"judged_ok":`, r.JudgedOK)
		e.float(`,"earned":`, r.Earned)
	default:
		e.ok = false
	}
	if e.ok {
		return append(e.b, '}'), nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, errs.Wrap(err, errs.ComponentStore, errs.CategoryInternal, "marshal value")
	}
	return append(dst, raw...), nil
}

// jsonEnc appends one object's fields as encoding/json writes them; ok turns
// false on a value json.Marshal refuses.
type jsonEnc struct {
	b  []byte
	ok bool
}

func (e *jsonEnc) str(name, s string) { e.b = appendString(append(e.b, name...), s) }

// opt is a string field tagged omitempty.
func (e *jsonEnc) opt(name, s string) {
	if s != "" {
		e.str(name, s)
	}
}

// flag is a bool field tagged omitempty.
func (e *jsonEnc) flag(field string, on bool) {
	if on {
		e.b = append(e.b, field...)
	}
}

func (e *jsonEnc) int(name string, n int) {
	e.b = strconv.AppendInt(append(e.b, name...), int64(n), 10)
}

func (e *jsonEnc) tags(tags []string) {
	if tags == nil {
		e.b = append(e.b, `,"tags":null`...)
		return
	}
	e.b = append(e.b, `,"tags":[`...)
	for i, t := range tags {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = appendString(e.b, t)
	}
	e.b = append(e.b, ']')
}

// float is encoding/json's float64 encoder: the shortest round-tripping
// form, exponent notation below 1e-6 and from 1e21 up with the exponent's
// leading zero dropped (1e-07 → 1e-7). NaN and ±Inf are refused.
func (e *jsonEnc) float(name string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(append(e.b, name...), f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.b = b
}

// time is time.Time.MarshalJSON, refusing where it fails: a year outside
// [0, 9999] or a zone offset of a day or more.
func (e *jsonEnc) time(name string, t time.Time) {
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -86400 || off >= 86400 {
		e.ok = false
		return
	}
	e.b = append(t.AppendFormat(append(append(e.b, name...), '"'), time.RFC3339Nano), '"')
}

// appendString is encoding/json's string encoder with HTML escaping on, as
// json.Marshal runs it: \uXXXX for control bytes, <, >, &, U+2028 and
// U+2029, the short escapes where JSON has one, and \ufffd for each byte of
// invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' && c != 0x2028 && c != 0x2029 && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		switch j := strings.IndexRune("\"\\\b\f\n\r\t", c); {
		case j >= 0:
			b = append(b, '\\', "\"\\bfnrt"[j])
		case c == utf8.RuneError:
			b = append(b, `\ufffd`...)
		default:
			b = append(b, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// frameRecord encodes rec as one CRC-framed segment line, in one pass: the
// bytes fmt.Sprintf("%08x ", crc) and json.Marshal(rec) made. The values
// are appendValue's output, already compact and HTML-escaped, so they are
// copied as they are.
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
	e := jsonEnc{b: strconv.AppendUint(append(b, `{"seq":`...), rec.Seq, 10)}
	e.str(`,"op":`, string(rec.Op))
	e.opt(`,"table":`, rec.Table)
	e.opt(`,"key":`, rec.Key)
	if len(rec.Value) > 0 {
		e.b = append(append(e.b, `,"value":`...), rec.Value...)
	}
	if len(rec.Batch) > 0 {
		e.b = append(e.b, `,"batch":[`...)
		for i, sub := range rec.Batch {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = appendRecord(e.b, sub)
		}
		e.b = append(e.b, ']')
	}
	return append(e.b, '}')
}
