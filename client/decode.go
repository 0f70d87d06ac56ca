package client

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
	"unicode/utf8"
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
// one of the dashboard types — *ExportPage, *ResourceStatus, *ProjectInfo,
// the responses copyResponse retains — and the body is shaped the way the
// server writes them: the documented keys, each at most once, spelled exactly;
// strings of valid UTF-8 with no backslash escape; numbers in JSON's grammar;
// no null where a string, number, bool, time or object belongs; nothing after
// the value but whitespace. It reports whether it decoded; on anything else it
// declines and leaves out untouched, for encoding/json to decode — or reject —
// exactly as it would have. FuzzDecodeParity holds it to that: whatever it
// accepts, json.Unmarshal accepts and decodes to a reflect.DeepEqual value.
//
// Every string in the result is a substring of one copy of the body, so a
// 50-row page of ten tags a row costs that copy and the slices that hold the
// rows and the tags, not an allocation per string.
func decodeDirect(body []byte, out any) bool {
	switch o := out.(type) {
	case *ExportPage:
		return decodeInto(body, o, (*decoder).exportPage)
	case *ResourceStatus:
		return decodeInto(body, o, (*decoder).resourceStatus)
	case *ProjectInfo:
		return decodeInto(body, o, (*decoder).projectInfo)
	}
	return false
}

func decodeInto[T any](body []byte, out *T, parse func(*decoder, *T) bool) bool {
	if !utf8.Valid(body) {
		return false // encoding/json substitutes U+FFFD; leave that to it
	}
	d := decoder{b: body, s: string(body)}
	var v T
	if !parse(&d, &v) {
		return false
	}
	if d.ws(); d.i != len(d.b) {
		return false
	}
	*out = v
	return true
}

// decoder is a cursor over a response body: b is the body as read and s the
// one string copy of it that decoded strings are cut from, at the same
// offsets.
type decoder struct {
	b []byte
	s string
	i int
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next consumes the byte c after any whitespace, if it is next.
func (d *decoder) next(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes the literal lit (null, true, false) after any whitespace,
// if it is next. Whatever follows it is the caller's to check: "nullx" fails
// there.
func (d *decoder) literal(lit string) bool {
	d.ws()
	if len(d.s)-d.i >= len(lit) && d.s[d.i:d.i+len(lit)] == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// object decodes one JSON object. field decodes the value under key and
// returns that field's bit, one per field of the type, and whether the value
// was well-formed; an unknown key returns false. A key seen twice declines:
// encoding/json merges a repeated array or object into what the first one
// left, which is not worth matching for bodies no server writes.
func (d *decoder) object(field func(key string) (bit uint, ok bool)) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.str()
		if !ok || !d.next(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// list decodes one JSON array by calling elem once per element, and reports
// whether the value was null instead of an array.
func (d *decoder) list(elem func() bool) (null, ok bool) {
	if d.literal("null") {
		return true, true
	}
	if !d.next('[') {
		return false, false
	}
	if d.next(']') {
		return false, true
	}
	for {
		if !elem() {
			return false, false
		}
		if d.next(']') {
			return false, true
		}
		if !d.next(',') {
			return false, false
		}
	}
}

// str decodes a string with no escape and no control character in it —
// exactly the strings encoding/json would hand back unchanged.
func (d *decoder) str() (string, bool) {
	if !d.next('"') {
		return "", false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.s[d.i:j]
			d.i = j + 1
			return s, true
		case c == '\\' || c < ' ':
			return "", false
		}
	}
	return "", false
}

// number scans a token of JSON's number grammar, -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?,
// so that strconv never sees what JSON does not allow ("+1", "01", "1.",
// "0x1", "Inf", "1_0").
func (d *decoder) number() (string, bool) {
	d.ws()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return "", false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return "", false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return "", false
		}
		i = j
	}
	d.i = i
	return d.s[start:i], true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *decoder) string(dst *string) bool {
	s, ok := d.str()
	*dst = s
	return ok
}

// int parses as encoding/json does (strconv.ParseInt, then the int's range),
// so a fraction or an exponent declines where json reports a type error.
func (d *decoder) int(dst *int) bool {
	tok, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(tok, 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (d *decoder) float(dst *float64) bool {
	tok, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(tok, 64)
	*dst = f
	return err == nil
}

func (d *decoder) bool(dst *bool) bool {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// time hands the raw string token to (*time.Time).UnmarshalJSON, the call
// encoding/json makes, so a time parses exactly as it always has.
func (d *decoder) time(dst *time.Time) bool {
	s, ok := d.str()
	return ok && dst.UnmarshalJSON(d.b[d.i-len(s)-2:d.i]) == nil
}

// floats decodes an array of numbers: nil for null, empty (not nil) for [],
// as encoding/json leaves them.
func (d *decoder) floats(dst *[]float64) bool {
	var xs []float64
	null, ok := d.list(func() bool {
		var f float64
		ok := d.float(&f)
		xs = append(xs, f)
		return ok
	})
	if ok && !null && xs == nil {
		xs = []float64{}
	}
	*dst = xs
	return ok
}

// tags decodes a top_tags array onto the end of *all and points *dst at what
// it appended, capacity-capped so that an append to one row's tags cannot
// reach into the next row's. nil for null, empty (not nil) for [].
func (d *decoder) tags(all, dst *[]TagFreq) bool {
	a := len(*all)
	null, ok := d.list(func() bool {
		*all = append(*all, TagFreq{})
		return d.tagFreq(&(*all)[len(*all)-1])
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

func (d *decoder) tagFreq(t *TagFreq) bool {
	return d.object(func(key string) (uint, bool) {
		switch key {
		case "tag":
			return 1 << 0, d.string(&t.Tag)
		case "count":
			return 1 << 1, d.int(&t.Count)
		case "freq":
			return 1 << 2, d.float(&t.Freq)
		}
		return 0, false
	})
}

func (d *decoder) exportPage(p *ExportPage) bool {
	// Every row's tags, in row order, in one array that never grows: each tag
	// is an object, so the braces in the body bound the tags (the page's and
	// the rows' are the slack), and the rows' slices into it stay valid.
	all := make([]TagFreq, 0, bytes.Count(d.b, []byte{'{'}))
	return d.object(func(key string) (uint, bool) {
		switch key {
		case "items":
			null, ok := d.list(func() bool {
				p.Items = append(p.Items, ExportedResource{})
				return d.exportedResource(&p.Items[len(p.Items)-1], &all)
			})
			if ok && !null && p.Items == nil {
				p.Items = []ExportedResource{}
			}
			return 1 << 0, ok
		case "next_cursor":
			return 1 << 1, d.string(&p.NextCursor)
		}
		return 0, false
	})
}

func (d *decoder) exportedResource(r *ExportedResource, all *[]TagFreq) bool {
	return d.object(func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.string(&r.ID)
		case "name":
			return 1 << 1, d.string(&r.Name)
		case "posts":
			return 1 << 2, d.int(&r.Posts)
		case "stability":
			return 1 << 3, d.float(&r.Stability)
		case "top_tags":
			return 1 << 4, d.tags(all, &r.TopTags)
		}
		return 0, false
	})
}

func (d *decoder) resourceStatus(r *ResourceStatus) bool {
	var all []TagFreq
	return d.object(func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.string(&r.ID)
		case "index":
			return 1 << 1, d.int(&r.Index)
		case "posts":
			return 1 << 2, d.int(&r.Posts)
		case "allocated":
			return 1 << 3, d.int(&r.Allocated)
		case "stability":
			return 1 << 4, d.float(&r.Stability)
		case "oracle":
			return 1 << 5, d.float(&r.Oracle)
		case "promoted":
			return 1 << 6, d.bool(&r.Promoted)
		case "stopped":
			return 1 << 7, d.bool(&r.Stopped)
		case "exhausted":
			return 1 << 8, d.bool(&r.Exhausted)
		case "series":
			return 1 << 9, d.floats(&r.Series)
		case "top_tags":
			return 1 << 10, d.tags(&all, &r.TopTags)
		}
		return 0, false
	})
}

func (d *decoder) projectInfo(p *ProjectInfo) bool {
	return d.object(func(key string) (uint, bool) {
		switch key {
		case "project":
			return 1 << 0, d.project(&p.Project)
		case "spent":
			return 1 << 1, d.int(&p.Spent)
		case "mean_stability":
			return 1 << 2, d.float(&p.MeanStability)
		case "mean_oracle":
			return 1 << 3, d.float(&p.MeanOracle)
		case "running":
			return 1 << 4, d.bool(&p.Running)
		case "strategy_name":
			return 1 << 5, d.string(&p.StrategyName)
		case "pending_tasks":
			return 1 << 6, d.int(&p.PendingTasks)
		}
		return 0, false
	})
}

func (d *decoder) project(p *Project) bool {
	return d.object(func(key string) (uint, bool) {
		switch key {
		case "id":
			return 1 << 0, d.string(&p.ID)
		case "provider_id":
			return 1 << 1, d.string(&p.ProviderID)
		case "name":
			return 1 << 2, d.string(&p.Name)
		case "description":
			return 1 << 3, d.string(&p.Description)
		case "kind":
			return 1 << 4, d.string(&p.Kind)
		case "budget":
			return 1 << 5, d.int(&p.Budget)
		case "spent":
			return 1 << 6, d.int(&p.Spent)
		case "pay_per_task":
			return 1 << 7, d.float(&p.PayPerTask)
		case "strategy":
			return 1 << 8, d.string(&p.Strategy)
		case "platform":
			return 1 << 9, d.string(&p.Platform)
		case "status":
			return 1 << 10, d.string(&p.Status)
		case "created_at":
			return 1 << 11, d.time(&p.CreatedAt)
		}
		return 0, false
	})
}
