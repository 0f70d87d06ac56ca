package wire

import (
	"bytes"
	"strconv"
	"time"
	"unicode/utf8"
)

// Into decodes body into out with parse, directly, when body is one JSON
// value parse takes whole: valid UTF-8, the value, then nothing but
// whitespace. It reports whether it decoded; on anything else it declines and
// leaves out untouched, for encoding/json to decode — or reject — exactly as
// it would have.
//
// A parser built from this package's cursor takes a body only when it is
// shaped the way this repository writes one: known keys, each at most once,
// spelled exactly; strings of valid UTF-8 with no backslash escape; numbers
// in JSON's grammar; no null where a string, number, bool, time or object
// belongs. Whatever it takes, json.Unmarshal takes and decodes to a
// reflect.DeepEqual value; the parity fuzz targets of the SDK and the server
// hold every parser to that.
//
// Every string in the result is a substring of one copy of the body, so a
// decode costs that copy and the slices that hold its lists, not an
// allocation per string; whatever outlives the body should be cloned.
func Into[T any](body []byte, out *T, parse func(*Decoder, *T) bool) bool {
	if !utf8.Valid(body) {
		return false // encoding/json substitutes U+FFFD; leave that to it
	}
	d := Decoder{b: body, s: string(body)}
	var v T
	if !parse(&d, &v) || !d.End() {
		return false
	}
	*out = v
	return true
}

// Over returns a cursor over body for a caller that drives the parse itself
// and keeps few of the strings it reads: it makes no copy of body, and each
// string it decodes is an allocation of its own (an object key ObjectOf
// knows, none), so nothing decoded aliases body and a body read into a
// reused buffer costs only the strings decoded. It takes what Into takes and
// declines what Into declines: ok is false for a body that is not valid
// UTF-8, and a parse is whole once End reports true.
func Over(body []byte) (d Decoder, ok bool) {
	return Decoder{b: body}, utf8.Valid(body)
}

// End consumes trailing whitespace and reports whether the body ends there.
func (d *Decoder) End() bool {
	d.ws()
	return d.i == len(d.b)
}

// Decoder is a cursor over a body: b is the body as read and s the one
// string copy of it that decoded strings are cut from, at the same offsets —
// or, for a cursor from Over, "", and each string is copied alone.
type Decoder struct {
	b []byte
	s string
	i int
}

// cut returns the body's bytes [i, j) as a string; for a cursor from Over,
// the one of names they spell, if any.
func (d *Decoder) cut(i, j int, names []string) string {
	if d.s != "" {
		return d.s[i:j]
	}
	for _, n := range names {
		if string(d.b[i:j]) == n {
			return n
		}
	}
	return string(d.b[i:j])
}

// Count is the number of c bytes in the whole body: '{' bounds its objects
// and '"' twice its strings, for presizing.
func (d *Decoder) Count(c byte) int { return bytes.Count(d.b, []byte{c}) }

func (d *Decoder) ws() {
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
func (d *Decoder) next(c byte) bool {
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
func (d *Decoder) literal(lit string) bool {
	d.ws()
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// Object decodes one JSON object. field decodes the value under key and
// returns that field's bit, one per field of the type, and whether the value
// was well-formed; an unknown key returns false. A key seen twice declines:
// encoding/json merges a repeated array or object into what the first one
// left, which is not worth matching for bodies nobody writes.
func (d *Decoder) Object(field func(key string) (bit uint, ok bool)) bool {
	return d.ObjectOf(nil, field)
}

// ObjectOf is Object for a cursor from Over that knows the object's keys: a
// key among keys is handed to field without an allocation.
func (d *Decoder) ObjectOf(keys []string, field func(key string) (bit uint, ok bool)) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.StrOf(keys)
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

// List decodes one JSON array by calling elem once per element, and reports
// whether the value was null instead of an array.
func (d *Decoder) List(elem func() bool) (null, ok bool) {
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

// Str decodes a string with no escape and no control character in it —
// exactly the strings encoding/json would hand back unchanged.
func (d *Decoder) Str() (string, bool) { return d.StrOf(nil) }

// StrOf is Str for a cursor from Over that knows the values the string
// likely holds: one among names is returned without an allocation.
func (d *Decoder) StrOf(names []string) (string, bool) {
	i, j, ok := d.span()
	if !ok {
		return "", false
	}
	return d.cut(i, j, names), true
}

// span consumes a string Str takes and returns where its contents start and
// end in the body.
func (d *Decoder) span() (i, j int, ok bool) {
	if !d.next('"') {
		return 0, 0, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			i, d.i = d.i, j+1
			return i, j, true
		case c == '\\' || c < ' ':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// Number scans a token of JSON's number grammar, -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?,
// so that strconv never sees what JSON does not allow ("+1", "01", "1.",
// "0x1", "Inf", "1_0").
func (d *Decoder) Number() (string, bool) {
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
	return d.cut(start, i, nil), true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *Decoder) String(dst *string) bool {
	s, ok := d.Str()
	*dst = s
	return ok
}

// Int parses as encoding/json does (strconv.ParseInt, then the int's range),
// so a fraction or an exponent declines where json reports a type error.
func (d *Decoder) Int(dst *int) bool {
	tok, ok := d.Number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(tok, 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (d *Decoder) Float(dst *float64) bool {
	tok, ok := d.Number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(tok, 64)
	*dst = f
	return err == nil
}

func (d *Decoder) Bool(dst *bool) bool {
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

// Time hands the raw string token to (*time.Time).UnmarshalJSON, the call
// encoding/json makes, so a time parses exactly as it always has.
func (d *Decoder) Time(dst *time.Time) bool {
	i, j, ok := d.span()
	return ok && dst.UnmarshalJSON(d.b[i-1:j+1]) == nil
}

// Floats decodes an array of numbers: nil for null, empty (not nil) for [],
// as encoding/json leaves them.
func (d *Decoder) Floats(dst *[]float64) bool {
	var xs []float64
	null, ok := d.List(func() bool {
		var f float64
		ok := d.Float(&f)
		xs = append(xs, f)
		return ok
	})
	if ok && !null && xs == nil {
		xs = []float64{}
	}
	*dst = xs
	return ok
}

// Strings decodes an array of strings onto the end of *all and points *dst
// at what it appended, capacity-capped so that an append to one list cannot
// reach into the next one's: the lists of many objects share one array. nil
// for null, empty (not nil) for [], as encoding/json leaves them.
func (d *Decoder) Strings(all, dst *[]string) bool {
	a := len(*all)
	null, ok := d.List(func() bool {
		s, ok := d.Str()
		*all = append(*all, s)
		return ok
	})
	switch b := len(*all); {
	case null:
		*dst = nil
	case b == a:
		*dst = []string{}
	default:
		*dst = (*all)[a:b:b]
	}
	return ok
}

// maxDepth bounds how deeply Value nests; encoding/json stops at 10 000, and
// anything deeper than this is left to it.
const maxDepth = 512

// Value consumes one JSON value of any kind and returns its bytes as they
// stand in the body, inner whitespace and escapes kept: the bytes
// encoding/json hands a json.RawMessage. It checks the value as
// encoding/json's scanner does — strings with no control byte and only
// JSON's escapes, numbers in JSON's grammar, literals spelled out, brackets
// matched — so what it accepts json.Unmarshal accepts too. The result is a
// slice of the body: a caller that keeps it copies it.
func (d *Decoder) Value() ([]byte, bool) {
	d.ws()
	start := d.i
	if !d.skip(0) {
		return nil, false
	}
	return d.b[start:d.i], true
}

// skip consumes one value nested depth containers deep.
func (d *Decoder) skip(depth int) bool {
	d.ws()
	if d.i >= len(d.b) {
		return false
	}
	switch d.b[d.i] {
	case '{', '[':
		closer := d.b[d.i] + 2 // '}' and ']' are two past '{' and '['
		if depth == maxDepth {
			return false
		}
		d.i++
		if d.next(closer) {
			return true
		}
		for {
			if closer == '}' && !(d.skipString() && d.next(':')) {
				return false
			}
			if !d.skip(depth + 1) {
				return false
			}
			if d.next(closer) {
				return true
			}
			if !d.next(',') {
				return false
			}
		}
	case '"':
		return d.skipString()
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, ok := d.Number()
	return ok
}

// plain marks the bytes that stand for themselves inside a JSON string:
// none of '"', '\\' or a control byte.
var plain = func() (t [256]bool) {
	for c := ' '; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipString consumes one string, escapes and all.
func (d *Decoder) skipString() bool {
	if !d.next('"') {
		return false
	}
	b, i := d.b, d.i
	for {
		for i < len(b) && plain[b[i]] {
			i++
		}
		switch {
		case i == len(b) || b[i] < ' ':
			return false
		case b[i] == '"':
			d.i = i + 1
			return true
		}
		// A backslash: one of JSON's escapes must follow.
		if i++; i == len(b) {
			return false
		}
		switch b[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			if i+4 >= len(b) {
				return false
			}
			for _, h := range b[i+1 : i+5] {
				if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
					return false
				}
			}
			i += 4
		default:
			return false
		}
		i++
	}
}
