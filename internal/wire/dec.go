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
	if !parse(&d, &v) {
		return false
	}
	if d.ws(); d.i != len(d.b) {
		return false
	}
	*out = v
	return true
}

// Decoder is a cursor over a body: b is the body as read and s the one
// string copy of it that decoded strings are cut from, at the same offsets.
type Decoder struct {
	b []byte
	s string
	i int
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
	if len(d.s)-d.i >= len(lit) && d.s[d.i:d.i+len(lit)] == lit {
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
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.Str()
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
func (d *Decoder) Str() (string, bool) {
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
	return d.s[start:i], true
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
	s, ok := d.Str()
	return ok && dst.UnmarshalJSON(d.b[d.i-len(s)-2:d.i]) == nil
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
