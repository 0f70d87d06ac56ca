// Package wire is the JSON codec the store, the server's handler kit and the
// SDK share, without reflection: append encoders that write exactly the bytes
// encoding/json writes, and a cursor (Decoder) that decodes exactly the bodies
// encoding/json would decode to the same value and declines every other one,
// for encoding/json to decode or reject as it always has. It imports only the
// standard library, so the SDK can use it without reaching the server.
package wire

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// htmlSafe marks the bytes AppendString writes as they are, with one lookup:
// printable ASCII and DEL, except ", \, <, > and &.
var htmlSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// Enc appends one JSON object's fields as encoding/json writes them: declared
// field order, omitempty as tagged, HTML-safe escapes, ES6 floats, RFC 3339
// times. Each field is written with its name and the punctuation before it
// (`{"id":`, `,"name":`). OK turns false on a value json.Marshal refuses; the
// caller then leaves the value to json.Marshal, whose error it is.
type Enc struct {
	B  []byte
	OK bool
}

func (e *Enc) Str(name, s string) { e.B = AppendString(append(e.B, name...), s) }

// Opt is a string field tagged omitempty.
func (e *Enc) Opt(name, s string) {
	if s != "" {
		e.Str(name, s)
	}
}

// Flag is a bool field tagged omitempty: field is its whole true rendering.
func (e *Enc) Flag(field string, on bool) {
	if on {
		e.B = append(e.B, field...)
	}
}

func (e *Enc) Bool(name string, v bool) {
	e.B = strconv.AppendBool(append(e.B, name...), v)
}

func (e *Enc) Int(name string, n int) {
	e.B = strconv.AppendInt(append(e.B, name...), int64(n), 10)
}

// Strings is a []string field: null for nil, [] for empty.
func (e *Enc) Strings(name string, ss []string) {
	e.B = append(e.B, name...)
	if ss == nil {
		e.B = append(e.B, "null"...)
		return
	}
	e.B = append(e.B, '[')
	for i, s := range ss {
		if i > 0 {
			e.B = append(e.B, ',')
		}
		e.B = AppendString(e.B, s)
	}
	e.B = append(e.B, ']')
}

// Float is encoding/json's float64 encoder: the shortest round-tripping
// form, exponent notation below 1e-6 and from 1e21 up with the exponent's
// leading zero dropped (1e-07 → 1e-7). NaN and ±Inf are refused.
func (e *Enc) Float(name string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.OK = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(append(e.B, name...), f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.B = b
}

// Time is time.Time.MarshalJSON, refusing where it fails: a year outside
// [0, 9999] or a zone offset of a day or more. The date and second and the
// zone are formatted once per second and zone offset (lastStamp): a time
// in that second takes them from there and appends only its fraction, and
// the stamp stands for the checks its second passed.
func (e *Enc) Time(name string, t time.Time) {
	_, off := t.Zone()
	sec, st := t.Unix(), lastStamp.Load()
	if sec == zeroSecond.sec && off == 0 {
		st = zeroSecond // an unset time, as an unfinished task's done_at
	}
	if st == nil || st.sec != sec || st.off != off {
		if y := t.Year(); y < 0 || y > 9999 || off <= -86400 || off >= 86400 {
			e.OK = false
			return
		}
		start := len(e.B) + len(name) + 1
		b := t.AppendFormat(append(append(e.B, name...), '"'), time.RFC3339Nano)
		lastStamp.Store(stampOf(sec, off, b[start:]))
		e.B = append(b, '"')
		return
	}
	b := append(append(append(e.B, name...), '"'), st.date[:]...)
	if ns := t.Nanosecond(); ns != 0 {
		b = appendFraction(b, ns)
	}
	e.B = append(append(b, st.zone[:st.zlen]...), '"')
}

// stamp is one second's RFC 3339 text in one zone offset: the date and
// second, and the zone (Z or ±hh:mm). The fraction goes between them.
type stamp struct {
	sec  int64
	off  int
	date [len("2006-01-02T15:04:05")]byte
	zone [len("-07:00")]byte
	zlen uint8
}

// lastStamp is the second Time formatted last. Stores replace it whole, so
// a reader sees one stamp's fields.
var lastStamp atomic.Pointer[stamp]

// zeroSecond is the zero time's second in UTC.
var zeroSecond = stampOf(time.Time{}.Unix(), 0, []byte("0001-01-01T00:00:00Z"))

// stampOf cuts a stamp out of text, the RFC 3339 rendering of a time in
// second sec at zone offset off.
func stampOf(sec int64, off int, text []byte) *stamp {
	st := &stamp{sec: sec, off: off}
	n := copy(st.date[:], text)
	if n < len(text) && text[n] == '.' {
		for n++; n < len(text) && text[n] >= '0' && text[n] <= '9'; n++ {
		}
	}
	st.zlen = uint8(copy(st.zone[:], text[n:]))
	return st
}

// appendFraction appends ns (0 < ns < 1e9) as RFC3339Nano's fraction: a
// point and nine digits, trailing zeros dropped.
func appendFraction(b []byte, ns int) []byte {
	var d [10]byte
	d[0] = '.'
	for i := 9; i > 0; i-- {
		d[i] = byte('0' + ns%10)
		ns /= 10
	}
	n := 10
	for d[n-1] == '0' {
		n--
	}
	return append(b, d[:n]...)
}

// AppendPadded appends n in decimal, zero-padded to at least width digits:
// fmt's %0<width>d, without fmt. Post keys and task IDs are built with it.
func AppendPadded(b []byte, n uint64, width int) []byte {
	var d [20]byte
	digits := strconv.AppendUint(d[:0], n, 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// End closes an object begun at offset start whose fields, all of them
// omitempty, were each written with a leading comma: the first comma becomes
// the opening brace, and an object with no field written is {}.
func (e *Enc) End(start int) {
	if len(e.B) == start {
		e.B = append(e.B, "{}"...)
		return
	}
	e.B[start] = '{'
	e.B = append(e.B, '}')
}

// AppendString is encoding/json's string encoder with HTML escaping on, as
// json.Marshal runs it: \uXXXX for control bytes, <, >, &, U+2028 and
// U+2029, the short escapes where JSON has one, and \ufffd for each byte of
// invalid UTF-8.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if htmlSafe[s[i]] {
			i++
			continue
		}
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
