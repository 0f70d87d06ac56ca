package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// omitted is a type whose fields are all omitempty, the shape Enc.End closes.
type omitted struct {
	A string   `json:"a,omitempty"`
	B bool     `json:"b,omitempty"`
	C []string `json:"c,omitempty"`
}

func (o omitted) append(dst []byte) []byte {
	e := Enc{B: dst, OK: true}
	start := len(e.B)
	e.Opt(`,"a":`, o.A)
	e.Flag(`,"b":true`, o.B)
	if len(o.C) > 0 {
		e.Strings(`,"c":`, o.C)
	}
	e.End(start)
	return e.B
}

// TestEncMatchesMarshal: an all-omitempty object with no field, one field
// and every field, and a list of strings nil, empty and full, encode to
// json.Marshal's bytes.
func TestEncMatchesMarshal(t *testing.T) {
	for _, o := range []omitted{{}, {A: "<x>"}, {B: true}, {C: []string{}}, {A: "a", B: true, C: []string{" ", "\xff"}}} {
		want, _ := json.Marshal(o)
		if got := o.append([]byte("[")); string(got) != "["+string(want) {
			t.Errorf("%#v: %s, json.Marshal %s", o, got[1:], want)
		}
	}
	for _, ss := range [][]string{nil, {}, {"a", `"q"`, "&"}} {
		want, _ := json.Marshal(map[string][]string{"s": ss})
		e := Enc{OK: true}
		e.Strings(`{"s":`, ss)
		if got := string(append(e.B, '}')); got != string(want) {
			t.Errorf("%#v: %s, json.Marshal %s", ss, got, want)
		}
	}
}

type lists struct {
	X []string `json:"x"`
	Y []string `json:"y"`
}

func parseLists(d *Decoder, l *lists) bool {
	var all []string
	return d.Object(func(key string) (uint, bool) {
		switch key {
		case "x":
			return 1, d.Strings(&all, &l.X)
		case "y":
			return 2, d.Strings(&all, &l.Y)
		}
		return 0, false
	})
}

// TestStringsShareOneArray: two lists decoded onto one array read as
// encoding/json reads them — nil for null, empty for [] — and growing the
// first cannot write over the second.
func TestStringsShareOneArray(t *testing.T) {
	for _, body := range []string{`{"x":["a","b"],"y":["c"]}`, `{"x":null,"y":[]}`, `{"x":[],"y":["c","d"]}`, `{}`} {
		var got, want lists
		if !Into([]byte(body), &got, parseLists) {
			t.Fatalf("%s: declined", body)
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %#v, json %#v (%v)", body, got, want, err)
		}
		got.X = append(got.X, "spill")
		if !reflect.DeepEqual(got.Y, want.Y) {
			t.Errorf("%s: an append to x wrote over y: %#v", body, got.Y)
		}
	}
	for _, body := range []string{`{"x":["a",null]}`, `{"x":["a\/b"]}`, `{"x":[]} x`, `{"x":[],"x":[]}`, "{\"x\":[\"\xff\"]}"} {
		var got lists
		if Into([]byte(body), &got, parseLists) || !reflect.DeepEqual(got, lists{}) {
			t.Errorf("%s: taken, or a decline wrote %#v", body, got)
		}
	}
}

type raw struct {
	V json.RawMessage `json:"v"`
}

func parseRaw(d *Decoder, r *raw) bool {
	return d.Object(func(key string) (uint, bool) {
		if key != "v" {
			return 0, false
		}
		v, ok := d.Value()
		r.V = v
		return 1, ok
	})
}

// TestValueMatchesRawMessage: what Value takes, json.Unmarshal takes too,
// and the extent it returns is the json.RawMessage encoding/json fills —
// whitespace and escapes inside the value kept, none around it. What
// encoding/json refuses, Value refuses.
func TestValueMatchesRawMessage(t *testing.T) {
	deep := strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1)
	taken := []string{
		`1`, `-0.5e+3`, `"s"`, `"a\"b\\c\/\b\f\n\r\t\u00e9\uD83D"`, "\"é世\u2028\"", `true`, `false`, `null`,
		`{}`, `[]`, `{ "a" : [ 1 , { "b" : null } ] , "c" : "d" }`, `[[[]],{},""]`, " \t\r\n{\"k\":1}\n ",
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
	}
	refused := []string{
		``, `tru`, `nul`, `01`, `1.`, `.5`, `+1`, `1e`, `-`, `"a`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"\x01\"",
		`{`, `[1,]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `[1 2]`, `{"a":1]`, `[}`, `'s'`, `NaN`, `undefined`,
	}
	for _, v := range append(taken, refused...) {
		body := []byte(`{"v":` + v + `}`)
		var got, want raw
		took := Into(body, &got, parseRaw)
		err := json.Unmarshal(body, &want)
		switch {
		case took && (err != nil || !bytes.Equal(got.V, want.V)):
			t.Errorf("%s: Value %q; json %q, %v", v, got.V, want.V, err)
		case !took && err == nil:
			t.Errorf("%s: Value declines what json takes as %q", v, want.V)
		}
	}
	var got raw
	if Into([]byte(`{"v":`+deep+`}`), &got, parseRaw) {
		t.Errorf("a value %d deep was taken", maxDepth+1)
	}
}

// TestAppendPaddedMatchesFmt: post keys (width 12) and task IDs (width 5)
// are the strings fmt's %0<width>d made, short numbers padded and long ones
// whole.
func TestAppendPaddedMatchesFmt(t *testing.T) {
	for _, width := range []int{0, 1, 5, 12} {
		for _, n := range []uint64{0, 1, 9, 10, 99999, 100000, 123456789012, 1234567890123, math.MaxUint64} {
			got := string(AppendPadded([]byte("res/"), n, width))
			if want := fmt.Sprintf("res/%0*d", width, n); got != want {
				t.Errorf("AppendPadded(%d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}

// TestAppendStringMatchesMarshal: every byte alone, after plain text and
// before it — the table's fast path and the rune path on both sides of each
// boundary — and the runes json.Marshal escapes encode to json.Marshal's
// bytes.
func TestAppendStringMatchesMarshal(t *testing.T) {
	var ss []string
	for c := 0; c < 256; c++ {
		ss = append(ss, string([]byte{byte(c)}), "ab"+string([]byte{byte(c)}), string([]byte{byte(c)})+"yz")
	}
	ss = append(ss, "", "é", "日本", "  ", "�", "a\xe2\x80", "<b>&amp;</b>", "tab\there")
	for _, s := range ss {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}

// appendStringCases are record-shaped strings: IDs, keys, tags, a name and a
// time, the values every frame, record and response encode writes.
var appendStringCases = []string{
	"res-0042", "tagger-07", "proj-00000000001", "res-0042/000000000017",
	"database", "Résumé of the week: <tags> & links", "2026-10-19T05:18:19.123456789Z",
}

// BenchmarkAppendString encodes the seven record-shaped strings once per op.
func BenchmarkAppendString(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, s := range appendStringCases {
			buf = AppendString(buf, s)
		}
	}
}

// FuzzTimeMatchesMarshalJSON holds Enc.Time to time.Time.MarshalJSON: the
// same bytes, or a refusal where MarshalJSON fails, for a time formatted in
// full (a second the stamp does not hold) and for the same time again and
// its neighbours in that second, which take the stamp.
func FuzzTimeMatchesMarshalJSON(f *testing.F) {
	f.Add(int64(1767323045), int64(0), int32(0), true)             // UTC, no fraction
	f.Add(int64(1767323045), int64(120000000), int32(0), true)     // trailing zeros dropped
	f.Add(int64(1767323045), int64(999999999), int32(3600), false) // offset zone
	f.Add(int64(1767323045), int64(100), int32(-34200), false)     // negative half-hour offset
	f.Add(int64(1767323045), int64(5), int32(0), false)            // a zone named "" at offset 0
	f.Add(int64(-62167219200), int64(0), int32(0), true)           // year 0
	f.Add(int64(-62135596800), int64(0), int32(0), true)           // the zero time
	f.Add(int64(-62135596800), int64(1), int32(0), true)           // the zero time's second, a nanosecond on
	f.Add(int64(253402300799), int64(999999999), int32(0), true)   // the last instant of 9999
	f.Add(int64(253402300799), int64(0), int32(3600), false)       // year 10000 in +01:00: refused
	f.Add(int64(-62167219200), int64(0), int32(-60), false)        // year -1 in -00:01: refused
	f.Add(int64(1767323045), int64(0), int32(86400), false)        // a day's offset: refused
	f.Add(int64(1767323045), int64(0), int32(45), false)           // an offset of seconds
	f.Fuzz(func(t *testing.T, sec, nsec int64, off int32, utc bool) {
		at := time.Unix(sec, nsec%1e9)
		if utc {
			at = at.UTC()
		} else {
			at = at.In(time.FixedZone("", int(off)))
		}
		for _, tm := range []time.Time{at, at, at.Add(-time.Duration(at.Nanosecond())), at, time.Time{}, at} {
			want, wantErr := tm.MarshalJSON()
			e := Enc{B: []byte("{"), OK: true}
			e.Time(`"t":`, tm)
			switch {
			case wantErr != nil:
				if e.OK {
					t.Fatalf("%v: Enc.Time wrote %s, MarshalJSON refuses: %v", tm, e.B, wantErr)
				}
			case !e.OK:
				t.Fatalf("%v: Enc.Time refuses what MarshalJSON writes: %s", tm, want)
			case string(e.B) != `{"t":`+string(want):
				t.Fatalf("%v: Enc.Time %s, MarshalJSON %s", tm, e.B[len(`{"t":`):], want)
			}
		}
	})
}
