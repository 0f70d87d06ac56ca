package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
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
