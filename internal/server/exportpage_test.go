package server

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"itag/internal/api"
	"itag/internal/core"
)

// exportPage is the export route's body as a value: the route writes it as
// exportParts lays it out, and encoding this struct gives the same bytes.
type exportPage struct {
	Items      []core.ExportedResource `json:"items"`
	NextCursor string                  `json:"next_cursor,omitempty"`
}

// exportPageCase is one page the parity checks lay out: its rows and its
// next cursor.
type exportPageCase struct {
	name string
	rows []core.ExportedResource
	next string
}

// exportPageRows is n rows named name, each with tags top tags (nil for
// tags < 0, empty but not nil for 0).
func exportPageRows(n int, name string, tags int) []core.ExportedResource {
	rows := make([]core.ExportedResource, n)
	for i := range rows {
		rows[i] = core.ExportedResource{ID: fmt.Sprintf("res-%04d", i), Name: name, Posts: i * 3, Stability: float64(i) / 7}
		if tags >= 0 {
			rows[i].TopTags = make([]core.TagFreq, 0, tags)
		}
		for k := 0; k < tags; k++ {
			rows[i].TopTags = append(rows[i].TopTags, core.TagFreq{Tag: fmt.Sprintf("%s-%d", name, k), Count: k + 1, Freq: 1 / float64(k+3)})
		}
	}
	return rows
}

// exportPageCases are the pinned parity cases; they also seed the fuzzer.
func exportPageCases() []exportPageCase {
	cursor := base64.RawURLEncoding.EncodeToString([]byte("res-0049"))
	return []exportPageCase{
		{name: "empty", rows: []core.ExportedResource{}},
		{name: "one row", rows: exportPageRows(1, "solo", 3)},
		{name: "50 rows, next cursor", rows: exportPageRows(50, "page", 10), next: cursor},
		{name: "50 rows, last page", rows: exportPageRows(50, "page", 10)},
		{name: "escapes", rows: exportPageRows(3, "<a href=\"x\">&</a> \\ \u2028 \xff\xfe", 2), next: cursor},
		{name: "nil top tags", rows: exportPageRows(2, "untagged", -1)},
		{name: "empty top tags", rows: exportPageRows(2, "untagged", 0)},
	}
}

// checkExportPageParity lays c out as the export route does — each row
// through core.EncodeExportRow, the page through exportParts — and checks
// the pieces against the response pipeline's encoding of exportPage, and
// the cache entry's Content-Length, ETag length term and written body
// against the pieces.
func checkExportPageParity(t *testing.T, c exportPageCase) {
	t.Helper()
	want, err := api.AppendJSON(nil, exportPage{Items: c.rows, NextCursor: c.next})
	if err != nil {
		t.Fatalf("%s: encoding/json: %v", c.name, err)
	}
	rows := make([][]byte, len(c.rows))
	for i, row := range c.rows {
		if rows[i], err = core.EncodeExportRow(row); err != nil {
			t.Fatalf("%s: row %d: %v", c.name, i, err)
		}
	}
	parts := exportParts(rows, c.next)
	if got := bytes.Join(parts, nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: pieces differ from encoding/json\n got %q\nwant %q", c.name, got, want)
	}

	e := newRespCache(0).newEntry(core.Stamp{}, &api.Raw{Parts: parts}, respKey{kind: respExport, a: "proj"})
	if cl := e.raw.ContentLength[0]; cl != strconv.Itoa(len(want)) {
		t.Errorf("%s: Content-Length %s, body %d bytes", c.name, cl, len(want))
	}
	term := strings.TrimSuffix(e.etag[strings.LastIndexByte(e.etag, '-')+1:], `"`)
	if n, err := strconv.ParseInt(term, 16, 64); err != nil || n != int64(len(want)) {
		t.Errorf("%s: ETag %s names length %q, body %d bytes", c.name, e.etag, term, len(want))
	}
	rec := httptest.NewRecorder()
	if err := api.WriteRaw(rec, 200, e.raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Errorf("%s: WriteRaw wrote %d bytes under Content-Length %s, want the %d-byte page", c.name, rec.Body.Len(), rec.Header().Get("Content-Length"), len(want))
	}
}

// TestExportPageMatchesEncodingJSON pins the export page's pieces to the
// bytes encoding/json makes of the same page: an empty page, one row, 50
// rows with and without a next cursor, names that need escaping (HTML
// characters, a quote, a backslash, U+2028, invalid UTF-8) and rows with
// nil and with empty top tags. A row json.Marshal refuses is refused by
// EncodeExportRow too, and answers 500 internal as the encode of a whole
// page did.
func TestExportPageMatchesEncodingJSON(t *testing.T) {
	for _, c := range exportPageCases() {
		checkExportPageParity(t, c)
	}
	_, err := core.EncodeExportRow(core.ExportedResource{ID: "nan", Stability: math.NaN()})
	if ae := mapErr(err); err == nil || ae.Status != http.StatusInternalServerError || ae.Code != api.CodeInternal {
		t.Errorf("EncodeExportRow of a NaN stability, which json.Marshal refuses: %v, answered as %+v; want 500 internal", err, ae)
	}
}

// FuzzExportPageParity is TestExportPageMatchesEncodingJSON over fuzzed
// names, tags, numbers, row counts and cursors:
//
//	go test -run '^$' -fuzz '^FuzzExportPageParity$' -fuzztime 10s ./internal/server
func FuzzExportPageParity(f *testing.F) {
	for _, c := range exportPageCases() {
		name, tag, tags, stability := "", "", -1, 0.0
		if len(c.rows) > 0 {
			r := c.rows[0]
			name, stability = r.Name, r.Stability
			if r.TopTags != nil {
				tags = len(r.TopTags)
			}
			if len(r.TopTags) > 0 {
				tag = r.TopTags[0].Tag
			}
		}
		f.Add(name, tag, len(c.rows), tags, stability, c.next)
	}
	f.Fuzz(func(t *testing.T, name, tag string, n, tags int, stability float64, next string) {
		if math.IsNaN(stability) || math.IsInf(stability, 0) {
			return // json.Marshal refuses the row; the route answers 500
		}
		n, tags = min(max(n, 0), 60), min(max(tags, -1), 12)
		rows := make([]core.ExportedResource, n)
		for i := range rows {
			rows[i] = core.ExportedResource{ID: fmt.Sprintf("%s-%d", name, i), Name: name, Posts: i, Stability: stability}
			if tags >= 0 {
				rows[i].TopTags = []core.TagFreq{}
			}
			for k := 0; k < tags; k++ {
				rows[i].TopTags = append(rows[i].TopTags, core.TagFreq{Tag: tag, Count: k, Freq: stability / float64(k+1)})
			}
		}
		checkExportPageParity(t, exportPageCase{name: "fuzz", rows: rows, next: next})
	})
}
