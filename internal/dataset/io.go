package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The on-disk formats:
//
//   - JSONL: one JSON document per line; a header line {"resources":[...]}
//     followed by one line per post. Streams well and diffs well.
//   - CSV posts: resource_id,tagger_id,unix_nano,tag1;tag2;... for
//     interchange with spreadsheet tooling.

// WriteJSONL serializes a dataset to the JSONL format.
func WriteJSONL(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	header := struct {
		Resources []Resource `json:"resources"`
	}{Resources: d.Resources}
	if err := enc.Encode(&header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for i := range d.Posts {
		if err := enc.Encode(&d.Posts[i]); err != nil {
			return fmt.Errorf("dataset: write post %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// SaveJSONL writes the dataset to a file.
func SaveJSONL(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePostsCSV writes the post trace as CSV with a header row. Tags are
// joined with ';' (tags are normalized lowercase words, so ';' is safe).
func WritePostsCSV(w io.Writer, posts []Post) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"resource_id", "tagger_id", "unix_nano", "tags"}); err != nil {
		return err
	}
	for i, p := range posts {
		rec := []string{p.ResourceID, p.TaggerID, strconv.FormatInt(p.Time.UnixNano(), 10), strings.Join(p.Tags, ";")}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: csv post %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
