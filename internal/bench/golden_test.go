package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/small/*.txt")

// TestPaperGolden pins the paper's tables: every entry of Experiments,
// run at SmallSizes, must render byte-for-byte the text committed under
// testdata/small. A3's wall_ms column is wall-clock time, so its cells are
// masked before rendering; every other cell is seeded and deterministic at
// any GOMAXPROCS. Regenerate with `make golden`.
func TestPaperGolden(t *testing.T) {
	for _, exp := range Experiments {
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run(SmallSizes())
			if err != nil {
				t.Fatal(err)
			}
			maskColumn(res, "wall_ms")
			got := res.Text()
			path := filepath.Join("testdata", "small", exp.ID+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run `make golden` to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: output drifted from the pinned paper table; if the change is meant, "+
					"run `make golden` and explain the diff in CHANGES.md\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// maskColumn replaces every cell under the named header with "-".
func maskColumn(res Result, name string) {
	for i, h := range res.Header {
		if h != name {
			continue
		}
		for _, row := range res.Rows {
			row[i] = "-"
		}
	}
}
