package store

// Model-based property test (run with -race in CI): a randomized op
// sequence — Put / Delete / Apply / Compact / reopen — applied to a durable
// DB and an in-memory model map must converge to identical Scan state.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// propModel mirrors store contents as table → key → raw JSON.
type propModel map[string]map[string]string

func (m propModel) put(table, key string, val any) {
	raw, _ := json.Marshal(val)
	t := m[table]
	if t == nil {
		t = make(map[string]string)
		m[table] = t
	}
	t[key] = string(raw)
}

func (m propModel) del(table, key string) {
	delete(m[table], key)
}

// state converts to the dump() shape, dropping empty tables (a store never
// reports a table it holds no keys for after recovery).
func (m propModel) state() map[string]map[string]string {
	out := make(map[string]map[string]string)
	for table, rows := range m {
		if len(rows) == 0 {
			continue
		}
		cp := make(map[string]string, len(rows))
		for k, v := range rows {
			cp[k] = v
		}
		out[table] = cp
	}
	return out
}

func TestPropertyOpSequenceConvergence(t *testing.T) {
	seeds := []int64{7, 42, 2014}
	steps := 400
	if testing.Short() {
		seeds, steps = seeds[:1], 150
	}
	tables := []string{"posts", "users"}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			dbPath := filepath.Join(dir, "db.wal")
			// Small segments + auto-compact so the sequence crosses
			// rotations and background snapshots, not just appends.
			opts := Options{SegmentBytes: 1 << 10, AutoCompact: 8 << 10}
			db, err := Open(dbPath, opts)
			if err != nil {
				t.Fatal(err)
			}
			model := make(propModel)
			r := rand.New(rand.NewSource(seed))
			randKey := func() string {
				return fmt.Sprintf("res-%d/%03d", r.Intn(8), r.Intn(60))
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("db: %v", err)
				}
			}
			for i := 0; i < steps; i++ {
				switch n := r.Intn(100); {
				case n < 55: // put
					table, key, val := tables[r.Intn(2)], randKey(), r.Intn(10000)
					must(db.Put(table, key, val))
					model.put(table, key, val)
				case n < 70: // delete
					table, key := tables[r.Intn(2)], randKey()
					must(db.Delete(table, key))
					model.del(table, key)
				case n < 85: // atomic batch
					var muts []Mutation
					for j := 0; j < 2+r.Intn(3); j++ {
						table, key := tables[r.Intn(2)], randKey()
						if r.Intn(4) == 0 {
							muts = append(muts, Mutation{Op: OpDelete, Table: table, Key: key})
						} else {
							muts = append(muts, Mutation{Op: OpPut, Table: table, Key: key, Value: jsonOf(j)})
						}
					}
					must(db.Apply(muts))
					for _, m := range muts {
						if m.Op == OpPut {
							model.put(m.Table, m.Key, m.Value)
						} else {
							model.del(m.Table, m.Key)
						}
					}
				case n < 93: // online compaction
					if err := db.Compact(); err != nil {
						t.Fatalf("db compact: %v", err)
					}
				default: // crashless reopen
					if err := db.Close(); err != nil {
						t.Fatalf("db close: %v", err)
					}
					if db, err = Open(dbPath, opts); err != nil {
						t.Fatalf("db reopen: %v", err)
					}
				}
			}
			// Final reopen: the recovered state must match the model.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(dbPath, opts); err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			// A store may remember a table whose keys were all deleted; the
			// model only tracks live keys, so compare non-empty tables.
			dumpLive := func(s *DB) map[string]map[string]string {
				out := make(map[string]map[string]string)
				for table, rows := range dumpAll(t, s) {
					if len(rows) > 0 {
						out[table] = rows
					}
				}
				return out
			}
			want := model.state()
			if got := dumpLive(db); !reflect.DeepEqual(got, want) {
				t.Fatalf("DB diverged from model:\n got  %v\n want %v", got, want)
			}
		})
	}
}
