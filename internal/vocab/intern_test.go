package vocab

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	if in.Len() != 0 {
		t.Fatalf("fresh interner has %d tags", in.Len())
	}
	a := in.ID("go")
	b := in.ID("database")
	if a == b {
		t.Fatal("distinct tags share an ID")
	}
	if got := in.ID("go"); got != a {
		t.Errorf("re-interning changed ID: %d vs %d", got, a)
	}
	if got := in.Tag(a); got != "go" {
		t.Errorf("Tag(%d) = %q", a, got)
	}
	if got := in.Tag(1 << 30); got != "" {
		t.Errorf("out-of-range Tag = %q", got)
	}
	if id, ok := in.Lookup("database"); !ok || id != b {
		t.Errorf("Lookup(database) = %d, %v", id, ok)
	}
	if _, ok := in.Lookup("unseen"); ok {
		t.Error("Lookup must not intern")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
}

func TestInternerIDsAreDense(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 100; i++ {
		if id := in.ID(fmt.Sprintf("tag-%03d", i)); id != uint32(i) {
			t.Fatalf("tag %d got ID %d", i, id)
		}
	}
}

func TestInternerCanonSharesInstance(t *testing.T) {
	in := NewInterner()
	// Build the tag dynamically so the compiler can't pool the literals.
	t1 := in.Canon(string([]byte("golang")))
	t2 := in.Canon(string([]byte("golang")))
	if t1 != t2 {
		t.Fatal("Canon returned different tags")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d", in.Len())
	}
}

// TestInternerConcurrent hammers the interner from many goroutines over an
// overlapping tag set; IDs must be stable and the reverse mapping
// consistent. Run under -race in CI.
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	const workers = 16
	const tags = 200
	ids := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, tags)
			for i := 0; i < tags; i++ {
				// Each worker starts at a different offset so interning
				// races on first-sight ordering, not just lookups.
				tag := fmt.Sprintf("tag-%03d", (i+w*13)%tags)
				ids[w][(i+w*13)%tags] = in.ID(tag)
			}
		}(w)
	}
	wg.Wait()
	if in.Len() != tags {
		t.Fatalf("interned %d tags, want %d", in.Len(), tags)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < tags; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d saw ID %d for tag %d, worker 0 saw %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
	for i := 0; i < tags; i++ {
		want := fmt.Sprintf("tag-%03d", i)
		if got := in.Tag(ids[0][i]); got != want {
			t.Fatalf("Tag(%d) = %q, want %q", ids[0][i], got, want)
		}
	}
}

// Canon returns the canonical shared instance of tag, interning it if
// needed, so repeated tags share one backing array instead of accumulating
// per-post copies.
func (in *Interner) Canon(tag string) string {
	in.mu.RLock()
	if id, ok := in.ids[tag]; ok {
		t := in.tags[id]
		in.mu.RUnlock()
		return t
	}
	in.mu.RUnlock()
	return in.Tag(in.ID(tag))
}
