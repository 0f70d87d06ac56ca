package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRecordCacheInvalidation pins read-your-writes through the decoded-
// record cache: every Catalog write path must invalidate the cached decode
// it supersedes.
func TestRecordCacheInvalidation(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if err := c.PutUser(UserRec{ID: "u1", Judged: 1}); err != nil {
		t.Fatal(err)
	}
	if u, _ := c.GetUser("u1"); u.Judged != 1 {
		t.Fatalf("Judged = %d, want 1", u.Judged)
	}
	if err := c.PutUser(UserRec{ID: "u1", Judged: 2}); err != nil {
		t.Fatal(err)
	}
	if u, _ := c.GetUser("u1"); u.Judged != 2 {
		t.Fatalf("cached stale user: Judged = %d, want 2", u.Judged)
	}

	if _, err := c.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	p, err := c.GetPost("r1", 1)
	if err != nil || p.Approved != nil {
		t.Fatalf("fresh post: %+v, %v", p, err)
	}
	yes := true
	p.Approved = &yes
	if err := c.UpdatePost("r1", 1, p); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.GetPost("r1", 1); got.Approved == nil || !*got.Approved {
		t.Fatalf("cached stale post after UpdatePost: %+v", got)
	}
	posts, err := c.PostsOf("r1")
	if err != nil || len(posts) != 1 || posts[0].Approved == nil {
		t.Fatalf("PostsOf after judge: %+v, %v", posts, err)
	}
}

// storedRaw reads the bytes the store holds under (table, key), as catGet
// does.
func storedRaw(t *testing.T, c *Catalog, table, key string) []byte {
	t.Helper()
	var raw rawValue
	if err := c.db.Get(table, key, &raw); err != nil {
		t.Fatal(err)
	}
	return raw.RawMessage
}

// TestRecordCacheSliceRecordsConcurrentFills pins that concurrent fills of
// records with uncomparable fields (PostRec.Tags is a slice) publish over
// each other without panicking, and that an entry answers only the bytes it
// was decoded from.
func TestRecordCacheSliceRecordsConcurrentFills(t *testing.T) {
	c := NewCatalog(OpenMemory())
	for i := 0; i < 6; i++ {
		if _, err := c.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	// Publish over an existing entry: the later add replaces the earlier,
	// and each is served only for the bytes it names.
	key := postKey("r1", 1)
	raw := storedRaw(t, c, TablePosts, key)
	c.cache.add(TablePosts, key, raw, PostRec{ResourceID: "r1", Tags: []string{"old"}})
	c.cache.add(TablePosts, key, raw, PostRec{ResourceID: "r1", Tags: []string{"new"}})
	if v, ok := c.cache.get(TablePosts, key, raw); !ok || v.(PostRec).Tags[0] != "new" {
		t.Fatalf("publish over an entry failed: %v %v", v, ok)
	}
	if _, ok := c.cache.get(TablePosts, key, append([]byte(nil), raw...)); ok {
		t.Fatal("an entry answered an equal copy of the bytes it was decoded from")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.PostsOf("r1"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecordCacheConcurrentFreshness races one writer bumping a user
// record's counter against many cached readers: no reader may ever observe
// the counter move backwards (which is exactly what a stale decode cached
// after a newer write would look like).
func TestRecordCacheConcurrentFreshness(t *testing.T) {
	c := NewCatalog(OpenMemory())
	const writes = 2000
	if err := c.PutUser(UserRec{ID: "u1"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= writes; i++ {
			if err := c.PutUser(UserRec{ID: "u1", Judged: i}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				u, err := c.GetUser("u1")
				if err != nil {
					errCh <- err
					return
				}
				if u.Judged < last {
					errCh <- fmt.Errorf("stale cached read: Judged went %d -> %d", last, u.Judged)
					return
				}
				last = u.Judged
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if u, _ := c.GetUser("u1"); u.Judged != writes {
		t.Fatalf("final Judged = %d, want %d", u.Judged, writes)
	}
}

// TestRecordCacheOlderFillPublishedLast is the concurrent-freshness race
// played in order. A write is visible in the store but its invalidate has
// not run yet, so the table clock has not moved. A fill that read the bytes
// after the write publishes its decode first; a fill that read the bytes
// before the write publishes last. A clock-stamped cache gave both fills the
// same stamp and let the older decode replace the newer: a reader that had
// already seen the new value then read the old one. Keyed by the bytes, the
// older decode never answers a read of the newer bytes.
func TestRecordCacheOlderFillPublishedLast(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if err := c.PutUser(UserRec{ID: "u1", Judged: 1}); err != nil {
		t.Fatal(err)
	}
	older := storedRaw(t, c, TableUsers, "u1")
	if err := c.db.Put(TableUsers, "u1", UserRec{ID: "u1", Judged: 2}); err != nil {
		t.Fatal(err) // visible, not yet invalidated
	}
	newer := storedRaw(t, c, TableUsers, "u1")
	c.cache.add(TableUsers, "u1", newer, UserRec{ID: "u1", Judged: 2})
	requireJudged := func(want int, when string) {
		t.Helper()
		if u, err := c.GetUser("u1"); err != nil || u.Judged != want {
			t.Fatalf("GetUser %s = %d, %v; want %d", when, u.Judged, err, want)
		}
		users, err := c.ListUsers("")
		if err != nil || len(users) != 1 || users[0].Judged != want {
			t.Fatalf("ListUsers %s = %+v, %v; want Judged %d", when, users, err, want)
		}
	}
	requireJudged(2, "after the newer fill published")
	c.cache.add(TableUsers, "u1", older, UserRec{ID: "u1", Judged: 1})
	requireJudged(2, "after the older fill published last")
	c.invalidate(TableUsers, "u1")
	requireJudged(2, "after the write's invalidate")
}

// decodingStore is a Store decorator that does not pass Get's out through:
// it decodes its own copy of the value into it.
type decodingStore struct{ Store }

func (d decodingStore) Get(table, key string, out any) error {
	var raw json.RawMessage
	if err := d.Store.Get(table, key, &raw); err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// TestRecordCacheOverADecodingStore: over a Store that hands catGet a copy
// instead of the stored slice, reads are still right, only never hits.
func TestRecordCacheOverADecodingStore(t *testing.T) {
	c := NewCatalog(decodingStore{OpenMemory()})
	for i := 1; i <= 3; i++ {
		if err := c.PutUser(UserRec{ID: "u1", Judged: i}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if u, err := c.GetUser("u1"); err != nil || u.Judged != i {
				t.Fatalf("GetUser after write %d = %d, %v", i, u.Judged, err)
			}
		}
	}
	if _, err := c.GetUser("nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetUser of an absent ID = %v, want ErrNotFound", err)
	}
}

// raceCompletedWrites runs one writer through writes 1..n — write(i), then
// committed = i — against four readers that each load committed and then
// read, and fails if a read returns less than the committed value it loaded:
// the value a write that had already returned replaced.
func raceCompletedWrites(t *testing.T, n int, write func(i int) error, read func() (int, error)) {
	t.Helper()
	var committed atomic.Int64
	done := make(chan struct{})
	errCh := make(chan error, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= n; i++ {
			if err := write(i); err != nil {
				errCh <- err
				return
			}
			committed.Store(int64(i))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				want := int(committed.Load())
				got, err := read()
				if err != nil {
					errCh <- err
					return
				}
				if got < want {
					errCh <- fmt.Errorf("read %d after write %d had returned: a completed write's predecessor was served", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestRecordCacheNeverServesACompletedWritesPredecessor is the strict form
// of read-your-writes across goroutines: once PutUser has returned, no
// GetUser anywhere may return the value it replaced. Two Catalog callers do
// read-modify-write over the cache and pay for such a read: JudgePost's
// "already judged" check on a stale GetPost judges (and pays for) a post
// twice, and AddBudget on a stale GetProject loses a top-up. A cache whose
// fills were stamped with the table clock failed it: a fill could publish a
// decode read before the write into a slot the write had already emptied,
// with nothing left to refuse it. Keyed by the stored bytes, the stale
// decode names bytes the store no longer holds.
func TestRecordCacheNeverServesACompletedWritesPredecessor(t *testing.T) {
	c := NewCatalog(OpenMemory())
	if err := c.PutUser(UserRec{ID: "u1"}); err != nil {
		t.Fatal(err)
	}
	raceCompletedWrites(t, 20000,
		func(i int) error { return c.PutUser(UserRec{ID: "u1", Judged: i}) },
		func() (int, error) {
			u, err := c.GetUser("u1")
			return u.Judged, err
		})
}

// TestRecordCacheScanFillsNeverServeACompletedWritesPredecessor holds the
// scans that fill the cache (PostsOf, ScanResourcesAfter) to the same rule
// while writes land on their own table, beside keys the scan also fills.
func TestRecordCacheScanFillsNeverServeACompletedWritesPredecessor(t *testing.T) {
	c := NewCatalog(OpenMemory())
	for i := 0; i < 4; i++ {
		if _, err := c.AppendPost(PostRec{ResourceID: "r1", Tags: []string{"0"}}); err != nil {
			t.Fatal(err)
		}
		if err := c.PutResource(ResourceRec{ID: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("PostsOf", func(t *testing.T) {
		raceCompletedWrites(t, 2000,
			func(i int) error {
				return c.UpdatePost("r1", 2, PostRec{ResourceID: "r1", Tags: []string{strconv.Itoa(i)}})
			},
			func() (int, error) {
				posts, err := c.PostsOf("r1")
				if err != nil || len(posts) != 4 {
					return 0, fmt.Errorf("PostsOf = %d posts, %v", len(posts), err)
				}
				return strconv.Atoi(posts[1].Tags[0])
			})
	})
	t.Run("ScanResourcesAfter", func(t *testing.T) {
		raceCompletedWrites(t, 2000,
			func(i int) error { return c.PutResource(ResourceRec{ID: "r2", Topic: i}) },
			func() (int, error) {
				got := -1
				err := c.ScanResourcesAfter("", func(r ResourceRec) bool {
					if r.ID == "r2" {
						got = r.Topic
					}
					return true
				})
				return got, err
			})
	})
}

// TestRecordCacheWritesLeaveNothingBehind: a write deletes its key's entry
// and keeps nothing of its own, so writes cost the cache no memory and no
// superseded commit buffer stays pinned. (A cache that kept a last-write
// record for every key ever written grew with every post and task.)
func TestRecordCacheWritesLeaveNothingBehind(t *testing.T) {
	c := NewCatalog(OpenMemory())
	for i := 0; i < 10000; i++ {
		var err error
		switch i % 4 {
		case 0:
			_, err = c.AppendPost(PostRec{ResourceID: fmt.Sprintf("r%d", i%50), Tags: []string{"a"}})
		case 1:
			err = c.PutTask(TaskRec{ID: fmt.Sprintf("t%d", i), ProjectID: "p1", Status: TaskAssigned})
		case 2:
			err = c.PutUser(UserRec{ID: fmt.Sprintf("u%d", i%100), Judged: i})
		case 3:
			err = c.PutResource(ResourceRec{ID: fmt.Sprintf("r%d", i%50), Topic: i})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	requireCacheHolds(t, c, 0, "after 10000 writes and no reads")
	// A read fills; the next write of the key takes its entry away again.
	if _, err := c.GetUser("u2"); err != nil {
		t.Fatal(err)
	}
	requireCacheHolds(t, c, 1, "after one read")
	if err := c.PutUser(UserRec{ID: "u2"}); err != nil {
		t.Fatal(err)
	}
	requireCacheHolds(t, c, 0, "after the read key was written")
}

// requireCacheHolds counts what the cache's maps really hold and holds both
// that count and the size counter to want.
func requireCacheHolds(t *testing.T, c *Catalog, want int64, when string) {
	t.Helper()
	var held int64
	for _, tc := range c.cache.tables {
		tc.entries.Range(func(_, _ any) bool { held++; return true })
	}
	if size := c.cache.size.Load(); held != want || size != want {
		t.Fatalf("cache holds %d entries (size counter %d) %s, want %d", held, size, when, want)
	}
}
