package store

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/errs"
	"itag/internal/wire"
)

// This file defines the typed catalog over the generic DB: the schemas the
// iTag managers persist (resources, posts, projects, tasks, users) and the
// key layouts that make their access paths indexed scans.
//
// Key layout:
//
//	resources/<resourceID>                 → ResourceRec
//	posts/<resourceID>/<seq 12-digit>      → PostRec   (post sequence order)
//	projects/<projectID>                   → ProjectRec
//	tasks/<projectID>/<taskID>             → TaskRec
//	users/<userID>                         → UserRec

// Table names.
const (
	TableResources = "resources"
	TablePosts     = "posts"
	TableProjects  = "projects"
	TableTasks     = "tasks"
	TableUsers     = "users"
)

// ResourceRec is the persisted form of a resource (paper §III-A: uploaded
// by providers, managed by the Resource Manager).
type ResourceRec struct {
	ID         string  `json:"id"`
	ProjectID  string  `json:"project_id"`
	Kind       string  `json:"kind"`
	Name       string  `json:"name"`
	Topic      int     `json:"topic"`
	Popularity float64 `json:"popularity"`
	// Promoted / Stopped mirror the provider's per-resource controls.
	Promoted bool `json:"promoted,omitempty"`
	Stopped  bool `json:"stopped,omitempty"`
}

// PostRec is one persisted tagging operation (Tag Manager).
type PostRec struct {
	ResourceID string    `json:"resource_id"`
	TaggerID   string    `json:"tagger_id,omitempty"`
	TaskID     string    `json:"task_id,omitempty"`
	Tags       []string  `json:"tags"`
	Time       time.Time `json:"time"`
	// Approved is nil while pending provider review.
	Approved *bool `json:"approved,omitempty"`
}

// ProjectStatus is a project's lifecycle state.
type ProjectStatus string

// Project lifecycle states (paper §III-A: created, runs, can be stopped).
// Stores written before served projects had one kind may also hold "done",
// which ResumeRuns, like "stopped", does not resume.
const (
	ProjectActive  ProjectStatus = "active"
	ProjectStopped ProjectStatus = "stopped"
)

// ProjectRec is the persisted form of a provider project (Quality Manager).
type ProjectRec struct {
	ID          string        `json:"id"`
	ProviderID  string        `json:"provider_id"`
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	Kind        string        `json:"kind,omitempty"`
	Budget      int           `json:"budget"`
	Spent       int           `json:"spent"`
	PayPerTask  float64       `json:"pay_per_task"`
	Strategy    string        `json:"strategy"`
	Platform    string        `json:"platform"`
	Status      ProjectStatus `json:"status"`
	CreatedAt   time.Time     `json:"created_at"`
}

// TaskStatus is a crowdsourcing task's state.
type TaskStatus string

// Task states.
const (
	TaskPending   TaskStatus = "pending"
	TaskAssigned  TaskStatus = "assigned"
	TaskCompleted TaskStatus = "completed"
	TaskAbandoned TaskStatus = "abandoned"
)

// TaskRec is one published tagging task.
type TaskRec struct {
	ID         string     `json:"id"`
	ProjectID  string     `json:"project_id"`
	ResourceID string     `json:"resource_id"`
	WorkerID   string     `json:"worker_id,omitempty"`
	Status     TaskStatus `json:"status"`
	Reward     float64    `json:"reward"`
	CreatedAt  time.Time  `json:"created_at"`
	DoneAt     time.Time  `json:"done_at,omitempty"`
}

// Role distinguishes providers from taggers.
type Role string

// User roles.
const (
	RoleProvider Role = "provider"
	RoleTagger   Role = "tagger"
)

// UserRec is the persisted form of a user (User Manager): approval counts
// feed the two-sided approval rates of paper §III-A. They are the only
// record of them: core.Service.JudgePost counts a tagger's in the commit
// that records the verdict, and RateProvider a provider's, so they survive a
// restart and replicate like any other write.
type UserRec struct {
	ID   string `json:"id"`
	Role Role   `json:"role"`
	Name string `json:"name,omitempty"`
	// Judged / JudgedOK: for taggers, posts reviewed / approved by
	// providers; for providers, ratings received / positive from taggers.
	Judged   int `json:"judged"`
	JudgedOK int `json:"judged_ok"`
	// Earned is a tagger's total incentive, credited per approved post; a
	// provider's stays 0.
	Earned float64 `json:"earned"`
}

// ApprovalRate returns JudgedOK/Judged, or 1 when unjudged (new users are
// given the benefit of the doubt, as MTurk does for qualification).
func (u UserRec) ApprovalRate() float64 {
	if u.Judged == 0 {
		return 1
	}
	return float64(u.JudgedOK) / float64(u.Judged)
}

// Catalog wraps a Store with the typed schemas above. The key layouts above
// keep a resource's posts and a project's tasks under one first path
// segment — the unit the cluster ring routes by — so every Catalog access
// path stays on the node that owns the ID in the request.
//
// There is one write path: every typed write stages a Mutation in a
// WriteSet, and WriteSet.Commit is one Store.Apply — one WAL record, one
// fsync wait, one in-memory apply — followed by the per-key cache
// invalidations. The single-record methods (PutTask, AppendPost, PutUser,
// UpdatePost, …) are write sets of one. A replica's writes arrive as shipped
// WAL frames instead (ApplyReplicated, InstallSnapshot) and pass through the
// same invalidate point, so a Catalog over a replica store keeps the same
// caches and clocks as one over a leader's.
type Catalog struct {
	db    Store
	cache *recordCache

	mu      sync.Mutex
	nextSeq map[string]uint64 // resourceID → next post sequence number

	// posts is told of every posts-table write at the invalidate point;
	// nil until ObservePosts installs one.
	posts PostsObserver
}

// PostsObserver is what a layer that derives state from post sequences
// (core.Service's folded export rows) hears from the Catalog's invalidate
// point. Both calls come strictly after the write they report is visible to
// readers, on the goroutine that made it.
type PostsObserver interface {
	// PostWritten reports one post record put under (resourceID, seq): a
	// new post, a late one below sequences already visible, or a rewrite.
	PostWritten(resourceID string, seq uint64)
	// PostsReplaced reports that the whole posts table was replaced (a
	// snapshot install): nothing derived from the old one may be kept.
	PostsReplaced()
}

// NewCatalog wraps a Store. Post sequence counters are recovered lazily, and
// decodes are memoized by the stored bytes they came from (see recordCache).
func NewCatalog(db Store) *Catalog {
	return &Catalog{db: db, cache: newRecordCache(), nextSeq: make(map[string]uint64)}
}

// ObservePosts installs the observer of posts-table writes. A Catalog has
// one (it serves one core.Service); install it before the first write.
func (c *Catalog) ObservePosts(o PostsObserver) { c.posts = o }

// catGet loads (table, key): the store hands over the stored bytes, and the
// record cache decodes them, or answers with its decode of the same bytes.
func catGet[T any](c *Catalog, table, key string) (T, error) {
	var raw rawValue
	if err := c.db.Get(table, key, &raw); err != nil {
		var zero T
		return zero, err
	}
	return decodeCached[T](c, table, key, raw.RawMessage)
}

// decodeCached decodes raw, the value just read from the store under (table,
// key), through the record cache.
func decodeCached[T any](c *Catalog, table, key string, raw []byte) (T, error) {
	if v, ok := c.cache.get(table, key, raw); ok {
		return v.(T), nil
	}
	rec, err := decodeRec[T](raw)
	if err != nil {
		return rec, err
	}
	c.cache.add(table, key, raw, rec)
	return rec, nil
}

// invalidate is the one point every completed write passes, local or
// replicated, strictly after the store made it visible: the key's decoded
// record is dropped and its table's write clock advances (which retires
// every response-cache entry whose core.Stamp read that table), and a
// posts-table write is reported to the posts observer.
func (c *Catalog) invalidate(table, key string) {
	c.cache.invalidate(table, key)
	if table == TablePosts && c.posts != nil {
		if resourceID, seq, ok := splitPostKey(key); ok {
			c.posts.PostWritten(resourceID, seq)
		}
	}
}

// replica returns the backend as the DB replication needs: shipped frames
// are WAL bytes, and only a DB has a WAL to put them in.
func (c *Catalog) replica() (*DB, error) {
	db, ok := c.db.(*DB)
	if !ok {
		return nil, errs.New(errs.ComponentStore, errs.CategoryValidation, "replication requires a catalog over a DB, have %T", c.db)
	}
	return db, nil
}

// ApplyReplicated ingests a batch of WAL frames shipped from a leader
// (DB.ApplyReplicated: validated whole, appended, applied) and then passes
// every mutation of the batch through invalidate, in log order, exactly as
// the WriteSet.Commit that produced it did on the leader. When it returns,
// no read through this Catalog — record cache, write clocks, whatever a
// posts observer derived — can still answer from before the batch. It
// returns the new applied sequence; on error nothing was applied.
func (c *Catalog) ApplyReplicated(data []byte) (uint64, error) {
	db, err := c.replica()
	if err != nil {
		return 0, err
	}
	recs, applied, err := db.applyReplicated(data)
	for _, rec := range recs { // none on error: a batch applies whole or not at all
		if rec.Op == OpBatch {
			for _, sub := range rec.Batch {
				c.invalidate(sub.Table, sub.Key)
			}
		} else {
			c.invalidate(rec.Table, rec.Key)
		}
	}
	return applied, err
}

// InstallSnapshot replaces the store's whole state with a shipped snapshot
// image (DB.InstallSnapshot) and then invalidates wholesale: every table's
// write clock advances, no decoded record cached or in flight from before
// the install is served after it, reserved post sequences are forgotten
// (they are recovered from the new state), and the posts observer is told
// the table was replaced. On error the old state stands, caches included.
func (c *Catalog) InstallSnapshot(data []byte) error {
	db, err := c.replica()
	if err != nil {
		return err
	}
	if err := db.InstallSnapshot(data); err != nil {
		return err
	}
	c.mu.Lock()
	clear(c.nextSeq)
	c.mu.Unlock()
	c.cache.invalidateAll()
	if c.posts != nil {
		c.posts.PostsReplaced()
	}
	return nil
}

// WriteSet is a group of typed writes that become durable, and visible,
// together: the Put/Append methods validate, encode and stage, Commit
// writes. What is staged is invisible to every reader, the set's owner
// included, until Commit returns. A WriteSet is not safe for concurrent use.
//
// Each staged record is encoded at once, by its own encoder, into one
// recycled scratch buffer; a record json.Marshal would refuse (a NaN float,
// a year past 9999) is refused there, and the set keeps the first such
// error: Commit returns it and writes nothing.
type WriteSet struct {
	c       *Catalog
	muts    []Mutation
	scratch *[]byte // the staged values back to back, in staging order
	err     error
}

// Begin opens an empty write set with room for n writes (a hint; it grows).
func (c *Catalog) Begin(n int) *WriteSet {
	return &WriteSet{c: c, muts: make([]Mutation, 0, n)}
}

// enc returns an encoder appending to the set's scratch buffer.
func (w *WriteSet) enc() wire.Enc {
	if w.scratch == nil {
		w.scratch = encodeScratch.Get().(*[]byte)
		*w.scratch = (*w.scratch)[:0]
	}
	return wire.Enc{B: *w.scratch, OK: true}
}

// put stages the value just encoded at the end of the scratch buffer, b,
// under (table, key).
func (w *WriteSet) put(table, key string, b []byte) {
	start := len(*w.scratch)
	*w.scratch = b
	// Value is a view of the scratch buffer only for its length: Commit
	// points it at the commit's own copy.
	w.muts = append(w.muts, Mutation{Op: OpPut, Table: table, Key: key, Value: b[start:]})
}

// refused stages a record its encoder refused through appendValue instead,
// so the error is json.Marshal's own, and keeps that error as the set's.
// Only this path converts a record to an interface.
func (w *WriteSet) refused(table, key string, rec any) error {
	b, err := appendValue(*w.scratch, rec)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return err
	}
	w.put(table, key, b)
	return nil
}

// Commit applies everything staged since the last Commit as one atomic
// Store.Apply and then advances the write clocks of the keys it wrote — in
// that order, the "bump strictly after the store write" protocol every
// core.Stamp holder relies on. The staged values are copied once, into one
// exact-size allocation the store keeps. On error — a staging error
// included — nothing was written. Either way the set is empty afterwards.
func (w *WriteSet) Commit() error {
	muts, scratch, err := w.muts, w.scratch, w.err
	w.muts, w.scratch, w.err = nil, nil, nil
	if scratch != nil {
		defer encodeScratch.Put(scratch)
	}
	if err != nil || len(muts) == 0 {
		return err
	}
	vals, start := slices.Clone(*scratch), 0
	for i := range muts {
		end := start + len(muts[i].Value)
		muts[i].Value = vals[start:end:end]
		start = end
	}
	if err := w.c.db.Apply(muts); err != nil {
		return err
	}
	for _, m := range muts {
		w.c.invalidate(m.Table, m.Key)
	}
	return nil
}

// Clock returns a table's write clock: the number of completed writes
// (Put/Append/Update, replicated ones included) the catalog has applied to
// it. Every write bumps the clock after its store mutation completes, and
// the clock never goes backwards, so a reader that loads it before reading
// the table and finds it unchanged afterwards has proof no write to the
// table completed in between. The server's encoded-response cache stamps an
// entry with the clocks of the tables its answer read (core.Stamp).
func (c *Catalog) Clock(table string) *atomic.Uint64 { return c.cache.clock(table) }

// DB exposes the underlying store backend.
func (c *Catalog) DB() Store { return c.db }

// --- resources ---------------------------------------------------------------

// PutResource stores a resource.
func (c *Catalog) PutResource(r ResourceRec) error {
	w := WriteSet{c: c}
	if err := w.PutResource(r); err != nil {
		return err
	}
	return w.Commit()
}

// PutResource stages a resource.
func (w *WriteSet) PutResource(r ResourceRec) error {
	if r.ID == "" {
		return errs.New(errs.ComponentStore, errs.CategoryValidation, "resource ID required")
	}
	e := w.enc()
	if r.encode(&e); !e.OK {
		return w.refused(TableResources, r.ID, r)
	}
	w.put(TableResources, r.ID, e.B)
	return nil
}

// GetResource loads a resource.
func (c *Catalog) GetResource(id string) (ResourceRec, error) {
	return catGet[ResourceRec](c, TableResources, id)
}

// ListResources returns all resources in ID order, optionally filtered by
// project (empty projectID = all).
func (c *Catalog) ListResources(projectID string) ([]ResourceRec, error) {
	var out []ResourceRec
	err := c.ScanResourcesAfter("", func(r ResourceRec) bool {
		if projectID == "" || r.ProjectID == projectID {
			out = append(out, r)
		}
		return true
	})
	return out, err
}

// ScanResourcesAfter visits resources in ID order, starting strictly after
// the given ID ("" = from the beginning), decoding through the record
// cache; fn returning false stops the scan. It is the range primitive
// behind cursor-paginated exports.
func (c *Catalog) ScanResourcesAfter(after string, fn func(ResourceRec) bool) error {
	var scanErr error
	c.db.ScanRange(TableResources, afterStart(after), "", 0, func(key string, raw []byte) bool {
		r, err := decodeCached[ResourceRec](c, TableResources, key, raw)
		if err != nil {
			scanErr = errs.Wrap(err, errs.ComponentStore, errs.CategoryCorruption, "resource %s", key)
			return false
		}
		return fn(r)
	})
	return scanErr
}

// afterStart converts an exclusive "resume after this key" position into an
// inclusive ScanRange start: the immediate successor of the key ("" stays
// the open start; keys are never empty).
func afterStart(after string) string {
	if after == "" {
		return ""
	}
	return after + "\x00"
}

// --- posts -------------------------------------------------------------------

func postKey(resourceID string, seq uint64) string {
	var b [64]byte
	return string(wire.AppendPadded(append(append(b[:0], resourceID...), '/'), seq, 12))
}

// splitPostKey is postKey's inverse; ok=false for a key of another shape.
func splitPostKey(key string) (resourceID string, seq uint64, ok bool) {
	i := strings.LastIndexByte(key, '/')
	if i < 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(key[i+1:], 10, 64)
	return key[:i], seq, err == nil
}

// AppendPost durably appends a post to a resource's post sequence and
// returns its sequence number (1-based).
func (c *Catalog) AppendPost(p PostRec) (uint64, error) {
	w := WriteSet{c: c}
	seq, err := w.AppendPost(p)
	if err != nil {
		return 0, err
	}
	return seq, w.Commit()
}

// AppendPost reserves the next sequence number (1-based) of the resource's
// post sequence and stages the post under it. The number is taken now, not
// at Commit: whoever stages first sorts first, whatever order the commits
// land in — which is what lets a caller fix the post order under its own
// lock and commit outside it. A set that never commits leaves a gap in the
// sequence, nothing else.
func (w *WriteSet) AppendPost(p PostRec) (uint64, error) {
	if p.ResourceID == "" {
		return 0, errs.New(errs.ComponentStore, errs.CategoryValidation, "post resource ID required")
	}
	if len(p.Tags) == 0 {
		return 0, errs.New(errs.ComponentStore, errs.CategoryValidation, "post must have tags")
	}
	c := w.c
	c.mu.Lock()
	seq, ok := c.nextSeq[p.ResourceID]
	if !ok {
		seq = c.recoverSeqLocked(p.ResourceID)
	}
	seq++
	c.nextSeq[p.ResourceID] = seq
	c.mu.Unlock()
	key := postKey(p.ResourceID, seq)
	e := w.enc()
	if p.encode(&e); !e.OK {
		return seq, w.refused(TablePosts, key, p)
	}
	w.put(TablePosts, key, e.B)
	return seq, nil
}

// recoverSeqLocked finds the highest existing sequence for a resource.
func (c *Catalog) recoverSeqLocked(resourceID string) uint64 {
	var max uint64
	prefix := resourceID + "/"
	c.db.ScanPrefix(TablePosts, prefix, func(key string, _ []byte) bool {
		if s, err := strconv.ParseUint(strings.TrimPrefix(key, prefix), 10, 64); err == nil && s > max {
			max = s
		}
		return true
	})
	return max
}

// PostsOf returns a resource's posts in sequence order. Post records are
// immutable apart from judging, so the long tail of already-decoded posts
// comes straight from the record cache.
func (c *Catalog) PostsOf(resourceID string) ([]PostRec, error) {
	var out []PostRec
	var scanErr error
	c.db.ScanPrefix(TablePosts, resourceID+"/", func(key string, raw []byte) bool {
		p, err := decodeCached[PostRec](c, TablePosts, key, raw)
		if err != nil {
			scanErr = errs.Wrap(err, errs.ComponentStore, errs.CategoryCorruption, "post %s", key)
			return false
		}
		out = append(out, p)
		return true
	})
	return out, scanErr
}

// ScanPostsAfter visits a resource's posts in sequence order, starting
// strictly after sequence after (0 = from the first); fn returning false
// stops the scan. It is the range primitive behind folded export rows: a
// reader that has already folded posts 1..after pays one index seek and
// visits only what arrived since. Posts are decoded for this call alone —
// a fold reads each post once, so caching the decode would only hold memory.
func (c *Catalog) ScanPostsAfter(resourceID string, after uint64, fn func(seq uint64, p PostRec) bool) error {
	prefix := resourceID + "/"
	start := prefix
	if after > 0 {
		start = afterStart(postKey(resourceID, after))
	}
	var scanErr error
	c.db.ScanRange(TablePosts, start, prefixEnd(prefix), 0, func(key string, raw []byte) bool {
		seq, err := strconv.ParseUint(key[len(prefix):], 10, 64)
		var p PostRec
		if err == nil {
			p, err = decodeRec[PostRec](raw)
		}
		if err != nil {
			scanErr = errs.Wrap(err, errs.ComponentStore, errs.CategoryCorruption, "post %s", key)
			return false
		}
		return fn(seq, p)
	})
	return scanErr
}

// UpdatePost rewrites the post at the given sequence (e.g. to set Approved).
func (c *Catalog) UpdatePost(resourceID string, seq uint64, p PostRec) error {
	w := WriteSet{c: c}
	if err := w.UpdatePost(resourceID, seq, p); err != nil {
		return err
	}
	return w.Commit()
}

// UpdatePost stages a rewrite of the post at the given sequence, which must
// already be stored.
func (w *WriteSet) UpdatePost(resourceID string, seq uint64, p PostRec) error {
	key := postKey(resourceID, seq)
	if !w.c.db.Has(TablePosts, key) {
		return ErrNotFound
	}
	e := w.enc()
	if p.encode(&e); !e.OK {
		return w.refused(TablePosts, key, p)
	}
	w.put(TablePosts, key, e.B)
	return nil
}

// GetPost loads one post by sequence number.
func (c *Catalog) GetPost(resourceID string, seq uint64) (PostRec, error) {
	return catGet[PostRec](c, TablePosts, postKey(resourceID, seq))
}

// --- projects ------------------------------------------------------------------

// PutProject stores a project.
func (c *Catalog) PutProject(p ProjectRec) error {
	w := WriteSet{c: c}
	if err := w.PutProject(p); err != nil {
		return err
	}
	return w.Commit()
}

// PutProject stages a project.
func (w *WriteSet) PutProject(p ProjectRec) error {
	if p.ID == "" {
		return errs.New(errs.ComponentStore, errs.CategoryValidation, "project ID required")
	}
	e := w.enc()
	if p.encode(&e); !e.OK {
		return w.refused(TableProjects, p.ID, p)
	}
	w.put(TableProjects, p.ID, e.B)
	return nil
}

// GetProject loads a project.
func (c *Catalog) GetProject(id string) (ProjectRec, error) {
	return catGet[ProjectRec](c, TableProjects, id)
}

// ListProjects returns all projects in ID order, optionally filtered by
// provider.
func (c *Catalog) ListProjects(providerID string) ([]ProjectRec, error) {
	var out []ProjectRec
	err := c.ScanProjectsAfter("", func(p ProjectRec) bool {
		if providerID == "" || p.ProviderID == providerID {
			out = append(out, p)
		}
		return true
	})
	return out, err
}

// ScanProjectsAfter visits projects in ID order, starting strictly after
// the given ID ("" = from the beginning), decoding through the record
// cache; fn returning false stops the scan. It is the range primitive
// behind cursor-paginated project listings.
func (c *Catalog) ScanProjectsAfter(after string, fn func(ProjectRec) bool) error {
	var scanErr error
	c.db.ScanRange(TableProjects, afterStart(after), "", 0, func(key string, raw []byte) bool {
		p, err := decodeCached[ProjectRec](c, TableProjects, key, raw)
		if err != nil {
			scanErr = errs.Wrap(err, errs.ComponentStore, errs.CategoryCorruption, "project %s", key)
			return false
		}
		return fn(p)
	})
	return scanErr
}

// --- tasks ---------------------------------------------------------------------

func taskKey(projectID, taskID string) string { return projectID + "/" + taskID }

// PutTask stores a task under its project.
func (c *Catalog) PutTask(t TaskRec) error {
	w := WriteSet{c: c}
	if err := w.PutTask(t); err != nil {
		return err
	}
	return w.Commit()
}

// PutTask stages a task under its project.
func (w *WriteSet) PutTask(t TaskRec) error {
	if t.ID == "" || t.ProjectID == "" {
		return errs.New(errs.ComponentStore, errs.CategoryValidation, "task needs ID and project ID")
	}
	key := taskKey(t.ProjectID, t.ID)
	e := w.enc()
	if t.encode(&e); !e.OK {
		return w.refused(TableTasks, key, t)
	}
	w.put(TableTasks, key, e.B)
	return nil
}

// GetTask loads a task.
func (c *Catalog) GetTask(projectID, taskID string) (TaskRec, error) {
	return catGet[TaskRec](c, TableTasks, taskKey(projectID, taskID))
}

// TasksByProject returns a project's tasks, optionally filtered by status
// ("" = all). The project prefix is one contiguous index range, and decoded
// task records come from the cache.
func (c *Catalog) TasksByProject(projectID string, status TaskStatus) ([]TaskRec, error) {
	var out []TaskRec
	var scanErr error
	c.db.ScanPrefix(TableTasks, projectID+"/", func(key string, raw []byte) bool {
		t, err := decodeCached[TaskRec](c, TableTasks, key, raw)
		if err != nil {
			scanErr = errs.Wrap(err, errs.ComponentStore, errs.CategoryCorruption, "task %s", key)
			return false
		}
		if status == "" || t.Status == status {
			out = append(out, t)
		}
		return true
	})
	return out, scanErr
}

// --- users ---------------------------------------------------------------------

// PutUser stores a user.
func (c *Catalog) PutUser(u UserRec) error {
	w := WriteSet{c: c}
	if err := w.PutUser(u); err != nil {
		return err
	}
	return w.Commit()
}

// PutUser stages a user.
func (w *WriteSet) PutUser(u UserRec) error {
	if u.ID == "" {
		return errs.New(errs.ComponentStore, errs.CategoryValidation, "user ID required")
	}
	e := w.enc()
	if u.encode(&e); !e.OK {
		return w.refused(TableUsers, u.ID, u)
	}
	w.put(TableUsers, u.ID, e.B)
	return nil
}

// GetUser loads a user.
func (c *Catalog) GetUser(id string) (UserRec, error) {
	return catGet[UserRec](c, TableUsers, id)
}

// ListUsers returns users in ID order, optionally filtered by role.
func (c *Catalog) ListUsers(role Role) ([]UserRec, error) {
	var out []UserRec
	var scanErr error
	c.db.Scan(TableUsers, func(key string, raw []byte) bool {
		u, err := decodeCached[UserRec](c, TableUsers, key, raw)
		if err != nil {
			scanErr = errs.Wrap(err, errs.ComponentStore, errs.CategoryCorruption, "user %s", key)
			return false
		}
		if role == "" || u.Role == role {
			out = append(out, u)
		}
		return true
	})
	return out, scanErr
}
