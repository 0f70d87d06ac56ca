package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"itag/internal/core"
	"itag/internal/dataset"
	"itag/internal/quality"
	"itag/internal/store"
	"itag/internal/strategy"
	"itag/internal/vocab"
)

// The probes time one layer at a time on a single goroutine, with inputs
// drawn from the run's op stream. They are unit costs — what one call into
// the layer takes with nothing else going on — and so are not calibrated
// and not gated; they say which layer a moved end-to-end number came from.

const probeN = 2000

func meanOf(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

func runProbes(ops *opStream, m map[string]float64) error {
	posts := make([][]string, 0, probeN)
	for _, rd := range ops.rounds {
		for _, p := range rd.Posts {
			if len(posts) < probeN {
				posts = append(posts, ops.tags(p))
			}
		}
	}
	for len(posts) < probeN { // a view-only stream would leave this short
		posts = append(posts, []string{ops.vocab[len(posts)%vocabSize], ops.vocab[(len(posts)+7)%vocabSize]})
	}
	if err := probeStore(posts, m); err != nil {
		return err
	}
	if err := probeCore(posts, m); err != nil {
		return err
	}
	probeStrategy(m)
	return probeQuality(posts, m)
}

// probeStore: a WAL store on the data-dir filesystem with itagd's default
// durability flags.
func probeStore(posts [][]string, m map[string]float64) error {
	dir, _, err := owned.mkDataDir()
	if err != nil {
		return err
	}
	defer owned.release(nil, []string{dir})
	path := filepath.Join(dir, "probe.wal")
	opts := store.Options{SyncEvery: 1, AutoCompact: 64 << 20}
	db, err := store.Open(path, opts)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	key := func(i int) string { return fmt.Sprintf("probe-res-%05d", i) }
	var putErr error
	put := meanOf(probeN, func(i int) {
		if err := db.Put("posts", key(i), store.PostRec{ResourceID: key(i), Tags: posts[i]}); err != nil {
			putErr = err
		}
	})
	if putErr != nil {
		db.Close()
		return fmt.Errorf("store probe put: %w", putErr)
	}
	var rec store.PostRec
	var getErr error
	get := meanOf(probeN*10, func(i int) {
		if err := db.Get("posts", key(i%probeN), &rec); err != nil {
			getErr = err
		}
	})
	if getErr != nil {
		db.Close()
		return fmt.Errorf("store probe get: %w", getErr)
	}
	scan := meanOf(probeN, func(i int) {
		db.ScanRange("posts", key(i%(probeN-exportLimit)), "", exportLimit, func(string, []byte) bool { return true })
	})
	if err := db.Close(); err != nil {
		return fmt.Errorf("store probe close: %w", err)
	}
	re, err := store.Open(path, opts)
	if err != nil {
		return fmt.Errorf("store probe reopen: %w", err)
	}
	st := re.Stats()
	if err := re.Close(); err != nil {
		return fmt.Errorf("store probe close: %w", err)
	}
	if st.RecoveredRecords != probeN {
		return fmt.Errorf("store probe: recovered %d records, wrote %d", st.RecoveredRecords, probeN)
	}
	m["store.put_us"] = float64(put) / 1e3
	m["store.get_ns"] = float64(get)
	m["store.scan50_us"] = float64(scan) / 1e3
	m["store.recovery_ms"] = st.RecoveryMillis
	return nil
}

// probeCore: the manager layer over an in-memory catalog, no HTTP.
func probeCore(posts [][]string, m map[string]float64) error {
	one, err := newCoreProbe(1000) // tag_durable's project shape
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	defer one.svc.Close()
	postD, err := one.timePosts(posts)
	if err != nil {
		return fmt.Errorf("core probe post: %w", err)
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	var viewErr error
	viewD := meanOf(probeN/4, func(int) {
		if _, err := one.svc.Project(ctx, one.project); err != nil {
			viewErr = err
		}
		if _, _, err := one.svc.ExportPage(ctx, one.project, "", exportLimit); err != nil {
			viewErr = err
		}
		for d := 0; d < viewDetails; d++ {
			if _, err := one.svc.ResourceDetail(ctx, one.project, one.resources[r.Intn(len(one.resources))]); err != nil {
				viewErr = err
			}
		}
	})
	if viewErr != nil {
		return fmt.Errorf("core probe view: %w", viewErr)
	}
	two, err := newCoreProbe(2000) // batch_engine's project shape
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	defer two.svc.Close()
	batchD, err := two.timePosts(posts)
	if err != nil {
		return fmt.Errorf("core probe batch item: %w", err)
	}
	m["core.post_us"] = float64(postD) / 1e3
	m["core.view_us"] = float64(viewD) / 1e3
	m["core.batch_item_us"] = float64(batchD) / 1e3
	return nil
}

type coreProbe struct {
	svc       *core.Service
	project   string
	tagger    string
	resources []string
}

func newCoreProbe(resources int) (*coreProbe, error) {
	ctx := context.Background()
	p := &coreProbe{svc: core.NewService(store.NewCatalog(store.OpenMemory()), 42)}
	prov, err := p.svc.RegisterProvider(ctx, "probe-provider")
	if err != nil {
		return nil, err
	}
	if p.tagger, err = p.svc.RegisterTagger(ctx, "probe-tagger"); err != nil {
		return nil, err
	}
	spec := core.ProjectSpec{ProviderID: prov, Name: "probe", Budget: 1 << 30, PayPerTask: 0.01, Strategy: "fp-mu"}
	for i := 0; i < resources; i++ {
		id := fmt.Sprintf("probe-res-%05d", i)
		p.resources = append(p.resources, id)
		spec.Resources = append(spec.Resources, dataset.Resource{ID: id, Kind: "url", Name: id, Popularity: 1})
	}
	p.project, err = p.svc.CreateProject(ctx, spec)
	return p, err
}

// timePosts is the mean of RequestTask + SubmitTask over probeN posts.
func (p *coreProbe) timePosts(posts [][]string) (time.Duration, error) {
	ctx := context.Background()
	var opErr error
	d := meanOf(probeN, func(i int) {
		task, err := p.svc.RequestTask(ctx, p.project, p.tagger)
		if err == nil {
			err = p.svc.SubmitTask(ctx, p.project, task.ID, posts[i])
		}
		if err != nil {
			opErr = err
		}
	})
	return d, opErr
}

// probeView is a synthetic project state for the strategy probe: 2 000
// resources with the post counts and qualities a preloaded project has.
type probeView struct {
	posts []int
	q     []float64
}

func (v probeView) Len() int               { return len(v.posts) }
func (v probeView) Posts(i int) int        { return v.posts[i] }
func (v probeView) Quality(i int) float64  { return v.q[i] }
func (v probeView) Popularity(int) float64 { return 1 }
func (v probeView) Eligible(int) bool      { return true }

func probeStrategy(m map[string]float64) {
	r := rand.New(rand.NewSource(2))
	v := probeView{posts: make([]int, 2000), q: make([]float64, 2000)}
	for i := range v.posts {
		v.posts[i] = 5 + r.Intn(4)
		v.q[i] = r.Float64()
	}
	strat, err := strategy.Parse("fp-mu")
	if err != nil {
		panic(err) // the project strategy every workload already runs with
	}
	d := meanOf(probeN, func(int) { strat.Choose(v, 1, r) })
	m["strategy.choose_us.fp-mu"] = float64(d) / 1e3
}

func probeQuality(posts [][]string, m map[string]float64) error {
	in := vocab.NewInterner()
	tr := quality.NewTrackerShared(quality.Config{}, in)
	for _, p := range posts[:200] { // steady state: history full, tags interned
		if err := tr.AddPost(p); err != nil {
			return fmt.Errorf("quality probe: %w", err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var addErr error
	d := meanOf(probeN, func(i int) {
		if err := tr.AddPost(posts[i]); err != nil {
			addErr = err
		}
	})
	runtime.ReadMemStats(&ms1)
	if addErr != nil {
		return fmt.Errorf("quality probe: %w", addErr)
	}
	m["quality.add_post_ns"] = float64(d)
	m["quality.add_post_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / probeN
	d = meanOf(probeN, func(i int) {
		for _, tag := range posts[i] {
			internSink += in.ID(tag)
		}
	}) / tagsPerPost
	m["vocab.intern_ns"] = float64(d)
	return nil
}

// internSink keeps the interner probe's result alive.
var internSink uint32
