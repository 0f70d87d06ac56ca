package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"itag/client"
)

// sdk is the slice of the Go SDK a round uses. *client.Client satisfies it
// for a single node; clusterSDK adapts *client.ClusterClient.
type sdk interface {
	RequestTask(ctx context.Context, projectID, taggerID string) (client.Task, error)
	SubmitTask(ctx context.Context, projectID, taskID string, tags []string) error
	GetProject(ctx context.Context, id string) (client.ProjectInfo, error)
	Export(ctx context.Context, id, cursor string, limit int) (client.ExportPage, error)
	GetResource(ctx context.Context, projectID, resourceID string) (client.ResourceStatus, error)
	BatchTasks(ctx context.Context, projectID string, items []client.BatchTaskItem) (client.BatchTasksResp, error)
}

// clusterSDK routes posts to the slot leader, dashboards to a follower
// (opt-in stale reads, the cluster's read-scaling feature) and resource
// details to the leader — the ClusterClient has no routed GetResource.
type clusterSDK struct {
	writes *client.ClusterClient
	reads  *client.ClusterClient
}

func (c clusterSDK) RequestTask(ctx context.Context, p, t string) (client.Task, error) {
	return c.writes.RequestTask(ctx, p, t)
}
func (c clusterSDK) SubmitTask(ctx context.Context, p, t string, tags []string) error {
	return c.writes.SubmitTask(ctx, p, t, tags)
}
func (c clusterSDK) GetProject(ctx context.Context, id string) (client.ProjectInfo, error) {
	return c.reads.GetProject(ctx, id)
}
func (c clusterSDK) Export(ctx context.Context, id, cur string, n int) (client.ExportPage, error) {
	return c.reads.Export(ctx, id, cur, n)
}
func (c clusterSDK) GetResource(ctx context.Context, p, r string) (client.ResourceStatus, error) {
	leader, err := c.writes.Leader(ctx, p)
	if err != nil {
		return client.ResourceStatus{}, err
	}
	return leader.GetResource(ctx, p, r)
}
func (c clusterSDK) BatchTasks(ctx context.Context, p string, items []client.BatchTaskItem) (client.BatchTasksResp, error) {
	leader, err := c.writes.Leader(ctx, p)
	if err != nil {
		return client.BatchTasksResp{}, err
	}
	return leader.BatchTasks(ctx, p, items)
}

// project is the harness's ledger for one tagging project: what it asked
// for, what the server acknowledged, and what every later view must show.
type project struct {
	id        string
	node      int // index of the node that leads it
	taggers   []string
	resources []string // in export (key) order
	index     map[string]int
	cursors   []string // cursors[p] opens export page p
	preload   []int32  // posts per resource when provisioning ended

	// started[r] is bumped before a submit is sent and acked[r] after its
	// 2xx arrives, so at any instant a correct server shows
	// preload+acked ≤ posts ≤ preload+started.
	started []atomic.Int32
	acked   []atomic.Int32
}

func (p *project) ackedTotal() int {
	n := 0
	for i := range p.acked {
		n += int(p.acked[i].Load())
	}
	return n
}

func (p *project) preloadTotal() int {
	n := 0
	for _, v := range p.preload {
		n += int(v)
	}
	return n
}

// node is one server of a stack: an itagd child, or an in-process listener
// in the traced pass (proc == nil).
type node struct {
	slot  string
	base  string // http://host:port
	debug string // http://host:port of the debug listener, "" if none
	proc  *child
}

// stack is a provisioned deployment of one workload.
type stack struct {
	w        workloadDef
	nodes    []node
	projects []*project
	dirs     []string
	dataFS   string
	// wrap decorates every client transport (the traced pass's hook).
	wrap func(http.RoundTripper) http.RoundTripper
	// stopInProc stops in-process listeners (traced pass only).
	stopInProc func()
}

// planStack fixes ports, paths and command lines for the workload's itagd
// children. Nothing is started yet.
func planStack(w workloadDef, itagd string) (*stack, error) {
	s := &stack{w: w}
	addrs, err := freePorts(2 * w.nodes)
	if err != nil {
		return nil, err
	}
	s.dataFS = "memory"
	var dir string
	if w.durable {
		if dir, s.dataFS, err = owned.mkDataDir(); err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		s.dirs = append(s.dirs, dir)
	}
	var ring []string
	for i := 0; i < w.nodes; i++ {
		ring = append(ring, fmt.Sprintf("s%d=http://%s", i, addrs[2*i]))
	}
	for i := 0; i < w.nodes; i++ {
		api, dbg := addrs[2*i], addrs[2*i+1]
		// Durability flags stay at their defaults (-sync-every 1
		// -group-commit 0): the commit → write → fsync path is the shipped one.
		args := []string{"-addr", api, "-debug-addr", dbg, "-quiet"}
		switch {
		case w.nodes > 1:
			args = append(args, "-db", filepath.Join(dir, fmt.Sprintf("node%d", i)),
				"-cluster-slot", fmt.Sprintf("s%d", i), "-cluster-ring", strings.Join(ring, ","))
			if w.quorum {
				args = append(args, "-cluster-quorum")
			}
		case w.durable:
			args = append(args, "-db", filepath.Join(dir, "itag.wal"))
		default:
			args = append(args, "-db", "")
		}
		c := owned.plan(fmt.Sprintf("itagd-%s-%d", w.name, i), itagd, args, api)
		s.nodes = append(s.nodes, node{
			slot: fmt.Sprintf("s%d", i), base: "http://" + api, debug: "http://" + dbg, proc: c,
		})
	}
	return s, nil
}

// start launches every planned child and waits until each is healthy.
func (s *stack) start(ctx context.Context) error {
	for _, n := range s.nodes {
		if err := n.proc.start(); err != nil {
			return err
		}
	}
	hc := &http.Client{Transport: newTransport(), Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for _, n := range s.nodes {
		if err := waitHealthy(ctx, hc, n.base+"/api/v1/healthz", n.proc); err != nil {
			return err
		}
	}
	return nil
}

// close kills the stack's children and removes its data directories.
func (s *stack) close() {
	if s.stopInProc != nil {
		s.stopInProc()
	}
	var children []*child
	for _, n := range s.nodes {
		if n.proc != nil {
			children = append(children, n.proc)
		}
	}
	owned.release(children, s.dirs)
}

func (s *stack) transport() http.RoundTripper {
	var rt http.RoundTripper = newTransport()
	if s.wrap != nil {
		rt = s.wrap(rt)
	}
	return rt
}

// sdkFor builds one closed-loop client's SDK handle over its own transport.
// SDK retries are off: a request the server refused is a failed operation,
// not something to paper over.
func (s *stack) sdkFor(rt http.RoundTripper) sdk {
	hc := &http.Client{Transport: rt, Timeout: 60 * time.Second}
	if s.w.nodes == 1 {
		return client.New(s.nodes[0].base, hc).WithRetry(1, time.Millisecond)
	}
	seeds := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		seeds[i] = n.base
	}
	cc := client.NewCluster(seeds, hc).WithRetry(1, time.Millisecond)
	return clusterSDK{writes: cc, reads: cc.WithFollowerReads()}
}

// provision registers users, creates the projects, preloads posts and walks
// every project's export once to learn its page cursors and the post count
// each resource starts from.
func (s *stack) provision(ctx context.Context, seed int64) error {
	hc := &http.Client{Transport: newTransport(), Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	r := rand.New(rand.NewSource(seed ^ 0x70726f76)) // preload tags: a stream of their own
	vocab := vocabulary()
	tagZ := newZipf(vocabSize, zipfS)
	for pi := 0; pi < s.w.projects; pi++ {
		ni := pi % len(s.nodes)
		c := client.New(s.nodes[ni].base, hc).WithRetry(1, time.Millisecond)
		prov, err := c.RegisterProvider(ctx, fmt.Sprintf("provider-%d", pi))
		if err != nil {
			return fmt.Errorf("register provider: %w", err)
		}
		names := make([]string, numTaggers)
		for i := range names {
			names[i] = fmt.Sprintf("tagger-%d-%03d", pi, i)
		}
		reg, err := c.RegisterTaggers(ctx, names)
		if err != nil || reg.Failed > 0 {
			return fmt.Errorf("register taggers: %d failed, %v", reg.Failed, err)
		}
		p := &project{node: ni, index: make(map[string]int, s.w.resources)}
		for _, res := range reg.Results {
			p.taggers = append(p.taggers, res.ID)
		}
		uploaded := make([]client.UploadedResource, s.w.resources)
		for i := range uploaded {
			uploaded[i] = client.UploadedResource{
				ID: fmt.Sprintf("p%d-res-%05d", pi, i), Kind: "url",
				Name: fmt.Sprintf("site-%d-%d.example.com", pi, i),
			}
		}
		p.id, err = c.CreateProject(ctx, client.CreateProjectReq{
			ProviderID: prov, Name: fmt.Sprintf("bench-%s-%d", s.w.name, pi),
			Budget: 1 << 30, PayPerTask: 0.01, Strategy: "fp-mu", Resources: uploaded,
		})
		if err != nil {
			return fmt.Errorf("create project: %w", err)
		}
		for left := s.w.preloadPosts * s.w.resources; left > 0; {
			n := min(left, 200)
			items := make([]client.BatchTaskItem, n)
			for i := range items {
				items[i].TaggerID = p.taggers[r.Intn(len(p.taggers))]
				for _, t := range drawTags(r, tagZ) {
					items[i].Tags = append(items[i].Tags, vocab[t])
				}
			}
			resp, err := c.BatchTasks(ctx, p.id, items)
			if err != nil || resp.OK != n {
				return fmt.Errorf("preload: %d of %d ok, %v", resp.OK, n, err)
			}
			left -= n
		}
		cursor := ""
		for {
			p.cursors = append(p.cursors, cursor)
			page, err := c.Export(ctx, p.id, cursor, exportLimit)
			if err != nil {
				return fmt.Errorf("export walk: %w", err)
			}
			for _, row := range page.Items {
				p.index[row.ID] = len(p.resources)
				p.resources = append(p.resources, row.ID)
				p.preload = append(p.preload, int32(row.Posts))
			}
			if cursor = page.NextCursor; cursor == "" {
				break
			}
		}
		if len(p.resources) != s.w.resources {
			return fmt.Errorf("export walk saw %d resources, uploaded %d", len(p.resources), s.w.resources)
		}
		p.started = make([]atomic.Int32, len(p.resources))
		p.acked = make([]atomic.Int32, len(p.resources))
		s.projects = append(s.projects, p)
	}
	return nil
}
