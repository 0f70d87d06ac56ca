// Command itagd runs the iTag server: the versioned HTTP JSON API
// (/api/v1) over the manager layer and the embedded WAL-backed store (the
// Go equivalent of the demo's PHP/Python + MySQL stack).
//
// Usage:
//
//	itagd [-addr :8080] [-db itag.wal] [-seed 42]
//	      [-sync-every 1] [-segment-bytes 4194304]
//	      [-auto-compact 67108864] [-debug-addr ""]
//	      [-write-timeout 60s] [-route-timeout 30s] [-grace 30s]
//	      [-admission] [-slo-p99 500ms]
//
// With -admission the lease routes (tasks, tasks:batch) sit behind an AIMD
// admission gate: a lease that took longer than half of -slo-p99 cuts the
// concurrency limit to ×0.75 (once per congestion event), any other grows
// it by 1/limit up to 256, and a lease past the limit is shed with
// 429 resource_exhausted plus a Retry-After hint. A submit is never shed —
// its pay is already held — and neither are health, metrics and SSE. Every background simulation run steps on its own
// goroutine, which exits when the run ends.
//
// With -db "" the store is in-memory (state lost on exit); otherwise -db
// names the one WAL layout (snapshot plus segment files) behind the
// daemon. A standalone daemon is never partitioned in-process — spreading
// keys over several WALs is what cluster slots are for. A daemon restarted
// on its WAL resumes, before it listens, what the WAL holds — users, the ID
// counters, every active project as a manual run — the way a cluster slot
// does at boot and on promotion (core.Service.ResumeRuns). See
// internal/server for the endpoint reference and docs/ARCHITECTURE.md for
// the durability design.
//
// Durability knobs: -sync-every N fsyncs after every N committed records
// (group commit folds every commit that queued while the previous batch
// was written into one write + fsync, so the default of 1 is affordable
// under load; a follower fsyncs each shipment whatever N is); -segment-bytes bounds WAL segment size before
// rotation; -auto-compact snapshots the store in the background whenever
// sealed WAL bytes exceed the threshold, keeping recovery time flat.
//
// With -debug-addr a second listener (never exposed through the API
// address) serves the operational surface: net/http/pprof under
// /debug/pprof/, expvar under /debug/vars, and the Prometheus text
// exposition at GET /metrics, so a live daemon can be profiled and scraped
// while it serves traffic:
//
//	itagd -debug-addr localhost:6060 &
//	curl http://localhost:6060/metrics
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=15
//
// With -cluster-slot the daemon joins a multi-node cluster instead of
// serving alone: -cluster-ring names every slot and its address, the node
// leads the keys hashing to its slot, ships its WAL to -cluster-replicas
// followers over one stream each (idle heartbeat and backoff base:
// -cluster-pull-interval), and serves opt-in follower reads within
// -cluster-staleness records of lag. A node restarted after a promotion is
// given the post-promotion ring and finds the slot's WAL where the promotion
// left it. -db must name a data directory (cluster nodes are always
// durable). A slot's stack takes none of -admission, -slo-p99 and
// -resp-cache-bytes: setting one with -cluster-slot is a boot error. See
// docs/ARCHITECTURE.md ("Cluster") and the README quickstart:
//
//	itagd -addr :8081 -db data-a -cluster-slot alpha \
//	      -cluster-ring alpha=http://localhost:8081,beta=http://localhost:8082,gamma=http://localhost:8083
//
// With -cluster-quorum a mutating request is acked only after the slot's
// first follower has answered that the shipped WAL frames are fsynced on its
// disk; if that takes longer than -cluster-quorum-timeout the ack
// degrades to leader-only durability, stamped X-Itag-Quorum: degraded and
// counted in itag_cluster_quorum_degraded_total.
//
// With -chaos-spec the process arms a deterministic fault-injection
// schedule (network partitions, loss, latency, disk stalls, torn writes)
// against itself — for drills and staging only. See internal/chaos for the
// spec grammar. Without the flag the chaos layer is entirely absent from
// the hot path.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting
// connections, waits up to -grace for live simulation runs to drain, ends
// open SSE streams, and flushes the store.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"itag/internal/chaos"
	"itag/internal/cluster"
	"itag/internal/core"
	"itag/internal/server"
	"itag/internal/store"
)

func main() {
	logger := log.New(os.Stderr, "itagd ", log.LstdFlags)
	if err := run(os.Args[1:], logger, nil); err != nil {
		fmt.Fprintf(os.Stderr, "itagd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon body, separated from main so the boot test can drive a
// full start → serve → SIGTERM-drain cycle in-process. ready (optional) is
// called once both listeners are bound, with their resolved addresses
// (debug address "" when -debug-addr is off).
func run(args []string, logger *log.Logger, ready func(apiAddr, debugAddr string)) error {
	fs := flag.NewFlagSet("itagd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dbPath := fs.String("db", "itag.wal", "WAL file (data directory in cluster mode); empty for in-memory")
	seed := fs.Int64("seed", 42, "seed for the allocation strategies' randomness")
	syncEvery := fs.Int("sync-every", 1, "fsync the WAL after every N committed records (0 disables fsync)")
	segmentBytes := fs.Int64("segment-bytes", store.DefaultSegmentBytes, "rotate WAL segments beyond this size (negative disables rotation)")
	autoCompact := fs.Int64("auto-compact", 64<<20, "background-snapshot the store when sealed WAL bytes exceed this (0 disables)")
	quiet := fs.Bool("quiet", false, "disable request logging")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof, /debug/vars and Prometheus /metrics on this address (separate listener; empty disables)")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "http.Server write timeout (SSE streams are exempt)")
	routeTimeout := fs.Duration("route-timeout", 30*time.Second, "per-route handler deadline (<0 disables)")
	grace := fs.Duration("grace", 30*time.Second, "shutdown grace period for draining in-flight requests")
	respCacheBytes := fs.Int64("resp-cache-bytes", 0, "byte budget of the encoded-response cache behind the hot GET routes (0 = 8 MiB default, negative disables)")
	admission := fs.Bool("admission", false, "enable AIMD admission control on the lease routes (tasks, tasks:batch; shed past the limit with 429 + Retry-After)")
	sloP99 := fs.Duration("slo-p99", 500*time.Millisecond, "p99 latency target the admission gate steers against: a lease slower than half of it cuts the limit (with -admission)")
	clusterSlot := fs.String("cluster-slot", "", "ring slot this node leads; non-empty enables cluster mode")
	clusterRing := fs.String("cluster-ring", "", `ring members as "slot=addr,slot=addr,..." (required with -cluster-slot)`)
	clusterReplicas := fs.Int("cluster-replicas", 2, "followers replicating each slot's WAL")
	clusterPull := fs.Duration("cluster-pull-interval", 250*time.Millisecond, "idle heartbeat of the leader-to-follower replication streams, and the base of their error backoff and peer-breaker cooldown (a stream with records to ship does not wait for it)")
	clusterStaleness := fs.Uint64("cluster-staleness", 1024, "maximum replication lag (records) at which followers still serve opt-in reads")
	clusterQuorum := fs.Bool("cluster-quorum", false, "hold mutating acks until the slot's first follower has acked the write as fsynced (degrades to leader-only ack after -cluster-quorum-timeout); followers are shipped to either way")
	clusterQuorumTimeout := fs.Duration("cluster-quorum-timeout", 2*time.Second, "how long a quorum write waits for follower confirmation before degrading")
	chaosSpec := fs.String("chaos-spec", "", `fault-injection schedule, e.g. "seed=42;after=5s,for=2s,partition,to=node-b;stall=50ms,host=*" (empty disables; see internal/chaos)`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Chaos is armed before any store opens so disk faults cover recovery
	// too. With no -chaos-spec the schedule stays nil: WrapListener returns
	// the listener untouched and no failpoint hook is installed — the
	// production path pays nothing.
	var sched *chaos.Schedule
	if *chaosSpec != "" {
		var err error
		sched, err = chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		release := sched.Engage()
		defer release()
		sched.Start()
		logger.Printf("CHAOS ARMED: %d fault(s), seed %d — this process is intentionally unreliable (-chaos-spec %q)",
			len(sched.Faults), sched.Seed, *chaosSpec)
	}

	storeOpts := store.Options{
		SyncEvery:    *syncEvery,
		SegmentBytes: *segmentBytes,
		AutoCompact:  *autoCompact,
	}
	var (
		apiHandler  http.Handler
		promHandler http.Handler
		node        *cluster.Node
		db          store.Store
	)
	if *clusterSlot != "" {
		// Cluster mode: the node owns its stores — one WAL per led slot
		// plus one per followed replica — under the -db directory, and
		// ResumeRuns rebuilds any run a previous process left mid-flight.
		if *dbPath == "" {
			return fmt.Errorf("cluster mode requires -db: replication ships WAL bytes, so cluster nodes are always durable")
		}
		// cluster.Options carries none of these to a slot's stack; a flag
		// that would be parsed and dropped is refused instead.
		var unsupported error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "admission", "slo-p99", "resp-cache-bytes":
				if unsupported == nil {
					unsupported = fmt.Errorf("-%s is not supported with -cluster-slot", f.Name)
				}
			}
		})
		if unsupported != nil {
			return unsupported
		}
		ring, err := parseRingFlag(*clusterRing)
		if err != nil {
			return err
		}
		nodeOpts := cluster.Options{
			Slot: *clusterSlot, Ring: ring, Dir: *dbPath,
			Store: storeOpts, Seed: *seed, Logger: logger,
			Replicas: *clusterReplicas, PullInterval: *clusterPull,
			StalenessBound: *clusterStaleness, RouteTimeout: *routeTimeout,
			Quorum: *clusterQuorum, QuorumTimeout: *clusterQuorumTimeout,
		}
		if sched != nil {
			// Inter-node traffic (shipments, ring pushes and fetches) flows through
			// the same fault schedule as inbound API traffic; this node's
			// identity in fault matching is its own ring address.
			nodeOpts.HTTPClient = &http.Client{
				Timeout:   30 * time.Second,
				Transport: chaos.Wrap(http.DefaultTransport, sched, ring.Addr(*clusterSlot)),
			}
		}
		node, err = cluster.New(nodeOpts)
		if err != nil {
			return fmt.Errorf("start cluster node: %w", err)
		}
		defer node.Close()
		apiHandler, promHandler = node.Handler(), node.PromHandler()
		mode := "leader-only"
		if *clusterQuorum {
			mode = fmt.Sprintf("quorum (timeout %s)", *clusterQuorumTimeout)
		}
		logger.Printf("cluster node: slot %s of %d-member ring v%d (dir %s, replicas %d, staleness bound %d, acks %s)",
			*clusterSlot, len(ring.Members), ring.Version, *dbPath, *clusterReplicas, *clusterStaleness, mode)
	} else {
		if *dbPath == "" {
			db = store.OpenMemory()
			logger.Print("using in-memory store")
		} else {
			wal, err := store.Open(*dbPath, storeOpts)
			if err != nil {
				return fmt.Errorf("open store: %w", err)
			}
			st := wal.Stats()
			logger.Printf("store: %s (seq %d, %d segments, recovered %d records in %.1fms)",
				*dbPath, wal.Seq(), st.Segments, st.RecoveredRecords, st.RecoveryMillis)
			db = wal
		}
		defer db.Close()

		svc := core.NewService(store.NewCatalog(db), *seed)
		// A restarted daemon comes back as what its store says, before the
		// listener accepts: without this the ID counters restart at zero
		// (the next registration overwrites a stored user) and no stored
		// project can issue a task.
		resumed, err := svc.ResumeRuns(context.Background())
		if err != nil {
			return fmt.Errorf("resume runs: %w", err)
		}
		if resumed > 0 {
			logger.Printf("resumed %d interrupted run(s)", resumed)
		}
		var reqLog *log.Logger
		if !*quiet {
			reqLog = logger
		}
		srvOpts := server.Options{Logger: reqLog, RouteTimeout: *routeTimeout, RespCacheBytes: *respCacheBytes}
		if *admission {
			srvOpts.Admission = &server.AdmissionOptions{SLO: *sloP99}
		}
		srv := server.NewWith(svc, srvOpts)
		apiHandler, promHandler = srv, srv.PromHandler()
		if *admission {
			logger.Printf("admission control: p99 SLO %s on the lease routes", *sloP99)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	if sched != nil {
		// Inbound faults apply at the accept edge; the node is addressed by
		// its ring address in cluster mode, its listen address otherwise.
		selfHost := *addr
		if node != nil {
			selfHost = node.Ring().Addr(*clusterSlot)
		}
		ln = chaos.WrapListener(ln, sched, selfHost)
	}

	// The debug listener is deliberately separate from the API listener so
	// profiling and scrape endpoints are never reachable through the public
	// address and a heavy profile capture cannot be throttled by API
	// middleware.
	var dbg *http.Server
	var dbgLn net.Listener
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.Handle("GET /metrics", promHandler)
		dbgLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("listen %s (debug): %w", *debugAddr, err)
		}
		dbg = &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Printf("debug listener on %s (pprof, expvar, /metrics)", dbgLn.Addr())
			if err := dbg.Serve(dbgLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug listener: %v", err)
			}
		}()
	}

	// baseCtx is the lifetime of every request context; cancelling it ends
	// open SSE streams so Shutdown doesn't wait on them forever.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()

	httpSrv := &http.Server{
		Handler:           apiHandler,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sigCtx.Done()
		logger.Printf("signal received; draining requests (grace %s)", *grace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()

		// Stop accepting first (Shutdown closes the listeners immediately,
		// then waits for in-flight requests — including SSE streams, which
		// end when baseCtx is cancelled below).
		shutdownErr := make(chan error, 1)
		go func() { shutdownErr <- httpSrv.Shutdown(drainCtx) }()

		cancelBase() // end SSE streams so Shutdown can finish
		if err := <-shutdownErr; err != nil {
			logger.Printf("shutdown: %v", err)
		}
		if db != nil {
			if err := db.Sync(); err != nil {
				logger.Printf("store sync: %v", err)
			}
		}
		// In cluster mode the deferred node.Close stops the streams and
		// flushes every store; interrupted runs resume on the next boot
		// (or on whichever follower is promoted) via ResumeRuns.
		// Drain the debug listener last so an in-flight profile capture can
		// observe the shutdown itself, within the same grace budget.
		if dbg != nil {
			if err := dbg.Shutdown(drainCtx); err != nil {
				logger.Printf("debug listener shutdown: %v", err)
			}
		}
	}()

	if ready != nil {
		dbgAddr := ""
		if dbgLn != nil {
			dbgAddr = dbgLn.Addr().String()
		}
		ready(ln.Addr().String(), dbgAddr)
	}

	logger.Printf("iTag listening on %s (API /api/v1)", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-done
	logger.Print("bye")
	return nil
}

// parseRingFlag parses -cluster-ring: comma-separated "slot=addr" pairs,
// e.g. "alpha=http://localhost:8081,beta=http://localhost:8082".
func parseRingFlag(spec string) (*cluster.Ring, error) {
	if spec == "" {
		return nil, fmt.Errorf("cluster mode requires -cluster-ring (slot=addr,slot=addr,...)")
	}
	var members []cluster.Member
	for _, pair := range strings.Split(spec, ",") {
		slot, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || slot == "" || addr == "" {
			return nil, fmt.Errorf("invalid -cluster-ring entry %q (want slot=addr)", pair)
		}
		members = append(members, cluster.Member{Slot: slot, Addr: strings.TrimRight(addr, "/")})
	}
	ring, err := cluster.NewRing(members)
	if err != nil {
		return nil, fmt.Errorf("invalid -cluster-ring: %w", err)
	}
	return ring, nil
}
