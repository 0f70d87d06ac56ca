package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"itag/internal/cluster"
	"itag/internal/core"
	"itag/internal/server"
	"itag/internal/store"
)

// inProcStack assembles the workload's deployment inside the harness from
// the same public constructors cmd/itagd uses, with the timing decorators
// of trace.go at every boundary, over real loopback listeners. Only the
// traced pass uses it; flags mirror itagd's defaults.
func inProcStack(w workloadDef, rec *recorder) (*stack, error) {
	s := &stack{w: w, dataFS: "memory"}
	s.wrap = func(rt http.RoundTripper) http.RoundTripper {
		return tracedRT{inner: rt, rec: rec, name: "client.roundtrip"}
	}
	var dir string
	if w.durable {
		var err error
		if dir, s.dataFS, err = owned.mkDataDir(); err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		s.dirs = append(s.dirs, dir)
	}
	storeOpts := store.Options{SyncEvery: 1, AutoCompact: 64 << 20}

	addrs, err := freePorts(w.nodes)
	if err != nil {
		return nil, err
	}
	var closers []func()
	s.stopInProc = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	serve := func(addr string, h http.Handler) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = hs.Serve(ln) // returns ErrServerClosed on Close; nothing to report
		}()
		closers = append(closers, func() { hs.Close(); <-done })
		return nil
	}

	if w.nodes == 1 {
		var db store.Store = store.OpenMemory()
		if w.durable {
			wal, err := store.Open(filepath.Join(dir, "itag.wal"), storeOpts)
			if err != nil {
				return nil, fmt.Errorf("open store: %w", err)
			}
			db = wal
		}
		svc := core.NewServiceWith(store.NewCatalog(&tracedStore{inner: db, rec: rec}), 42, core.ServiceOptions{})
		srv := server.NewWith(svc, server.Options{})
		closers = append(closers, func() { svc.Close(); db.Close() })
		if err := serve(addrs[0], tracedHandler(rec, "server.handle", 0, srv)); err != nil {
			s.stopInProc()
			return nil, err
		}
		s.nodes = []node{{slot: "s0", base: "http://" + addrs[0]}}
		return s, nil
	}

	members := make([]cluster.Member, w.nodes)
	for i := range members {
		members[i] = cluster.Member{Slot: fmt.Sprintf("s%d", i), Addr: "http://" + addrs[i]}
	}
	for i := 0; i < w.nodes; i++ {
		ring, err := cluster.NewRing(members)
		if err != nil {
			s.stopInProc()
			return nil, err
		}
		peerRT := tracedRT{inner: newPeerTransport(), rec: rec, name: "cluster.peer", node: i}
		n, err := cluster.New(cluster.Options{
			Slot: members[i].Slot, Ring: ring, Dir: filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Store: storeOpts, Seed: 42, Quorum: w.quorum,
			HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: peerRT},
		})
		if err != nil {
			s.stopInProc()
			return nil, fmt.Errorf("start cluster node %d: %w", i, err)
		}
		closers = append(closers, func() { n.Close(); peerRT.CloseIdleConnections() })
		if err := serve(addrs[i], tracedHandler(rec, "cluster.handle", i, n.Handler())); err != nil {
			s.stopInProc()
			return nil, err
		}
		s.nodes = append(s.nodes, node{slot: members[i].Slot, base: members[i].Addr})
	}
	return s, nil
}

// newPeerTransport is what itagd's nodes use between themselves:
// http.DefaultTransport's settings, in a pool of its own.
func newPeerTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}
