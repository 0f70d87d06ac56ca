package cluster

import (
	"context"
	"net"
	"net/http"
	"sync"
	"syscall"
)

// Network is an in-memory network of named hosts: real http.Servers over
// net.Pipes, dialed by the embedded http.Transport. A goroutine blocked on a
// pipe is durably blocked in a testing/synctest bubble; one on a socket is
// not.
type Network struct {
	*http.Transport // RoundTrip sends a request to the host its URL names

	mu    sync.Mutex
	hosts map[string]*pipeListener
}

// NewNetwork returns a network with no hosts; Register adds them.
func NewNetwork() *Network {
	n := &Network{hosts: make(map[string]*pipeListener)}
	n.Transport = &http.Transport{DialContext: n.dial}
	return n
}

// Register serves h as host, the bare name in a URL such as "http://node-a".
// Registering again or registering nil (a drill killing a node) first closes
// the host's server, cutting its open exchanges; an unregistered host refuses.
func (n *Network) Register(host string, h http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old := n.hosts[host]; old != nil {
		_ = old.srv.Close()
		delete(n.hosts, host)
	}
	if h == nil {
		return
	}
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	// Close cuts the connections it tracks; this, one accepted as it closes.
	l.srv = &http.Server{Handler: h, ConnState: func(c net.Conn, _ http.ConnState) {
		select {
		case <-l.done:
			_ = c.Close()
		default:
		}
	}}
	n.hosts[host] = l
	go func() { _ = l.srv.Serve(l) }()
}

// Client returns an http.Client over the network.
func (n *Network) Client() *http.Client { return &http.Client{Transport: n} }

// Close takes every host off the network.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for host, l := range n.hosts {
		_ = l.srv.Close()
		delete(n.hosts, host)
	}
}

func (n *Network) dial(ctx context.Context, _, addr string) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	l := n.hosts[host]
	n.mu.Unlock()
	refused := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	if l == nil {
		return nil, refused
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, refused
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// pipeListener is a host's net.Listener: it accepts the pipes dials hand it.
type pipeListener struct {
	srv   *http.Server
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{} }
