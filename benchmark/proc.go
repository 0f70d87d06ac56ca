package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir receives child stderr, traces and per-run result files. It is
// git-ignored and lives inside the checkout.
const outDir = "benchmark/out"

// child is one spawned process (an itagd node or the reference server).
// Ports and the stderr path are fixed when the child is planned, before
// anything runs concurrently, so two children can never be handed the same
// port or log file.
type child struct {
	name       string
	bin        string
	args       []string
	api        string // host:port of the API listener
	stderrPath string

	cmd    *exec.Cmd
	stderr *os.File
}

// procs owns every process and temporary directory of a run so that one
// call tears all of them down, on the normal path and from the signal
// handler alike.
type procs struct {
	mu       sync.Mutex
	children []*child
	dirs     []string
	logs     []string // every stderr path ever planned
	seq      int
}

var owned = &procs{}

// freePorts reserves n distinct loopback ports by holding n listeners open
// at once, then releases them for the children to bind.
func freePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// plan registers a child and fixes its stderr path. Call it from one
// goroutine, before start.
func (p *procs) plan(name, bin string, args []string, api string) *child {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	c := &child{
		name: name, bin: bin, args: args, api: api,
		stderrPath: filepath.Join(outDir, fmt.Sprintf("%s-%d-%03d.stderr", name, os.Getpid(), p.seq)),
	}
	p.children = append(p.children, c)
	p.logs = append(p.logs, c.stderrPath)
	return c
}

// dropLogs removes the children's stderr files: what a correct run leaves
// behind is its result file, not forty empty logs.
func (p *procs) dropLogs() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, path := range p.logs {
		os.Remove(path)
	}
	p.logs = nil
}

func (c *child) start() error {
	f, err := os.Create(c.stderrPath)
	if err != nil {
		return fmt.Errorf("%s: stderr file: %w", c.name, err)
	}
	cmd := exec.Command(c.bin, c.args...)
	cmd.Stderr = f
	cmd.Stdout = f
	// The kernel kills the child if the harness dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("%s: start %s: %w", c.name, c.bin, err)
	}
	c.cmd, c.stderr = cmd, f
	return nil
}

// kill SIGKILLs the child and waits for it. A crash, not a shutdown: every
// durable workload has to survive exactly this.
func (c *child) kill() {
	if c.cmd == nil {
		return
	}
	_ = c.cmd.Process.Kill() // already exited is fine
	_ = c.cmd.Wait()         // the exit status of a killed child carries nothing
	c.stderr.Close()
	c.cmd = nil
}

func (c *child) pid() int {
	if c.cmd == nil {
		return 0
	}
	return c.cmd.Process.Pid
}

// stderrTail returns the last lines the child wrote, for failure reports.
func (c *child) stderrTail() string {
	raw, err := os.ReadFile(c.stderrPath)
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return strings.TrimSpace(string(raw))
}

// waitHealthy polls url until it answers 200. The tick is 1 ms so that the
// poll granularity is invisible in setup_s.
func waitHealthy(ctx context.Context, hc *http.Client, url string, c *child) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s never became healthy at %s: %v\n--- stderr ---\n%s", c.name, url, err, c.stderrTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// mkDataDir makes a directory for WAL files on tmpfs, so that no device
// sits in the timed path (fsyncs are counted, not timed). When /dev/shm is
// not writable it falls back to a directory inside the checkout and the
// env block says so.
func (p *procs) mkDataDir() (dir, fs string, err error) {
	dir, err = os.MkdirTemp("/dev/shm", "itag-bench-")
	fs = "tmpfs:/dev/shm"
	if err != nil {
		base := filepath.Join(".bench_build", "data")
		if err = os.MkdirAll(base, 0o755); err != nil {
			return "", "", err
		}
		if dir, err = os.MkdirTemp(base, "itag-bench-"); err != nil {
			return "", "", err
		}
		fs = "checkout:" + base
	}
	p.mu.Lock()
	p.dirs = append(p.dirs, dir)
	p.mu.Unlock()
	return dir, fs, nil
}

// release kills the given children and removes the given directories,
// dropping them from the owned set.
func (p *procs) release(children []*child, dirs []string) {
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.children = without(p.children, children)
	p.dirs = without(p.dirs, dirs)
}

func without[T comparable](all, drop []T) []T {
	kept := all[:0]
	for _, a := range all {
		dropped := false
		for _, d := range drop {
			dropped = dropped || a == d
		}
		if !dropped {
			kept = append(kept, a)
		}
	}
	return kept
}

// releaseAll tears down everything still owned: the exit and signal path.
func (p *procs) releaseAll() {
	p.mu.Lock()
	children := append([]*child(nil), p.children...)
	dirs := append([]string(nil), p.dirs...)
	p.mu.Unlock()
	p.release(children, dirs)
}

// procUsage reads a child's CPU time (user+system, ms) and peak resident
// set (KiB) from /proc.
func procUsage(pid int) (cpuMS float64, hwmKB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	cpuMS = (ut + st) * 10

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				hwmKB, _ = strconv.ParseFloat(fs[1], 64)
			}
		}
	}
	if hwmKB == 0 {
		return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return cpuMS, hwmKB, nil
}
