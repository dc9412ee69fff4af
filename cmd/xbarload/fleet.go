package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"xbar/internal/server"
)

// node is one xbard instance the load generator addresses.
type node struct {
	id  string
	url string
	pid int // 0 for an in-process server
}

// fleet is a running set of xbard nodes: child processes for the
// untraced runs, in-process servers for traced runs and tests.
type fleet interface {
	nodes() []node
	// kill stops node i abruptly, as a crash would.
	kill(i int) error
	// stop shuts every remaining node down and waits until it has ended.
	stop() error
}

// clusterIDs names n nodes.
func clusterIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	return ids
}

// procFleet runs xbard binaries as child processes.
type procFleet struct {
	ns    []node
	cmds  []*exec.Cmd
	logs  []*tail
	alive []bool
}

// startProcs launches n xbard processes on free loopback ports; for
// n > 1 they form one -peers cluster.
func startProcs(bin string, n int) (*procFleet, error) {
	lns, err := listenN(n)
	if err != nil {
		return nil, err
	}
	ids := clusterIDs(n)
	var peers []string
	f := &procFleet{}
	for i, ln := range lns {
		addr := ln.Addr().String()
		f.ns = append(f.ns, node{id: ids[i], url: "http://" + addr})
		peers = append(peers, ids[i]+"=http://"+addr)
	}
	// The ports are released just before the daemons bind them.
	for _, ln := range lns {
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	for i := range f.ns {
		args := []string{"-addr", strings.TrimPrefix(f.ns[i].url, "http://")}
		if n > 1 {
			args = append(args, "-node-id", ids[i], "-peers", strings.Join(peers, ","))
		}
		cmd := exec.Command(bin, args...)
		log := &tail{}
		cmd.Stdout, cmd.Stderr = log, log
		// A daemon must not outlive the load generator, however it ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, errors.Join(fmt.Errorf("starting %s: %w", bin, err), f.stop())
		}
		f.ns[i].pid = cmd.Process.Pid
		f.cmds = append(f.cmds, cmd)
		f.logs = append(f.logs, log)
		f.alive = append(f.alive, true)
	}
	return f, nil
}

func (f *procFleet) nodes() []node { return f.ns }

func (f *procFleet) kill(i int) error {
	if !f.alive[i] {
		return nil
	}
	f.alive[i] = false
	if err := f.cmds[i].Process.Kill(); err != nil {
		return err
	}
	// The exit status of a killed process is "signal: killed".
	_ = f.cmds[i].Wait() //lint:allow errcheck the kill is the point; its exit status carries no information
	return nil
}

// stop sends SIGTERM (xbard drains and exits 0) and waits; a daemon
// that has not exited after drainWait is killed.
func (f *procFleet) stop() error {
	const drainWait = 10 * time.Second
	var errs []error
	for i, cmd := range f.cmds {
		if !f.alive[i] {
			continue
		}
		f.alive[i] = false
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			errs = append(errs, err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("xbard %s: %w; log tail:\n%s", f.ns[i].id, err, f.logs[i]))
			}
		case <-time.After(drainWait):
			errs = append(errs, fmt.Errorf("xbard %s did not drain within %v; killed", f.ns[i].id, drainWait))
			if err := cmd.Process.Kill(); err != nil {
				errs = append(errs, err)
			}
			<-done
		}
	}
	return errors.Join(errs...)
}

// tail keeps the last few KiB written to it.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	const keep = 4 << 10
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > keep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-keep:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// listenN binds n loopback listeners on free ports.
func listenN(n int) ([]net.Listener, error) {
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				_ = l.Close() //lint:allow errcheck best-effort cleanup on the error path
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// inprocFleet serves server.New instances on loopback listeners inside
// this process, each handler wrapped by wrap (the tracer's span hook).
type inprocFleet struct {
	ns    []node
	srvs  []*server.Server
	https []*http.Server
	done  []chan error
	alive []bool
}

func startInproc(n int, wrap func(http.Handler) http.Handler) (*inprocFleet, error) {
	lns, err := listenN(n)
	if err != nil {
		return nil, err
	}
	ids := clusterIDs(n)
	peers := make(map[string]string, n)
	f := &inprocFleet{}
	for i, ln := range lns {
		f.ns = append(f.ns, node{id: ids[i], url: "http://" + ln.Addr().String()})
		peers[ids[i]] = f.ns[i].url
	}
	for i, ln := range lns {
		cfg := server.Config{}
		if n > 1 {
			cfg.NodeID, cfg.Peers = ids[i], peers
		}
		srv, err := server.New(cfg)
		if err != nil {
			for _, l := range lns[i:] {
				_ = l.Close() //lint:allow errcheck best-effort cleanup on the error path
			}
			return nil, errors.Join(err, f.stop())
		}
		hs := &http.Server{Handler: wrap(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		f.srvs = append(f.srvs, srv)
		f.https = append(f.https, hs)
		f.done = append(f.done, done)
		f.alive = append(f.alive, true)
	}
	return f, nil
}

func (f *inprocFleet) nodes() []node { return f.ns }

func (f *inprocFleet) kill(i int) error {
	if !f.alive[i] {
		return nil
	}
	f.alive[i] = false
	err := f.https[i].Close()
	f.srvs[i].Close()
	if serr := <-f.done[i]; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func (f *inprocFleet) stop() error {
	var errs []error
	for i, hs := range f.https {
		if !f.alive[i] {
			continue
		}
		f.alive[i] = false
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, hs.Shutdown(ctx))
		cancel()
		f.srvs[i].Close()
		if err := <-f.done[i]; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// errNotReady marks a fleet whose /readyz did not answer in time: the
// run is invalid.
var errNotReady = errors.New("/readyz did not answer 200 within 15s")

// waitReady polls GET /readyz on every node until each answers 200.
func waitReady(ctx context.Context, c *http.Client, ns []node) error {
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range ns {
		for {
			if status, _, err := get(ctx, c, n.url+"/readyz"); err == nil && status == http.StatusOK {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s: %w", n.id, errNotReady)
			}
			sleepPrecise(250 * time.Microsecond)
		}
	}
	return nil
}

func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //lint:allow errcheck read-only body
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape sums the /metrics documents of the given nodes: the counters
// the per-layer metrics difference.
func scrape(ctx context.Context, c *http.Client, ns []node) (counters, error) {
	var sum counters
	for _, n := range ns {
		status, body, err := get(ctx, c, n.url+"/metrics")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return counters{}, fmt.Errorf("scraping %s/metrics: %w", n.url, err)
		}
		var snap server.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return counters{}, fmt.Errorf("decoding %s/metrics: %w", n.url, err)
		}
		sum.hits += snap.Cache.Hits
		sum.misses += snap.Cache.Misses
		sum.shared += snap.Cache.SharedInFlight
		sum.evictions += snap.Cache.Evictions
		sum.recycled += snap.Cache.SolversRecycled
		sum.scHits += snap.ScenarioCache.Hits
		sum.scMisses += snap.ScenarioCache.Misses
		sum.scShared += snap.ScenarioCache.SharedInFlight
		if cl := snap.Cluster; cl != nil {
			sum.failovers += cl.Failovers
			sum.replSent += cl.Replication.Sent
		}
	}
	return sum, nil
}

// counters are the /metrics counters xbarload reads, summed over nodes.
type counters struct {
	hits, misses, shared, evictions, recycled int64
	scHits, scMisses, scShared                int64
	failovers, replSent                       int64
}

func (a counters) sub(b counters) counters {
	return counters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, shared: a.shared - b.shared,
		evictions: a.evictions - b.evictions, recycled: a.recycled - b.recycled,
		scHits: a.scHits - b.scHits, scMisses: a.scMisses - b.scMisses, scShared: a.scShared - b.scShared,
		failovers: a.failovers - b.failovers, replSent: a.replSent - b.replSent,
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds is utime+stime of the given processes.
func cpuSeconds(ns []node) (float64, error) {
	var ticks int64
	for _, n := range ns {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesized command name start at field 3
		// (state); utime and stime are fields 14 and 15.
		var f []string
		if i := bytes.LastIndexByte(data, ')'); i >= 0 {
			f = strings.Fields(string(data[i+1:]))
		}
		if len(f) < 13 {
			return 0, fmt.Errorf("unexpected /proc/%d/stat", n.pid)
		}
		for _, s := range f[11:13] {
			t, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += t
		}
	}
	return float64(ticks) / clockTicks, nil
}

// peakRSSMB is the largest VmHWM (peak resident set) among the given
// processes, in MB.
func peakRSSMB(ns []node) (float64, error) {
	peak := 0.0
	for _, n := range ns {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err != nil {
					return 0, err
				}
				peak = max(peak, kb/1024)
			}
		}
	}
	return peak, nil
}
