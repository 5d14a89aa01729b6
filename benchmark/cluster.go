package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lht/internal/hashring"
	"lht/internal/tcpnet"
)

const (
	nodeCount = 3
	// Node data ports come from this fixed range, below Linux's ephemeral
	// range (32768 and up), so no client socket of the run can hold one;
	// a node's -metrics port is its data port plus metricsPortOffset.
	portLo            = 21000
	portHi            = 21999
	metricsPortOffset = 1000

	outDir  = "out" // relative to the benchmark directory, the process's cwd
	nodeBin = outDir + "/lht-node"
)

// buildNode compiles cmd/lht-node of the enclosing repository into outDir.
// The harness runs with the benchmark directory as its working directory
// (`go run -C benchmark .`), so the repository root is the parent.
func buildNode(ctx context.Context) error {
	if _, err := os.Stat("../cmd/lht-node"); err != nil {
		return fmt.Errorf("run from the repository's benchmark directory (go run -C benchmark .): %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := filepath.Abs(nodeBin)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/lht-node")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build lht-node: %v\n%s", err, out)
	}
	return nil
}

func loopback(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

func portFree(port int) bool {
	for _, p := range []int{port, port + metricsPortOffset} {
		ln, err := net.Listen("tcp", loopback(p))
		if err != nil {
			return false
		}
		_ = ln.Close()
	}
	return true
}

// ringPorts returns the nodeCount free ports of [portLo, portHi] whose
// tcpnet ring positions are most nearly equidistant. tcpnet places a node
// at the hash of its address, and a node serves the arc that ends at its
// position: with kernel-chosen ports one node served 37-98 % of the
// lookups from run to run. Choosing by ring position from a fixed range
// gives every run on every commit the same balanced ring.
func ringPorts(free func(port int) bool) ([]int, error) {
	type cand struct {
		port int
		pos  uint64
	}
	cands := make([]cand, 0, portHi-portLo+1)
	for p := portLo; p <= portHi; p++ {
		cands = append(cands, cand{p, uint64(hashring.HashAddr(loopback(p)))})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].pos < cands[j].pos })
	// nearest returns the candidate closest to target on the circle and
	// its distance.
	nearest := func(target uint64) (cand, uint64) {
		i := sort.Search(len(cands), func(i int) bool { return cands[i].pos >= target })
		a, b := cands[(i+len(cands)-1)%len(cands)], cands[i%len(cands)]
		da, db := target-a.pos, b.pos-target // mod 2^64, so wrap-around is handled
		if da < db {
			return a, da
		}
		return b, db
	}
	type ring struct {
		ports []int
		skew  uint64 // largest distance of a member from its ideal position
	}
	const arc = ^uint64(0) / nodeCount
	rings := make([]ring, 0, len(cands))
	for _, first := range cands {
		r := ring{ports: []int{first.port}}
		for k := uint64(1); k < nodeCount; k++ {
			c, d := nearest(first.pos + k*arc)
			r.ports = append(r.ports, c.port)
			r.skew = max(r.skew, d)
		}
		rings = append(rings, r)
	}
	sort.Slice(rings, func(i, j int) bool { return rings[i].skew < rings[j].skew })
next:
	for _, r := range rings {
		seen := map[int]bool{}
		for _, p := range r.ports {
			if seen[p] || !free(p) {
				continue next
			}
			seen[p] = true
		}
		return r.ports, nil
	}
	return nil, fmt.Errorf("no %d free ports in %d-%d", nodeCount, portLo, portHi)
}

// node is one lht-node child process.
type node struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string
	exited      chan struct{} // closed once Wait has returned
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// cluster is nodeCount lht-node processes and one tcpnet client over them.
type cluster struct {
	nodes  []*node
	client *tcpnet.Client
}

// startCluster spawns the nodes and dials them. Nodes are started from the
// calling goroutine, which must be locked to an OS thread that outlives
// them (main locks the main goroutine): Pdeathsig is delivered when the
// thread that forked the child exits, and that must mean "the harness
// died", whether by panic, SIGKILL or a runtime crash.
func startCluster(ctx context.Context, replicas int) (_ *cluster, err error) {
	ports, err := ringPorts(portFree)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	logf, err := os.OpenFile(outDir+"/nodes.log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // each child holds its own duplicate
	for _, p := range ports {
		n := &node{addr: loopback(p), metricsAddr: loopback(p + metricsPortOffset), exited: make(chan struct{})}
		n.cmd = exec.Command(nodeBin, "-listen", n.addr, "-metrics", n.metricsAddr)
		n.cmd.Stdout, n.cmd.Stderr = logf, logf
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := n.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start lht-node: %w", err)
		}
		go func() { _ = n.cmd.Wait(); close(n.exited) }()
		c.nodes = append(c.nodes, n)
	}
	seeds := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		seeds[i] = n.addr
		for _, a := range []string{n.addr, n.metricsAddr} {
			if err := waitListening(ctx, n, a); err != nil {
				return nil, err
			}
		}
	}
	// One connection per node: the minimum a 3-node cluster allows, so the
	// client mux's pipelining is what carries the concurrent clients.
	c.client, err = tcpnet.Dial(ctx, tcpnet.ClusterConfig{Seeds: seeds, PoolSize: 1, Replicas: replicas})
	if err != nil {
		return nil, fmt.Errorf("dial cluster: %w", err)
	}
	return c, nil
}

func waitListening(ctx context.Context, n *node, addr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			_ = conn.Close()
			return nil
		}
		select {
		case <-n.exited:
			return fmt.Errorf("lht-node %s exited during start-up (see %s/nodes.log)", n.addr, outDir)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lht-node not listening on %s after 10s: %w", addr, err)
		}
	}
}

// stop closes the client and ends every node, waiting until each process
// has been reaped: SIGTERM first (lht-node shuts down cleanly on it), then
// SIGKILL for one that does not leave within three seconds. Stopping a
// stopped cluster does nothing.
func (c *cluster) stop() {
	if c.client != nil {
		_ = c.client.Close()
		c.client = nil
	}
	for _, n := range c.nodes {
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range c.nodes {
		select {
		case <-n.exited:
		case <-time.After(3 * time.Second):
			_ = n.cmd.Process.Kill()
			<-n.exited
		}
	}
	c.nodes = nil
}

// procIO is the part of /proc/<pid>/io the ledger reads: bytes and calls
// of read- and write-like system calls, which for an lht-node are its
// sockets.
type procIO struct {
	bytes    int64 // rchar + wchar
	syscalls int64 // syscr + syscw
}

func readProcIO(pid int) (procIO, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procIO{}, err
	}
	var v [4]int64
	for i, name := range []string{"rchar:", "wchar:", "syscr:", "syscw:"} {
		if v[i], err = lineValue(string(data), name); err != nil {
			return procIO{}, fmt.Errorf("/proc/%d/io: %w", pid, err)
		}
	}
	return procIO{bytes: v[0] + v[1], syscalls: v[2] + v[3]}, nil
}

// readProcCPU returns user + system CPU time of a process in microseconds
// (the kernel reports USER_HZ = 100 ticks per second).
func readProcCPU(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis, where field 3 (state) starts.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return (utime + stime) * 10_000, nil
}

// readPeakRSS returns a process's peak resident set (VmHWM) in MiB.
func readPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := lineValue(string(data), "VmHWM:")
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
	}
	return float64(kb) / 1024, nil
}

var scrapeClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// lineValue finds the line of text that starts with prefix and parses the
// integer that follows it (a unit after the integer is ignored).
func lineValue(text, prefix string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no line %q", prefix)
}

// nodeCounters are the counters a node exposes on its -metrics mux.
type nodeCounters struct {
	mallocs    int64 // runtime.MemStats.Mallocs, from the allocs profile's trailer
	allocBytes int64 // runtime.MemStats.TotalAlloc, likewise
	lookups    int64 // DHT-lookups served, from /metrics
}

func (n *node) scrape(ctx context.Context) (nodeCounters, error) {
	var c nodeCounters
	prof, err := httpGet(ctx, "http://"+n.metricsAddr+"/debug/pprof/allocs?debug=1")
	if err != nil {
		return c, fmt.Errorf("node %s pprof: %w", n.addr, err)
	}
	var err1, err2, err3 error
	c.mallocs, err1 = lineValue(prof, "# Mallocs =")
	c.allocBytes, err2 = lineValue(prof, "# TotalAlloc =")
	prom, err := httpGet(ctx, "http://"+n.metricsAddr+"/metrics")
	if err != nil {
		return c, fmt.Errorf("node %s metrics: %w", n.addr, err)
	}
	c.lookups, err3 = lineValue(prom, "lht_dht_lookups_total ")
	if err := errors.Join(err1, err2, err3); err != nil {
		return c, fmt.Errorf("node %s scrape: %w", n.addr, err)
	}
	return c, nil
}
