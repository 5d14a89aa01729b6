package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
)

// sample is one reading of every counter the ledger takes from outside
// the program: the harness process's own runtime and /proc counters (it is
// the client), and each node's /proc, pprof and /metrics counters.
type sample struct {
	clientMallocs, clientAllocBytes int64
	clientGCs                       int64
	clientGCPauseNs                 int64
	clientIO                        procIO
	clientCPUus                     int64

	nodes   []nodeCounters
	nodeIO  []procIO
	nodeCPU []int64 // microseconds
}

// takeSample reads all counters. The scrapes are HTTP requests that cost
// the nodes and the client allocations, bytes and system calls of their
// own, so opening a measured interval reads them first and /proc last,
// and closing one reads /proc first and scrapes last: the scrape traffic
// falls outside the interval on both ends.
func (c *cluster) takeSample(ctx context.Context, opening bool) (sample, error) {
	s := sample{
		nodes:   make([]nodeCounters, len(c.nodes)),
		nodeIO:  make([]procIO, len(c.nodes)),
		nodeCPU: make([]int64, len(c.nodes)),
	}
	scrape := func() error {
		for i, n := range c.nodes {
			var err error
			if s.nodes[i], err = n.scrape(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	proc := func() error {
		var err error
		for i, n := range c.nodes {
			if s.nodeIO[i], err = readProcIO(n.pid()); err != nil {
				return err
			}
			if s.nodeCPU[i], err = readProcCPU(n.pid()); err != nil {
				return err
			}
		}
		if s.clientIO, err = readProcIO(os.Getpid()); err != nil {
			return err
		}
		s.clientCPUus, err = readProcCPU(os.Getpid())
		return err
	}
	mem := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.clientMallocs, s.clientAllocBytes = int64(m.Mallocs), int64(m.TotalAlloc)
		s.clientGCs, s.clientGCPauseNs = int64(m.NumGC), int64(m.PauseTotalNs)
	}
	if opening {
		if err := scrape(); err != nil {
			return s, err
		}
		mem()
		return s, proc()
	}
	if err := proc(); err != nil {
		return s, err
	}
	mem()
	return s, scrape()
}

// usage is the difference of two samples, summed over the nodes where a
// metric asks for the whole system.
type usage struct {
	clientMallocs, clientAllocBytes int64
	clientGCs, clientGCPauseNs      int64
	clientSyscalls, clientCPUus     int64

	nodeMallocs, nodeAllocBytes int64
	nodeBytes, nodeSyscalls     int64
	nodeCPUus                   int64
	nodeLookups                 []int64 // per node
}

func (a sample) until(b sample) usage {
	u := usage{
		clientMallocs:    b.clientMallocs - a.clientMallocs,
		clientAllocBytes: b.clientAllocBytes - a.clientAllocBytes,
		clientGCs:        b.clientGCs - a.clientGCs,
		clientGCPauseNs:  b.clientGCPauseNs - a.clientGCPauseNs,
		clientSyscalls:   b.clientIO.syscalls - a.clientIO.syscalls,
		clientCPUus:      b.clientCPUus - a.clientCPUus,
	}
	for i := range a.nodes {
		u.nodeMallocs += b.nodes[i].mallocs - a.nodes[i].mallocs
		u.nodeAllocBytes += b.nodes[i].allocBytes - a.nodes[i].allocBytes
		u.nodeBytes += b.nodeIO[i].bytes - a.nodeIO[i].bytes
		u.nodeSyscalls += b.nodeIO[i].syscalls - a.nodeIO[i].syscalls
		u.nodeCPUus += b.nodeCPU[i] - a.nodeCPU[i]
		u.nodeLookups = append(u.nodeLookups, b.nodes[i].lookups-a.nodes[i].lookups)
	}
	return u
}

// checkCounted fails when a counter that every workload must move did
// not: a metric is never reported as 0 because its source went unread.
func (u usage) checkCounted() error {
	for name, v := range map[string]int64{
		"client mallocs":       u.clientMallocs,
		"client alloc bytes":   u.clientAllocBytes,
		"client io syscalls":   u.clientSyscalls,
		"node mallocs":         u.nodeMallocs,
		"node alloc bytes":     u.nodeAllocBytes,
		"node socket bytes":    u.nodeBytes,
		"node io syscalls":     u.nodeSyscalls,
		"node lookups (total)": sum(u.nodeLookups),
	} {
		if v <= 0 {
			return fmt.Errorf("counter %q did not advance over the timed pass (delta %d)", name, v)
		}
	}
	return nil
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
