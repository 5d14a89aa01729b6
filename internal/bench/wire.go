package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

// wireCluster is a set of in-process tcpnet servers backing the wire
// experiments.
type wireCluster struct {
	servers []*tcpnet.Server
	members []*tcpnet.Membership // nil unless booted with gossip
	addrs   []string
}

// gossip turns the membership plane on for a cluster's servers. Server i
// draws its gossip peers from seed+i; seeds is the member list each starts
// from, the cluster's own addresses when nil.
type gossip struct {
	seeds []string
	seed  int64
}

// startWireCluster boots n empty servers on free loopback ports, or, when
// want is non-empty, on exactly those addresses, retrying briefly while a
// previous owner's socket winds down (a node that rejoins must come back
// where consistent hashing put it). Every listener is open before the
// first server starts, so with g set each server knows the whole member
// list from its first gossip round.
func startWireCluster(n int, want []string, g *gossip) (*wireCluster, error) {
	cl := &wireCluster{}
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		addr := "127.0.0.1:0"
		if len(want) > 0 {
			addr = want[i]
		}
		ln, err := net.Listen("tcp", addr)
		for try := 1; err != nil && try < 200; try++ {
			time.Sleep(5 * time.Millisecond)
			ln, err = net.Listen("tcp", addr)
		}
		if err != nil {
			for _, l := range lns {
				_ = l.Close()
			}
			return nil, fmt.Errorf("bench: wire cluster listen: %w", err)
		}
		lns = append(lns, ln)
		cl.addrs = append(cl.addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		srv := tcpnet.NewServer()
		if g != nil {
			seeds := g.seeds
			if seeds == nil {
				seeds = cl.addrs
			}
			cl.members = append(cl.members, srv.EnableMembership(tcpnet.MembershipConfig{
				Self: cl.addrs[i], Seeds: seeds, Seed: g.seed + int64(i),
			}))
		}
		go func() { _ = srv.Serve(ln) }()
		cl.servers = append(cl.servers, srv)
	}
	return cl, nil
}

func (cl *wireCluster) close() {
	for _, s := range cl.servers {
		_ = s.Close()
	}
}

// wireValueSizes spans the payload range the codec ablation sweeps.
var wireValueSizes = []int{16, 256, 4096}

// RunWireAblation is ablation A8: what the framed wire protocol costs,
// measured end to end over real TCP connections to in-process tcpnet
// servers. Three results: allocations per operation, throughput (client
// kops/sec on Get plus batched bulk-load krecords/sec), and Get tail
// latency. All three are measured: the allocation rows divide a
// process-wide MemStats delta, so a GC cycle inside the window can move
// them, and internal/tcpnet's TestRawRoundTripAllocations pins the same
// round trips exactly instead. RunSweep pins the wire's counted costs
// against dht.Local; this run prices its codec.
func RunWireAblation(o Options) (Result, Result, Result, error) {
	o = o.WithDefaults()
	allocs := Result{
		Name:     "A8",
		Title:    "Frame codec: allocations per operation",
		XLabel:   "value size (bytes)",
		YLabel:   "allocs/op",
		Measured: true,
	}
	thru := Result{
		Name:     "A8b",
		Title:    "Frame codec: throughput",
		XLabel:   "value size (bytes)",
		YLabel:   "kops/sec (Get) | krecords/sec (bulk load)",
		Measured: true,
	}
	tail := Result{
		Name:     "A8c",
		Title:    "Frame codec: Get tail latency",
		XLabel:   "value size (bytes)",
		YLabel:   "p99 microseconds",
		Measured: true,
	}

	xs := float64s(wireValueSizes)
	var getAllocs, putAllocs, getKops, loadRate, p99 []float64
	for _, vs := range wireValueSizes {
		st, err := measureWire(o, vs)
		if err != nil {
			return allocs, thru, tail, fmt.Errorf("bench: wire %d: %w", vs, err)
		}
		getAllocs = append(getAllocs, st.getAllocs)
		putAllocs = append(putAllocs, st.putAllocs)
		getKops = append(getKops, st.getKops)
		loadRate = append(loadRate, st.loadRate)
		p99 = append(p99, st.p99)
	}
	allocs.Series = append(allocs.Series,
		meanSeries("binary Get", xs, [][]float64{getAllocs}),
		meanSeries("binary Put", xs, [][]float64{putAllocs}))
	thru.Series = append(thru.Series,
		meanSeries("binary Get kops/s", xs, [][]float64{getKops}),
		meanSeries("binary load krec/s", xs, [][]float64{loadRate}))
	tail.Series = append(tail.Series,
		meanSeries("binary Get p99 us", xs, [][]float64{p99}))
	return allocs, thru, tail, nil
}

// wireStats are the codec's measurements at one value size.
type wireStats struct {
	getAllocs float64 // allocations per Get round trip, min over reps
	putAllocs float64 // allocations per Put round trip, min over reps
	getKops   float64 // Get throughput, best rep
	p99       float64 // Get p99 latency in microseconds, best rep
	loadRate  float64 // batched index bulk load, krecords/sec, best rep
}

func measureWire(o Options, valSize int) (wireStats, error) {
	var st wireStats

	// Point ops against a single node: one server isolates codec cost from
	// key placement.
	cl, err := startWireCluster(1, nil, nil)
	if err != nil {
		return st, err
	}
	defer cl.close()
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: cl.addrs})
	if err != nil {
		return st, err
	}
	defer func() { _ = c.Close() }()

	ctx := context.Background()
	val := bytes.Repeat([]byte("v"), valSize)
	if err := c.Put(ctx, "bench", val); err != nil {
		return st, err
	}
	n := 2 * o.Queries
	st.getAllocs, st.getKops, st.p99, err = measureOp(n, func(int) error {
		_, err := c.Get(ctx, "bench")
		return err
	})
	if err != nil {
		return st, err
	}
	st.putAllocs, _, _, err = measureOp(n, func(int) error {
		return c.Put(ctx, "bench", val)
	})
	if err != nil {
		return st, err
	}

	st.loadRate, err = measureLoad(o, valSize)
	return st, err
}

// measureOp runs op n times per rep, three reps, and reports the minimum
// allocations per op across reps plus the throughput and p99 latency of
// the fastest rep. Allocations come from runtime.MemStats Mallocs deltas,
// which count the whole in-process round trip — client encode/decode,
// server service, and both ends' connection goroutines — so the number is
// an honest end-to-end cost, not just the client codec. The minimum
// across reps sheds warmup effects (pool fills, map growth) without
// averaging away the steady state.
func measureOp(n int, op func(int) error) (allocsPerOp, kops, p99us float64, err error) {
	for i := 0; i < n/10+1; i++ {
		if err := op(i); err != nil {
			return 0, 0, 0, err
		}
	}
	lat := make([]time.Duration, n)
	allocsPerOp = math.MaxFloat64
	best := time.Duration(math.MaxInt64)
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			if err := op(i); err != nil {
				return 0, 0, 0, err
			}
			lat[i] = time.Since(s)
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if a := float64(ms1.Mallocs-ms0.Mallocs) / float64(n); a < allocsPerOp {
			allocsPerOp = a
		}
		if elapsed < best {
			best = elapsed
			sorted := append([]time.Duration(nil), lat...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			p99us = float64(sorted[min(n-1, n*99/100)].Microseconds())
		}
	}
	kops = float64(n) / best.Seconds() / 1000
	return allocsPerOp, kops, p99us, nil
}

// measureLoad times a batched bulk load through the DHT batch plane:
// records ship as PutBatch rounds of 64 raw []byte values, several
// rounds in flight across a 3-node cluster, best of two runs, in
// krecords/sec. Raw values travel tag-prefixed with zero serialization
// work, and the in-flight rounds to one node share its pipelined
// connections.
func measureLoad(o Options, valSize int) (float64, error) {
	nrec := 8 * o.Queries
	val := bytes.Repeat([]byte("v"), valSize)
	kvs := make([]dht.KV, nrec)
	for i := range kvs {
		kvs[i] = dht.KV{Key: fmt.Sprintf("load/%06d", i), Val: val}
	}
	var best float64
	for rep := 0; rep < 2; rep++ {
		rate, err := loadOnce(kvs)
		if err != nil {
			return 0, err
		}
		if rate > best {
			best = rate
		}
	}
	return best, nil
}

// loadOnce runs one timed load: loadWorkers goroutines strip-mine the
// records in rounds of loadBatch keys each.
func loadOnce(kvs []dht.KV) (float64, error) {
	const (
		loadBatch   = 64
		loadWorkers = 4
	)
	cl, err := startWireCluster(3, nil, nil)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: cl.addrs})
	if err != nil {
		return 0, err
	}
	defer func() { _ = c.Close() }()

	ctx := context.Background()
	var chunks [][]dht.KV
	for len(kvs) > 0 {
		n := min(loadBatch, len(kvs))
		chunks = append(chunks, kvs[:n])
		kvs = kvs[n:]
	}
	t0 := time.Now()
	errs := make(chan error, loadWorkers)
	for w := 0; w < loadWorkers; w++ {
		go func(w int) {
			for i := w; i < len(chunks); i += loadWorkers {
				for _, err := range c.PutBatch(ctx, chunks[i]) {
					if err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	var firstErr error
	total := 0
	for w := 0; w < loadWorkers; w++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	for _, ch := range chunks {
		total += len(ch)
	}
	return float64(total) / time.Since(t0).Seconds() / 1000, nil
}

// Sweep dimensions: batched-operation cap, record payload size, leaf
// cache capacity, and query-arrival skew.
var (
	sweepBatchSizes = []int{1, 8, 64, 256}
	sweepValueSizes = []int{16, 64, 256, 1024}
	sweepSubstrates = []string{"local", "tcpnet"}
	// sweepCacheSizes caps the leaf cache well below the default 4096 so
	// eviction is visible at bench scale: a 2-bucket cache thrashes under
	// uniform queries, a 128-bucket one holds the whole working set.
	sweepCacheSizes = []int{2, 8, 32, 128}
	// sweepSkews are Zipf exponents for the query arrival process (0 =
	// uniform; the Zipf source needs s > 1): skew concentrates queries on
	// hot keys, which a capacity-bounded cache absorbs.
	sweepSkews = []float64{0, 1.01, 1.2, 1.5}
)

// sweepValueBase is the payload size held fixed while the batch-size
// dimension sweeps (and vice versa: sweepBatchBase while value size
// sweeps).
const (
	sweepValueBase = 64
	sweepBatchBase = 64
)

// RunSweep is the wire-protocol parameter sweep: one deterministic index
// workload — a batched bulk load of size records followed by exact-match
// searches and range sweeps — run across substrate {instrumented local
// map, tcpnet} × batch size × leaf-cache setting × value size.
//
// It emits five results. The first carries the deterministic cost rows
// results/counted-costs.csv pins: round trips for the whole workload, per
// batch size, cache on and off. Round trips are counted client-side (Lookups -
// BatchedKeys + BatchOps), so they are identical across substrates and
// value sizes by construction — the run fails if any cell diverges,
// which pins the wire protocol to the cost model. The second and third
// report each substrate's measured throughput against batch size and
// value size. The fourth and fifth sweep the client cache itself —
// leaf-cache capacity under uniform queries, and query-arrival skew
// (Zipf s) with the cache off and on — both deterministic round-trip
// rows over the local substrate, pinned the same way. The throughput
// results are measured.
func RunSweep(o Options, size int) ([]Result, error) {
	o = o.WithDefaults()
	rt := Result{
		Name:   "Sweep",
		Title:  fmt.Sprintf("Wire sweep: round trips per workload (%d records + %d queries)", size, o.Queries),
		XLabel: "batch size (keys)",
		YLabel: "round trips",
	}
	tpBatch := Result{
		Name:     "Sweepb",
		Title:    "Wire sweep: throughput vs batch size (cache off, 64 B values)",
		XLabel:   "batch size (keys)",
		YLabel:   "kops/sec",
		Measured: true,
	}
	tpValue := Result{
		Name:     "Sweepc",
		Title:    "Wire sweep: throughput vs value size (cache off, batch 64)",
		XLabel:   "value size (bytes)",
		YLabel:   "kops/sec",
		Measured: true,
	}

	// Batch-size dimension: substrate x batch x cache at the base value
	// size.
	rtRows := map[bool][]float64{}
	tpRows := map[string][]float64{}
	var rtBatchBase float64 // cache-off round trips at the base batch size
	for _, b := range sweepBatchSizes {
		for _, cache := range []bool{false, true} {
			var want float64
			for i, sub := range sweepSubstrates {
				cell, err := runSweepCell(o, sub, b, sweepValueBase, cache, 0, 0, size)
				if err != nil {
					return nil, fmt.Errorf("bench: sweep %s b=%d cache=%t: %w", sub, b, cache, err)
				}
				if i == 0 {
					want = cell.roundTrips
				} else if cell.roundTrips != want {
					return nil, fmt.Errorf(
						"bench: sweep round trips diverge at b=%d cache=%t: %s charges %g, %s charges %g",
						b, cache, sweepSubstrates[0], want, sub, cell.roundTrips)
				}
				if !cache {
					tpRows[sub] = append(tpRows[sub], cell.kops)
				}
			}
			rtRows[cache] = append(rtRows[cache], want)
			if !cache && b == sweepBatchBase {
				rtBatchBase = want
			}
		}
	}

	// Value-size dimension: substrate x value at the base batch size.
	// Round trips must not move with the payload.
	tp2Rows := map[string][]float64{}
	for _, vs := range sweepValueSizes {
		for _, sub := range sweepSubstrates {
			cell, err := runSweepCell(o, sub, sweepBatchBase, vs, false, 0, 0, size)
			if err != nil {
				return nil, fmt.Errorf("bench: sweep %s v=%d: %w", sub, vs, err)
			}
			if cell.roundTrips != rtBatchBase {
				return nil, fmt.Errorf(
					"bench: sweep round trips moved with value size at %s v=%d: %g vs %g",
					sub, vs, cell.roundTrips, rtBatchBase)
			}
			tp2Rows[sub] = append(tp2Rows[sub], cell.kops)
		}
	}

	bxs := float64s(sweepBatchSizes)
	rt.Series = append(rt.Series,
		meanSeries("cache off", bxs, [][]float64{rtRows[false]}),
		meanSeries("cache on", bxs, [][]float64{rtRows[true]}))
	for _, sub := range sweepSubstrates {
		tpBatch.Series = append(tpBatch.Series, meanSeries(sub, bxs, [][]float64{tpRows[sub]}))
		tpValue.Series = append(tpValue.Series, meanSeries(sub, float64s(sweepValueSizes), [][]float64{tp2Rows[sub]}))
	}

	// Cache-capacity dimension: the leaf cache capped at a few buckets up
	// to the whole working set, uniform queries, local substrate. The
	// deterministic round-trip rows pin the eviction policy: a bigger
	// cache never costs more.
	cacheRt := Result{
		Name:   "Sweepd",
		Title:  fmt.Sprintf("Cache sweep: round trips vs leaf-cache capacity (%d records + %d queries)", size, o.Queries),
		XLabel: "leaf cache capacity (buckets)",
		YLabel: "round trips",
	}
	var capRows []float64
	for _, cap := range sweepCacheSizes {
		cell, err := runSweepCell(o, "local", sweepBatchBase, sweepValueBase, true, cap, 0, size)
		if err != nil {
			return nil, fmt.Errorf("bench: cache sweep cap=%d: %w", cap, err)
		}
		capRows = append(capRows, cell.roundTrips)
	}
	cacheRt.Series = append(cacheRt.Series,
		meanSeries("cache on", float64s(sweepCacheSizes), [][]float64{capRows}))

	// Skew dimension: the query arrival process from uniform to heavily
	// Zipfian, cache off and on, local substrate. Off, every query costs
	// the same wherever it lands; on, skew concentrates arrivals on leaves
	// a small cache can hold, so the gap between the rows is the cache's
	// skew win — deterministic, pinned.
	skewRt := Result{
		Name:   "Sweepe",
		Title:  fmt.Sprintf("Skew sweep: round trips vs query skew (%d records + %d queries)", size, o.Queries),
		XLabel: "query skew (Zipf s, 0 = uniform)",
		YLabel: "round trips",
	}
	skewRows := map[bool][]float64{}
	for _, s := range sweepSkews {
		for _, cache := range []bool{false, true} {
			cell, err := runSweepCell(o, "local", sweepBatchBase, sweepValueBase, cache, 0, s, size)
			if err != nil {
				return nil, fmt.Errorf("bench: skew sweep s=%g cache=%t: %w", s, cache, err)
			}
			skewRows[cache] = append(skewRows[cache], cell.roundTrips)
		}
	}
	skewRt.Series = append(skewRt.Series,
		meanSeries("cache off", sweepSkews, [][]float64{skewRows[false]}),
		meanSeries("cache on", sweepSkews, [][]float64{skewRows[true]}))

	return []Result{rt, tpBatch, tpValue, cacheRt, skewRt}, nil
}

// sweepCell is one parameter combination's measurement.
type sweepCell struct {
	roundTrips float64
	kops       float64
}

// runSweepCell builds the substrate, runs the sweep workload through a
// fresh index, and reports the client-observed round trips plus wall
// throughput. cacheCap bounds the leaf cache (0 = the default capacity)
// and skew shapes the query arrival process (0 = uniform, s > 1 Zipf).
func runSweepCell(o Options, substrate string, batch, valSize int, cache bool, cacheCap int, skew float64, size int) (sweepCell, error) {
	var d dht.DHT
	switch substrate {
	case "local":
		d = dht.NewLocal()
	case "tcpnet":
		cl, err := startWireCluster(3, nil, nil)
		if err != nil {
			return sweepCell{}, err
		}
		defer cl.close()
		c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: cl.addrs})
		if err != nil {
			return sweepCell{}, err
		}
		defer func() { _ = c.Close() }()
		d = c
	default:
		return sweepCell{}, fmt.Errorf("unknown substrate %q", substrate)
	}

	gen := workload.NewGenerator(workload.Uniform, o.Seed)
	recs := gen.Records(size)
	val := bytes.Repeat([]byte("v"), valSize)
	for i := range recs {
		recs[i].Value = val
	}
	ix, err := lht.New(d, lht.Config{
		SplitThreshold: o.Theta,
		MergeThreshold: o.Theta / 2,
		Depth:          o.Depth,
		BatchSize:      batch,
		LeafCache:      cache,
		LeafCacheSize:  cacheCap,
		Aggregate:      o.Agg,
	})
	if err != nil {
		return sweepCell{}, err
	}

	t0 := time.Now()
	if _, err := ix.BulkLoad(recs); err != nil {
		return sweepCell{}, err
	}
	next := func() float64 { return 0 }
	rng := rand.New(rand.NewSource(o.Seed + 101))
	if skew > 0 {
		keys := make([]float64, len(recs))
		for i, r := range recs {
			keys[i] = r.Key
		}
		arr, err := workload.NewArrivals(keys, skew, o.Seed+101)
		if err != nil {
			return sweepCell{}, err
		}
		next = arr.Next
	} else {
		next = func() float64 { return recs[rng.Intn(len(recs))].Key }
	}
	for q := 0; q < o.Queries; q++ {
		if _, _, err := ix.Search(next()); err != nil {
			return sweepCell{}, err
		}
	}
	for q := 0; q < 20; q++ {
		lo := rng.Float64() * 0.95
		if _, _, err := ix.Range(lo, lo+0.05); err != nil {
			return sweepCell{}, err
		}
	}
	elapsed := time.Since(t0)

	ops := size + o.Queries + 20
	return sweepCell{
		roundTrips: float64(ix.Metrics().RoundTrips()),
		kops:       float64(ops) / elapsed.Seconds() / 1000,
	}, nil
}
