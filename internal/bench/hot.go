package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/record"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

// Skew exponents of the hot-leaf ablation: uniform arrivals (the control
// point), the mildest Zipf law math/rand's sampler admits, and the heavy
// skew where one key draws more than a third of all traffic.
var hotSkews = []float64{0, 1.01, 1.5}

const (
	// hotWorkers concurrent clients share one index handle: a real hot
	// leaf is hot because many callers converge on it at once.
	hotWorkers = 64
	// hotUpdatePct of the measured ops are in-place updates of existing
	// keys: they exercise the write path, a patch over one copy and a
	// patch fanned out to both holders over two. Kept low so the tail
	// measures read queueing rather than single-key write contention
	// (which no read path can fix).
	hotUpdatePct = 2
)

// RunHotAblation is ablation A10: replication under Zipfian skew, end to
// end over real sockets. hotWorkers concurrent clients drive
// a query/update mix whose arrival process is Zipf(s) over the record
// keys; because the framed wire answers one connection's requests in
// arrival order, the hot leaf's node is a genuine FIFO queue and the tail
// latency measures real queueing, not a model. The "one copy" arm stores
// every bucket once; the "two copies" arm sets tcpnet.ClusterConfig.
// Replicas to 2, so each read starts at the key's primary and falls back
// to its secondary, and every write fans out to both, on otherwise
// identical clusters.
//
// Two results: the timed p50/p99 per op class (latency, measured), and
// the deterministic round-trip cost of the identical workload replayed
// serially over the instrumented local substrate — results/counted-costs.csv
// pins that row, which holds the lookup path to its cost model under
// every skew.
func RunHotAblation(o Options, size int) (Result, Result, error) {
	o = o.WithDefaults()
	lat := Result{
		Name: "A10",
		Title: fmt.Sprintf("Replication under Zipfian skew (%d records, %d clients, %d%% updates)",
			size, hotWorkers, hotUpdatePct),
		XLabel:   "zipf exponent s",
		YLabel:   "latency microseconds (p50/p99)",
		Measured: true,
	}
	rt := Result{
		Name:   "A10b",
		Title:  fmt.Sprintf("Skewed lookup cost (%d records + %d queries, serialized)", size, o.Queries),
		XLabel: "zipf exponent s",
		YLabel: "round trips",
	}

	arms := []struct {
		name     string
		replicas int
	}{
		{"one copy", 1},
		{"two copies", 2},
	}
	for _, arm := range arms {
		var qp50, qp99, up50, up99 []float64
		for _, s := range hotSkews {
			cell, err := measureHotCell(o, size, s, arm.replicas)
			if err != nil {
				return lat, rt, fmt.Errorf("bench: hot ablation %s s=%v: %w", arm.name, s, err)
			}
			qp50 = append(qp50, cell.qp50)
			qp99 = append(qp99, cell.qp99)
			up50 = append(up50, cell.up50)
			up99 = append(up99, cell.up99)
		}
		lat.Series = append(lat.Series,
			meanSeries(arm.name+" query p50", hotSkews, [][]float64{qp50}),
			meanSeries(arm.name+" query p99", hotSkews, [][]float64{qp99}),
			meanSeries(arm.name+" update p50", hotSkews, [][]float64{up50}),
			meanSeries(arm.name+" update p99", hotSkews, [][]float64{up99}))
	}

	// The pinned rows: serialized, over the instrumented local map, cache
	// off and on. Round trips here are a pure function of (seed, theta,
	// depth, size, queries, skew) — any drift means the lookup path's
	// cost changed.
	for _, cache := range []bool{false, true} {
		var rts []float64
		for _, s := range hotSkews {
			n, err := hotCostCell(o, size, s, cache)
			if err != nil {
				return lat, rt, fmt.Errorf("bench: hot cost cell s=%v cache=%t: %w", s, cache, err)
			}
			rts = append(rts, n)
		}
		name := "cache off"
		if cache {
			name = "cache on"
		}
		rt.Series = append(rt.Series, meanSeries(name, hotSkews, [][]float64{rts}))
	}
	return lat, rt, nil
}

// hotCell is one (arm, skew) combination's measured tail latency.
type hotCell struct {
	qp50, qp99 float64 // Search latency percentiles, microseconds
	up50, up99 float64 // update (epoch-CAS Insert) percentiles
}

// hotOp is one scheduled operation of the measured phase.
type hotOp struct {
	key    float64
	update bool
}

// hotSchedule draws one rep's operation sequence, so every arm replays
// the identical keys in the identical order and the workers only
// strip-mine it.
func hotSchedule(o Options, keys []float64, s float64, n int, rep int64) ([]hotOp, error) {
	arr, err := workload.NewArrivals(keys, s, o.Seed+11+rep)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed + 13 + rep))
	ops := make([]hotOp, n)
	for i := range ops {
		ops[i] = hotOp{key: arr.Next(), update: rng.Intn(100) < hotUpdatePct}
	}
	return ops, nil
}

// measureHotCell boots a 4-node cluster whose client stores each bucket
// on replicas holders, bulk-loads the tree, and times the concurrent
// skewed phase.
func measureHotCell(o Options, size int, s float64, replicas int) (hotCell, error) {
	var cell hotCell
	cl, err := startWireCluster(4, nil, nil)
	if err != nil {
		return cell, err
	}
	defer cl.close()
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: cl.addrs, Replicas: replicas, Counters: o.Agg})
	if err != nil {
		return cell, err
	}
	defer func() { _ = c.Close() }()

	cfg := lht.Config{
		SplitThreshold: o.Theta,
		Depth:          o.Depth,
		LeafCache:      true,
		Aggregate:      o.Agg,
	}
	ix, err := lht.New(c, cfg)
	if err != nil {
		return cell, err
	}

	// Build through the batch plane: with replication on it leaves every
	// leaf on its full holder set before the clock starts.
	recs := workload.NewGenerator(workload.Uniform, o.Seed).Records(size)
	keys := make([]float64, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if _, err := ix.BulkLoad(recs); err != nil {
		return cell, fmt.Errorf("build: %w", err)
	}
	// Warm the leaf cache across the key space, so the measured phase
	// compares steady-state lookups, not cold-cache descents.
	for i := 0; i < len(keys); i += 7 {
		if _, _, err := ix.Search(keys[i]); err != nil {
			return cell, fmt.Errorf("warmup search: %w", err)
		}
	}

	// o.Trials reps of the concurrent phase against the same tree, all
	// samples pooled: the tail events (a burst of CAS retries, a GC
	// pause) are episodic, and one short phase's p99 rides on whether it
	// caught one.
	var qs, us []time.Duration
	for rep := 0; rep < o.Trials; rep++ {
		ops, err := hotSchedule(o, keys, s, 8*o.Queries, int64(rep))
		if err != nil {
			return cell, err
		}
		q, u, err := runHotPhase(ix, ops)
		if err != nil {
			return cell, err
		}
		qs = append(qs, q...)
		us = append(us, u...)
	}
	cell.qp50, cell.qp99 = pctileUS(qs, 0.50), pctileUS(qs, 0.99)
	cell.up50, cell.up99 = pctileUS(us, 0.50), pctileUS(us, 0.99)
	return cell, nil
}

// runHotPhase strip-mines the schedule across hotWorkers goroutines and
// returns the per-class latency samples.
func runHotPhase(ix *lht.Index, ops []hotOp) (qs, us []time.Duration, err error) {
	upd := []byte("hot-update")
	var next atomic.Int64
	qLat := make([][]time.Duration, hotWorkers)
	uLat := make([][]time.Duration, hotWorkers)
	errs := make([]error, hotWorkers)
	var wg sync.WaitGroup
	for w := 0; w < hotWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				op := ops[i]
				var opErr error
				t0 := time.Now()
				if op.update {
					_, opErr = ix.Insert(record.Record{Key: op.key, Value: upd})
				} else {
					_, _, opErr = ix.Search(op.key)
				}
				d := time.Since(t0)
				if opErr != nil {
					errs[w] = opErr
					return
				}
				if op.update {
					uLat[w] = append(uLat[w], d)
				} else {
					qLat[w] = append(qLat[w], d)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for w := 0; w < hotWorkers; w++ {
		qs = append(qs, qLat[w]...)
		us = append(us, uLat[w]...)
	}
	return qs, us, nil
}

// pctileUS returns the p-quantile of the samples in microseconds.
func pctileUS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[int(float64(len(sorted)-1)*p)].Nanoseconds()) / 1000
}

// hotCostCell replays the workload serially over the
// instrumented local substrate and returns the client-charged round
// trips — fully deterministic, so the pinned CSV can hold it exactly.
func hotCostCell(o Options, size int, s float64, cache bool) (float64, error) {
	ix, err := lht.New(dht.NewLocal(), lht.Config{
		SplitThreshold: o.Theta,
		Depth:          o.Depth,
		LeafCache:      cache,
		Aggregate:      o.Agg,
	})
	if err != nil {
		return 0, err
	}
	recs := workload.NewGenerator(workload.Uniform, o.Seed).Records(size)
	keys := make([]float64, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
		if _, err := ix.Insert(r); err != nil {
			return 0, err
		}
	}
	ops, err := hotSchedule(o, keys, s, o.Queries, 0)
	if err != nil {
		return 0, err
	}
	for _, op := range ops {
		if op.update {
			if _, err := ix.Insert(record.Record{Key: op.key, Value: []byte("u")}); err != nil {
				return 0, err
			}
		} else if _, _, err := ix.Search(op.key); err != nil {
			return 0, err
		}
	}
	return float64(ix.Metrics().RoundTrips()), nil
}
