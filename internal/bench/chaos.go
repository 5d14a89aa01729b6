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
	"lht/internal/hashring"
	"lht/internal/lht"
	"lht/internal/netchaos"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

// Ablation A11: hedged reads under scripted network chaos, end to end
// over real sockets. Each cell boots a fresh 4-node cluster, loads
// the tree, then injects one fault scenario through the netchaos dialer
// while concurrent clients run the identical query schedule:
//
//   - partition: the return path from one storage node is black-holed
//     (requests arrive, responses vanish) — an asymmetric partition of
//     the node that is primary, where reads start, for the most leaves
//     the query schedule reads (chaosTarget);
//   - slow: one node answers at 10x the scenario latency quantum — alive
//     and correct, just late, the failure mode no failure memory can see;
//   - flap: one peer refuses dials and severs connections on a 50% duty
//     cycle — up, gone, up again, on a deterministic clock.
//
// The hedging-on arm races a duplicate read against any read slower than
// the hedge delay, over 3 replicas; the hedging-off arm runs the identical
// cluster, replication, and schedule without it. Both arms keep what
// every client has: holder failover under a per-holder share of the
// deadline (stepCtx) and the redial gate. Queries carry a fixed per-op
// deadline, so a black-holed holder costs the off arm its failover
// budget, never the whole run.
//
// Two results: A11, the measured success rate and latency tail per
// scenario (machine-speed dependent), and A11b, the hedging-off workload
// replayed serially over the instrumented local substrate — deterministic
// round trips results/counted-costs.csv pins, holding that neither
// the chaos plane nor hedging leaks into the logical cost model when
// switched off.
const (
	// chaosWorkers concurrent clients share the index handle, so a
	// stalled link stalls some queries while others proceed — the
	// hedger's job is to keep the stall from defining p99.
	chaosWorkers = 8
	// chaosOpDeadline is every query's end-to-end budget, both arms. It
	// is generous on purpose: the off arm's tail is the per-holder
	// failover share of it (deadline/3), so a bigger budget makes the
	// off arm *slower*, not better, while giving the on arm's ~6ms
	// hedged queries headroom against scheduler noise on a loaded
	// machine — success rates must measure the network, not the CPU.
	chaosOpDeadline = 2 * time.Second
	// chaosSlowLatency is the slow scenario's per-write delay: 10x a
	// 4ms latency quantum, far above any healthy loopback round trip.
	chaosSlowLatency = 40 * time.Millisecond
	// chaosHedgeAfter is the hedging-on arm's hedge floor: well above a
	// healthy read, well below every injected fault.
	chaosHedgeAfter = 5 * time.Millisecond
	// chaosFlapPeriod/chaosFlapDuty flap the peer: 80ms up, 80ms down.
	chaosFlapPeriod = 160 * time.Millisecond
	chaosFlapDuty   = 0.5
)

// chaosScenarios are the scripted fault schedules, applied to one target
// node; the rules are pure data, so the same seed replays the same run.
var chaosScenarios = []struct {
	name string
	rule func(target string) netchaos.Rule
}{
	{"partition", func(target string) netchaos.Rule {
		return netchaos.Rule{Addr: target, Effect: netchaos.Effect{DropReads: true}}
	}},
	{"slow", func(target string) netchaos.Rule {
		return netchaos.Rule{Addr: target, Effect: netchaos.Effect{Latency: chaosSlowLatency}}
	}},
	{"flap", func(target string) netchaos.Rule {
		return netchaos.Rule{Addr: target, Period: chaosFlapPeriod, Duty: chaosFlapDuty,
			Effect: netchaos.Effect{RefuseDial: true, DropConns: true}}
	}},
}

// RunChaosAblation is ablation A11; see the package comment above.
func RunChaosAblation(o Options, size int) (Result, Result, error) {
	o = o.WithDefaults()
	lat := Result{
		Name: "A11",
		Title: fmt.Sprintf("Hedged reads under network chaos (%d records, %d clients, %v deadline)",
			size, chaosWorkers, chaosOpDeadline),
		XLabel:   "scenario (0=partition, 1=slow, 2=flap)",
		YLabel:   "success % / latency microseconds (p50/p99)",
		Measured: true,
	}
	rt := Result{
		Name:   "A11b",
		Title:  fmt.Sprintf("Chaos query cost, plane off (%d records + %d queries, serialized)", size, o.Queries),
		XLabel: "scenario (0=partition, 1=slow, 2=flap)",
		YLabel: "round trips",
	}
	xs := make([]float64, len(chaosScenarios))
	for i := range xs {
		xs[i] = float64(i)
	}

	for _, arm := range []struct {
		name  string
		hedge bool
	}{{"hedging off", false}, {"hedging on", true}} {
		var succ, p50s, p99s []float64
		for sc := range chaosScenarios {
			cell, err := measureChaosCell(o, size, sc, arm.hedge)
			if err != nil {
				return lat, rt, fmt.Errorf("bench: chaos ablation %s %s: %w", arm.name, chaosScenarios[sc].name, err)
			}
			succ = append(succ, cell.success)
			p50s = append(p50s, cell.p50)
			p99s = append(p99s, cell.p99)
		}
		lat.Series = append(lat.Series,
			meanSeries(arm.name+" success %", xs, [][]float64{succ}),
			meanSeries(arm.name+" query p50", xs, [][]float64{p50s}),
			meanSeries(arm.name+" query p99", xs, [][]float64{p99s}))
	}

	// The pinned rows: each scenario's schedule replayed serially over the
	// instrumented local map with hedging off, cache off and on. Round
	// trips are a pure function of (seed, theta, depth, size, queries) —
	// drift means the chaos plane or hedging leaked into the default
	// lookup path.
	for _, cache := range []bool{false, true} {
		var rts []float64
		for sc := range chaosScenarios {
			n, err := chaosCostCell(o, size, sc, cache)
			if err != nil {
				return lat, rt, fmt.Errorf("bench: chaos cost cell %s cache=%t: %w", chaosScenarios[sc].name, cache, err)
			}
			rts = append(rts, n)
		}
		name := "cache off"
		if cache {
			name = "cache on"
		}
		rt.Series = append(rt.Series, meanSeries(name, xs, [][]float64{rts}))
	}
	return lat, rt, nil
}

// chaosCell is one (scenario, arm) combination's measured outcome.
type chaosCell struct {
	success  float64 // fraction of queries that answered in deadline, percent
	p50, p99 float64 // query latency percentiles, microseconds (all queries)
}

// chaosSchedule draws one rep's query keys: identical for both arms.
func chaosSchedule(o Options, keys []float64, scenario, rep int) []float64 {
	rng := rand.New(rand.NewSource(o.Seed + 17 + int64(scenario)*101 + int64(rep)))
	qs := make([]float64, 4*o.Queries)
	for i := range qs {
		qs[i] = keys[rng.Intn(len(keys))]
	}
	return qs
}

// measureChaosCell boots a 4-node cluster, loads the tree through the
// chaos dialer (healthy until Start), then injects the scenario and
// times the concurrent query phase, hedging reads when hedge is set.
func measureChaosCell(o Options, size, scenario int, hedge bool) (chaosCell, error) {
	var cell chaosCell
	cl, err := startWireCluster(4, nil, nil)
	if err != nil {
		return cell, err
	}
	defer cl.close()

	chaos := netchaos.New(o.Seed + int64(scenario))
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: cl.addrs, Dialer: chaos, Replicas: 3, Counters: o.Agg})
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
	if hedge {
		cfg.HedgeAfter = chaosHedgeAfter
	}
	ix, err := lht.New(c, cfg)
	if err != nil {
		return cell, err
	}

	recs := workload.NewGenerator(workload.Uniform, o.Seed).Records(size)
	keys := make([]float64, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if _, err := ix.BulkLoad(recs); err != nil {
		return cell, fmt.Errorf("build: %w", err)
	}
	// Warm the leaf cache over every key (so no measured query pays a
	// multi-probe binary search whose probes could each draw the faulty
	// holder) and fill the hedger's latency window with healthy samples
	// before any fault exists. The leaves found name the fault's target.
	leaf := make(map[float64]string, len(keys))
	for _, k := range keys {
		b, _, err := ix.LookupBucket(k)
		if err != nil {
			return cell, fmt.Errorf("warmup lookup: %w", err)
		}
		leaf[k] = b.Label.Name().Key()
	}
	schedules := make([][]float64, o.Trials)
	for rep := range schedules {
		schedules[rep] = chaosSchedule(o, keys, scenario, rep)
	}
	chaos.Add(chaosScenarios[scenario].rule(chaosTarget(c.NodeAddrs(), leaf, schedules)))
	chaos.Start()

	var ok, total atomic.Int64
	var lats []time.Duration
	for _, qs := range schedules {
		lats = append(lats, runChaosPhase(ix, qs, &ok, &total)...)
	}
	cell.success = 100 * float64(ok.Load()) / float64(total.Load())
	cell.p50, cell.p99 = pctileUS(lats, 0.50), pctileUS(lats, 0.99)
	return cell, nil
}

// chaosTarget is the node a scenario faults: the one that is primary,
// by the client's ring rule over addrs (in ring order), for the most leaf
// reads in schedules, whose keys leaf maps to their leaves' names. Reads
// start at the primary, and ring ownership follows the cluster's random
// loopback ports, so a node picked blind can be primary for none of the
// schedule's leaves, and the hedging-off arm would never meet the fault.
func chaosTarget(addrs []string, leaf map[float64]string, schedules [][]float64) string {
	reads := make(map[string]int, len(addrs))
	for _, qs := range schedules {
		for _, k := range qs {
			h := hashring.HashKey(leaf[k])
			i := sort.Search(len(addrs), func(i int) bool { return hashring.HashAddr(addrs[i]) >= h })
			reads[addrs[i%len(addrs)]]++
		}
	}
	target := addrs[0]
	for _, a := range addrs {
		if reads[a] > reads[target] {
			target = a
		}
	}
	return target
}

// runChaosPhase strip-mines the schedule across chaosWorkers goroutines.
// A query that errors (deadline spent, every holder down) counts against
// the success rate with its full elapsed time in the latency pool.
func runChaosPhase(ix *lht.Index, qs []float64, ok, total *atomic.Int64) []time.Duration {
	var next atomic.Int64
	wLats := make([][]time.Duration, chaosWorkers)
	var wg sync.WaitGroup
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), chaosOpDeadline)
				t0 := time.Now()
				_, _, err := ix.SearchContext(ctx, qs[i])
				d := time.Since(t0)
				cancel()
				total.Add(1)
				if err == nil {
					ok.Add(1)
				}
				wLats[w] = append(wLats[w], d)
			}
		}(w)
	}
	wg.Wait()
	var lats []time.Duration
	for w := 0; w < chaosWorkers; w++ {
		lats = append(lats, wLats[w]...)
	}
	return lats
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

// chaosCostCell replays one scenario's schedule (build + queries,
// sequential, no chaos — the logical workload is identical with or
// without the physical planes) over the instrumented local substrate and
// returns the client-charged round trips.
func chaosCostCell(o Options, size, scenario int, cache bool) (float64, error) {
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
	for _, k := range chaosSchedule(o, keys, scenario, 0)[:o.Queries] {
		if _, _, err := ix.Search(k); err != nil {
			return 0, err
		}
	}
	return float64(ix.Metrics().RoundTrips()), nil
}
