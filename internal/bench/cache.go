package bench

import (
	"fmt"
	"math/rand"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/metrics"
	"lht/internal/record"
	"lht/internal/workload"
)

// cacheOp is one pre-generated operation of the cache-ablation workload,
// replayed identically against the cached and the uncached index so the
// two measurements see byte-identical query streams.
type cacheOp struct {
	read   bool
	insert bool
	key    float64
}

// mixedOps generates a 95/5 read/write stream over an evolving live-key
// set: reads target live keys, writes alternate between inserting a
// fresh key and deleting a live one, so the tree keeps splitting and
// merging under the cache while the population stays roughly constant.
func mixedOps(rng *rand.Rand, gen *workload.Generator, live []float64, n int) []cacheOp {
	live = append([]float64(nil), live...)
	ops := make([]cacheOp, 0, n)
	ins := true
	for len(ops) < n {
		if rng.Intn(100) < 95 {
			ops = append(ops, cacheOp{read: true, key: live[rng.Intn(len(live))]})
			continue
		}
		if ins {
			k := gen.Key()
			ops = append(ops, cacheOp{insert: true, key: k})
			live = append(live, k)
		} else {
			j := rng.Intn(len(live))
			ops = append(ops, cacheOp{key: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		ins = !ins
	}
	return ops
}

// replayCacheWorkload grows a fresh index record by record (the
// long-lived-client regime, which also populates the leaf cache the way
// real operation would) and replays ops, returning the mean DHT-lookups
// per exact-match query and the final counter snapshot. Cache counters
// are reset after the build so the hit rate reflects the measured
// queries only.
func replayCacheWorkload(o Options, data []record.Record, ops []cacheOp, cached bool) (float64, metrics.Snapshot, error) {
	cfg := lht.Config{SplitThreshold: o.Theta, MergeThreshold: o.Theta / 2, Depth: o.Depth, LeafCache: cached, Aggregate: o.Agg}
	ix, err := lht.New(dht.NewLocal(), cfg)
	if err != nil {
		return 0, metrics.Snapshot{}, err
	}
	for _, r := range data {
		if _, err := ix.Insert(r); err != nil {
			return 0, metrics.Snapshot{}, err
		}
	}
	build := ix.Metrics()
	var readLookups, reads int
	for _, op := range ops {
		switch {
		case op.read:
			_, cost, err := ix.Search(op.key)
			if err != nil {
				return 0, metrics.Snapshot{}, fmt.Errorf("bench: cache search %v: %w", op.key, err)
			}
			readLookups += cost.Lookups
			reads++
		case op.insert:
			if _, err := ix.Insert(record.Record{Key: op.key}); err != nil {
				return 0, metrics.Snapshot{}, err
			}
		default:
			if _, err := ix.Delete(op.key); err != nil {
				return 0, metrics.Snapshot{}, fmt.Errorf("bench: cache delete %v: %w", op.key, err)
			}
		}
	}
	return float64(readLookups) / float64(reads), ix.Metrics().Sub(build), nil
}

// freshKeyCost measures what a cache miss costs once the cache is warm:
// a second, cached client on a substrate holding data first reads
// len(data)/theta random data keys (about half the leaves), then keeps
// reading random keys, and only the reads that miss its cache — the
// first touch of a leaf it has not seen — are counted, until o.Queries
// of them or 10·o.Queries reads. The same keys through an uncached
// client are the control: Algorithm 2's search from D/2, which is also
// what a miss cost before the cache bracketed it.
func freshKeyCost(o Options, data []record.Record, rng *rand.Rand) (bracketed, unbracketed float64, err error) {
	d := dht.NewLocal()
	cfg := lht.Config{SplitThreshold: o.Theta, MergeThreshold: o.Theta / 2, Depth: o.Depth, Aggregate: o.Agg}
	plain, err := lht.New(d, cfg)
	if err != nil {
		return 0, 0, err
	}
	if _, err := plain.BulkLoad(data); err != nil {
		return 0, 0, err
	}
	cfg.LeafCache = true
	ix, err := lht.New(d, cfg)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < len(data)/o.Theta; i++ {
		if _, _, err := ix.Search(data[rng.Intn(len(data))].Key); err != nil {
			return 0, 0, err
		}
	}
	var fresh, cLookups, uLookups int
	for i := 0; i < 10*o.Queries && fresh < o.Queries; i++ {
		k := data[rng.Intn(len(data))].Key
		misses := ix.Metrics().Cache.Misses
		_, cost, err := ix.Search(k)
		if err != nil {
			return 0, 0, err
		}
		if ix.Metrics().Cache.Misses == misses {
			continue
		}
		_, ucost, err := plain.Search(k)
		if err != nil {
			return 0, 0, err
		}
		fresh++
		cLookups += cost.Lookups
		uLookups += ucost.Lookups
	}
	if fresh == 0 {
		return 0, 0, fmt.Errorf("bench: no cache miss in %d reads of %d records", 10*o.Queries, len(data))
	}
	return float64(cLookups) / float64(fresh), float64(uLookups) / float64(fresh), nil
}

// RunCacheAblation measures what the client-side leaf cache buys on the
// dominant operation: mean DHT-lookups per exact-match query under a
// read-heavy churn workload (95/5 read/write, inserts and deletes
// forcing splits and merges behind live cache entries), cache on vs
// off, across data sizes. Expected shape: the uncached curve follows
// Algorithm 2's ~log2(D) probes, the cached curve sits near 1 (every
// repeat into a known leaf is a single direct get), and the hit-rate
// series shows how quickly the bounded LRU covers the working set. The
// fresh-key series (see freshKeyCost) isolate the misses: a first touch
// bracketed by the cached neighbours costs about one lookup, the same
// keys unbracketed cost Algorithm 2's binary search.
func RunCacheAblation(o Options, dist workload.Dist, sizes []int) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name: "Ablation A4",
		Title: fmt.Sprintf("Client leaf cache under churn (%s data, theta=%d, D=%d, 95/5 read/write)",
			dist, o.Theta, o.Depth),
		XLabel: "data size (records)",
		YLabel: "DHT-lookups per exact-match query / hit rate",
	}
	cachedYs := make([][]float64, o.Trials)
	uncachedYs := make([][]float64, o.Trials)
	hitYs := make([][]float64, o.Trials)
	freshYs := make([][]float64, o.Trials)
	coldYs := make([][]float64, o.Trials)
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(sizes[len(sizes)-1])
		rng := rand.New(rand.NewSource(o.Seed + int64(t) + 7919))
		freshRng := rand.New(rand.NewSource(o.Seed + int64(t) + 104729))
		var crow, urow, hrow, frow, colds []float64
		for _, size := range sizes {
			data := recs[:size]
			live := make([]float64, len(data))
			for i, r := range data {
				live[i] = r.Key
			}
			ops := mixedOps(rng, gen, live, 4*o.Queries)
			cMean, cSnap, err := replayCacheWorkload(o, data, ops, true)
			if err != nil {
				return res, err
			}
			uMean, _, err := replayCacheWorkload(o, data, ops, false)
			if err != nil {
				return res, err
			}
			crow = append(crow, cMean)
			urow = append(urow, uMean)
			probes := cSnap.Cache.Hits + cSnap.Cache.Misses + cSnap.Cache.Stale
			hrow = append(hrow, float64(cSnap.Cache.Hits)/float64(probes))
			fMean, coldMean, err := freshKeyCost(o, data, freshRng)
			if err != nil {
				return res, err
			}
			frow = append(frow, fMean)
			colds = append(colds, coldMean)
		}
		cachedYs[t], uncachedYs[t], hitYs[t] = crow, urow, hrow
		freshYs[t], coldYs[t] = frow, colds
	}
	xs := float64s(sizes)
	res.Series = append(res.Series,
		meanSeries("cached lookups/query", xs, cachedYs),
		meanSeries("uncached lookups/query", xs, uncachedYs),
		meanSeries("cache hit rate", xs, hitYs),
		meanSeries("fresh-key lookups/query (warm cache)", xs, freshYs),
		meanSeries("fresh-key lookups/query (no cache)", xs, coldYs))
	return res, nil
}
