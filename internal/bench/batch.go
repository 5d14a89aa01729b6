package bench

import (
	"bytes"
	"fmt"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/workload"
)

// RunBatchAblation is ablation A6: substrate round trips with and without
// the batched operation plane. Both arms run the identical workload — a
// bulk load followed by range queries — on the same substrate; the
// "per-op" arm strips the native batch support with dht.WithoutBatch, so
// every routed key costs its own round trip. Lookups (the paper's
// bandwidth measure) are identical by construction — the run fails if the
// two arms diverge in lookups or produce different trees — so the gap
// between the curves is pure round-trip saving: Lookups - BatchedKeys +
// BatchOps versus Lookups.
//
// The companion result reports round trips per range query during the
// query phase, where the sweep's per-round multi-gets do the batching.
func RunBatchAblation(o Options, dist workload.Dist, sizes []int) (Result, Result, error) {
	o = o.WithDefaults()
	load := Result{
		Name:   "A6",
		Title:  "Bulk-load round trips: batched vs per-op",
		XLabel: "data size",
		YLabel: "round trips",
	}
	query := Result{
		Name:   "A6b",
		Title:  fmt.Sprintf("Range-query round trips (span %.2g): batched vs per-op", 0.1),
		XLabel: "data size",
		YLabel: "round trips per query",
	}

	xs := make([]float64, len(sizes))
	for i, s := range sizes {
		xs[i] = float64(s)
	}

	variants := []struct {
		name  string
		strip bool
	}{
		{"batched", false},
		{"per-op", true},
	}

	loadYs := make([][][]float64, len(variants)) // [variant][trial][size]
	queryYs := make([][][]float64, len(variants))
	for vi := range variants {
		loadYs[vi] = make([][]float64, o.Trials)
		queryYs[vi] = make([][]float64, o.Trials)
	}

	for t := 0; t < o.Trials; t++ {
		for vi := range variants {
			loadYs[vi][t] = make([]float64, 0, len(sizes))
			queryYs[vi][t] = make([]float64, 0, len(sizes))
		}
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		for _, size := range sizes {
			recs := gen.Records(size)
			var (
				trees   [][]byte
				lookups []int64
			)
			for vi, variant := range variants {
				var d dht.DHT = dht.NewLocal()
				if variant.strip {
					d = dht.WithoutBatch(d)
				}
				ix, err := lht.New(d, lht.Config{SplitThreshold: o.Theta, Depth: o.Depth, Aggregate: o.Agg})
				if err != nil {
					return load, query, err
				}
				if _, err := ix.BulkLoad(recs); err != nil {
					return load, query, fmt.Errorf("bench: bulk load (%s): %w", variant.name, err)
				}
				loaded := ix.Metrics()
				loadYs[vi][t] = append(loadYs[vi][t], float64(loaded.RoundTrips()))

				// A fresh, identically seeded generator per arm: both arms
				// must issue the exact same queries.
				qgen := workload.NewGenerator(dist, o.Seed+int64(t)+500)
				for q := 0; q < o.Queries; q++ {
					lo, hi := qgen.RangeQuery(0.1)
					if _, _, err := ix.Range(lo, hi); err != nil {
						return load, query, fmt.Errorf("bench: range (%s): %w", variant.name, err)
					}
				}
				delta := ix.Metrics().Sub(loaded)
				queryYs[vi][t] = append(queryYs[vi][t], float64(delta.RoundTrips())/float64(o.Queries))

				// Oracle check: both arms must agree on bandwidth and tree
				// bytes, leaf after leaf as EncodeBucket writes them —
				// batching may only change round trips.
				leaves, err := ix.Leaves()
				if err != nil {
					return load, query, err
				}
				var tree []byte
				for _, b := range leaves {
					tree = b.AppendWire(tree)
				}
				trees = append(trees, tree)
				lookups = append(lookups, loaded.Lookup.Total+delta.Lookup.Total)
			}
			if !bytes.Equal(trees[0], trees[1]) {
				return load, query, fmt.Errorf("bench: batched and per-op trees diverge at size %d", size)
			}
			if lookups[0] != lookups[1] {
				return load, query, fmt.Errorf("bench: lookup counts diverge at size %d: %d vs %d",
					size, lookups[0], lookups[1])
			}
		}
	}

	for vi, variant := range variants {
		load.Series = append(load.Series, meanSeries("LHT "+variant.name, xs, loadYs[vi]))
		query.Series = append(query.Series, meanSeries("LHT "+variant.name, xs, queryYs[vi]))
	}
	return load, query, nil
}
