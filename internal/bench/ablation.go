package bench

import (
	"fmt"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/record"
	"lht/internal/workload"
)

// The drivers in this file are ablations of LHT design choices that
// DESIGN.md calls out: they do not reproduce paper figures but quantify
// why the design is the way it is.

// RunLookupAblation compares Algorithm 2's binary search over candidate
// names against a naive top-down linear walk of the same name sequence,
// across data sizes. Expected shape: the linear walk's cost grows with
// tree depth (about half the leaf depth), while the binary search stays
// near log2(D/2) - the gap is what the paper's lookup algorithm buys.
func RunLookupAblation(o Options, dist workload.Dist, sizes []int) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Ablation A1",
		Title:  fmt.Sprintf("Lookup strategy: binary search vs linear descent (%s data, D=%d)", dist, o.Depth),
		XLabel: "data size (records)",
		YLabel: "DHT-lookups per lookup",
	}
	maxSize := sizes[len(sizes)-1]
	binYs := make([][]float64, o.Trials)
	linYs := make([][]float64, o.Trials)
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(maxSize)
		queries := gen.LookupKeys(o.Queries)
		ix, err := o.newLHT(o.Theta, o.Depth)
		if err != nil {
			return res, err
		}
		var brow, lrow []float64
		err = grow(recs, sizes,
			func(r record.Record) error { _, e := ix.Insert(r); return e },
			func(int) {
				var btot, ltot int
				for _, q := range queries {
					_, bc, err2 := ix.LookupBucket(q)
					if err2 != nil {
						err = err2
						return
					}
					_, lc, err2 := ix.LookupBucketLinear(q)
					if err2 != nil {
						err = err2
						return
					}
					btot += bc.Lookups
					ltot += lc.Lookups
				}
				brow = append(brow, float64(btot)/float64(len(queries)))
				lrow = append(lrow, float64(ltot)/float64(len(queries)))
			})
		if err != nil {
			return res, err
		}
		binYs[t], linYs[t] = brow, lrow
	}
	xs := float64s(sizes)
	res.Series = append(res.Series,
		meanSeries("binary search (Alg 2)", xs, binYs),
		meanSeries("linear descent", xs, linYs))
	return res, nil
}

// RunMergeAblation quantifies the merge-threshold hysteresis: under a
// steady churn workload (delete a batch, insert a batch), the paper's
// "merge whenever a subtree drops below theta" rule makes leaves at the
// boundary oscillate between splitting and merging, while a threshold of
// theta/2 (this implementation's default) damps the oscillation, and 0
// disables merging entirely (no maintenance, but empty leaves accumulate).
// Reported: maintenance DHT-lookups per churn operation, and final leaf
// count, per merge-threshold setting.
func RunMergeAblation(o Options, dist workload.Dist, size, churnOps int) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Ablation A2",
		Title:  fmt.Sprintf("Merge hysteresis under churn (theta=%d, %d records, %d churn ops)", o.Theta, size, churnOps),
		XLabel: "merge threshold (fraction of theta)",
		YLabel: "maintenance lookups per churn op / leaves",
	}
	fractions := []float64{0, 0.5, 1}
	maintYs := make([][]float64, o.Trials)
	leafYs := make([][]float64, o.Trials)
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(size)
		var mrow, lrow []float64
		for _, f := range fractions {
			cfg := lht.Config{
				SplitThreshold: o.Theta,
				MergeThreshold: int(f * float64(o.Theta)),
				Depth:          o.Depth,
				Aggregate:      o.Agg,
			}
			ix, err := lht.New(dht.NewLocal(), cfg)
			if err != nil {
				return res, err
			}
			live := make([]record.Record, 0, len(recs))
			for _, r := range recs {
				if _, err := ix.Insert(r); err != nil {
					return res, err
				}
				live = append(live, r)
			}
			before := ix.Metrics()
			// Churn: remove and reinsert records in waves, keeping the
			// population constant - the regime where merge thresholds
			// matter.
			extra := workload.NewGenerator(dist, o.Seed+int64(t)+1000)
			for op := 0; op < churnOps; op++ {
				victim := op % len(live)
				if _, err := ix.Delete(live[victim].Key); err != nil {
					return res, fmt.Errorf("churn delete: %w", err)
				}
				nr := record.Record{Key: extra.Key(), Value: live[victim].Value}
				for record.FindByKey(live, nr.Key) >= 0 {
					nr.Key = extra.Key()
				}
				if _, err := ix.Insert(nr); err != nil {
					return res, fmt.Errorf("churn insert: %w", err)
				}
				live[victim] = nr
			}
			maint := ix.Metrics().Sub(before)
			leaves, err := ix.Leaves()
			if err != nil {
				return res, err
			}
			mrow = append(mrow, float64(maint.Lookup.Maintenance)/float64(churnOps))
			lrow = append(lrow, float64(len(leaves)))
		}
		maintYs[t], leafYs[t] = mrow, lrow
	}
	res.Series = append(res.Series,
		meanSeries("maint lookups/op", fractions, maintYs),
		meanSeries("final leaves", fractions, leafYs))
	return res, nil
}

// RunThetaSweep quantifies the bucket-capacity tradeoff: larger theta
// means fewer, fatter buckets - range queries touch fewer peers
// (bandwidth falls) but every split moves more data. The paper fixes
// theta=100; this sweep shows what that choice trades.
func RunThetaSweep(o Options, dist workload.Dist, size int, thetas []int, span float64) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Ablation A3",
		Title:  fmt.Sprintf("theta_split tradeoff (%d records, span %.2g)", size, span),
		XLabel: "theta_split",
		YLabel: "per-query lookups / per-insert moved slots",
	}
	rangeYs := make([][]float64, o.Trials)
	movedYs := make([][]float64, o.Trials)
	lookupYs := make([][]float64, o.Trials)
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(size)
		var rrow, mrow, lrow []float64
		for _, theta := range thetas {
			ix, err := o.newLHT(theta, o.Depth)
			if err != nil {
				return res, err
			}
			for _, r := range recs {
				if _, err := ix.Insert(r); err != nil {
					return res, err
				}
			}
			var rtot, ltot int
			for q := 0; q < o.Queries; q++ {
				lo, hi := gen.RangeQuery(span)
				_, cost, err := ix.Range(lo, hi)
				if err != nil {
					return res, err
				}
				rtot += cost.Lookups
				_, lcost, err := ix.LookupBucket(gen.Key())
				if err != nil {
					return res, err
				}
				ltot += lcost.Lookups
			}
			s := ix.Metrics()
			rrow = append(rrow, float64(rtot)/float64(o.Queries))
			lrow = append(lrow, float64(ltot)/float64(o.Queries))
			mrow = append(mrow, float64(s.Lookup.MovedRecords)/float64(size))
		}
		rangeYs[t], movedYs[t], lookupYs[t] = rrow, mrow, lrow
	}
	xs := make([]float64, len(thetas))
	for i, th := range thetas {
		xs[i] = float64(th)
	}
	res.Series = append(res.Series,
		meanSeries("range lookups/query", xs, rangeYs),
		meanSeries("exact lookups/query", xs, lookupYs),
		meanSeries("moved slots/insert", xs, movedYs))
	return res, nil
}
