package lht_test

// One benchmark per table/figure of the paper's evaluation (section 9),
// each driving the corresponding internal/bench experiment at a reduced
// scale suitable for `go test -bench`. The headline quantity of each
// figure is exposed through b.ReportMetric, so `go test -bench=. -benchmem`
// prints the reproduced numbers next to the timing. cmd/lht-bench runs
// the same drivers at full paper scale (2^20 records, 100 trials).

import (
	"math/rand"
	"testing"

	"lht"
	"lht/internal/bench"
	"lht/internal/workload"
)

func benchOptions() bench.Options {
	return bench.Options{Theta: 32, Depth: 20, Trials: 2, Queries: 50, Seed: 1}
}

func lastY(s bench.Series) float64 { return s.Points[len(s.Points)-1].Y }

func sumSeries(r bench.Result, name string) float64 {
	for _, s := range r.Series {
		if s.Name == name {
			var sum float64
			for _, p := range s.Points {
				sum += p.Y
			}
			return sum
		}
	}
	return 0
}

// BenchmarkFig6aAvgAlphaVsSize reproduces Fig. 6a: average alpha vs data
// size. Reported metric: final alpha for uniform data (paper: approaches
// 1/2 + 1/(2*theta)).
func BenchmarkFig6aAvgAlphaVsSize(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAvgAlphaVsSize(o, []workload.Dist{workload.Uniform, workload.Gaussian},
			[]int{16, 64}, bench.Sizes(9, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(res.Series[0]), "alpha")
	}
}

// BenchmarkFig6bAvgAlphaVsTheta reproduces Fig. 6b: average alpha vs
// theta_split.
func BenchmarkFig6bAvgAlphaVsTheta(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAvgAlphaVsTheta(o, []workload.Dist{workload.Uniform, workload.Gaussian},
			[]int{8, 16, 32, 64, 128}, 1<<13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(res.Series[0]), "alpha@128")
	}
}

// BenchmarkFig7aMaintenanceMoved reproduces Fig. 7a: cumulative moved
// records, LHT vs PHT. Reported metric: LHT/PHT ratio (paper: about 0.5).
func BenchmarkFig7aMaintenanceMoved(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		moved, _, err := bench.RunMaintenance(o, []workload.Dist{workload.Uniform, workload.Gaussian},
			bench.Sizes(9, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(moved.Series[0])/lastY(moved.Series[1]), "moved-ratio")
	}
}

// BenchmarkFig7bMaintenanceLookups reproduces Fig. 7b: cumulative
// maintenance DHT-lookups. Reported metric: LHT/PHT ratio (paper: about
// 0.25).
func BenchmarkFig7bMaintenanceLookups(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		_, lookups, err := bench.RunMaintenance(o, []workload.Dist{workload.Uniform, workload.Gaussian},
			bench.Sizes(9, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(lookups.Series[0])/lastY(lookups.Series[1]), "lookup-ratio")
	}
}

// BenchmarkFig8aLookupUniform reproduces Fig. 8a: lookup cost vs size on
// uniform data. Reported metric: LHT's saving over PHT (paper: ~20%).
func BenchmarkFig8aLookupUniform(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunLookup(o, workload.Uniform, bench.Sizes(8, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1-sumSeries(res, "LHT")/sumSeries(res, "PHT"), "saving")
	}
}

// BenchmarkFig8bLookupGaussian reproduces Fig. 8b (paper saving: ~30%).
func BenchmarkFig8bLookupGaussian(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunLookup(o, workload.Gaussian, bench.Sizes(8, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1-sumSeries(res, "LHT")/sumSeries(res, "PHT"), "saving")
	}
}

// BenchmarkFig9aRangeBandwidthVsSize reproduces Fig. 9a. Reported metric:
// PHT(par)/LHT bandwidth ratio (paper: parallel costs the most; LHT near
// optimal).
func BenchmarkFig9aRangeBandwidthVsSize(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		bw, _, err := bench.RunRangeVsSize(o, workload.Uniform, bench.Sizes(10, 13), 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sumSeries(bw, "PHT(par)")/sumSeries(bw, "LHT"), "par/lht-bw")
	}
}

// BenchmarkFig9bRangeBandwidthVsSpan reproduces Fig. 9b.
func BenchmarkFig9bRangeBandwidthVsSpan(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		bw, _, err := bench.RunRangeVsSpan(o, workload.Uniform, 1<<13, []float64{0.05, 0.1, 0.2, 0.4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sumSeries(bw, "PHT(seq)")/sumSeries(bw, "LHT"), "seq/lht-bw")
	}
}

// BenchmarkFig10aRangeLatencyVsSize reproduces Fig. 10a. Reported metric:
// PHT(seq)/LHT latency ratio (paper: an order of magnitude).
func BenchmarkFig10aRangeLatencyVsSize(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		_, lat, err := bench.RunRangeVsSize(o, workload.Uniform, bench.Sizes(10, 13), 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sumSeries(lat, "PHT(seq)")/sumSeries(lat, "LHT"), "seq/lht-lat")
	}
}

// BenchmarkFig10bRangeLatencyVsSpan reproduces Fig. 10b. Reported metric:
// PHT(par)/LHT latency ratio (paper: LHT saves ~18%).
func BenchmarkFig10bRangeLatencyVsSpan(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		_, lat, err := bench.RunRangeVsSpan(o, workload.Gaussian, 1<<13, []float64{0.05, 0.1, 0.2, 0.4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sumSeries(lat, "PHT(par)")/sumSeries(lat, "LHT"), "par/lht-lat")
	}
}

// BenchmarkEq3SavingRatio reproduces the section 8 analysis: measured
// maintenance saving priced by the cost model at gamma = 4 (paper: 50-75%
// across the gamma range).
func BenchmarkEq3SavingRatio(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSavingRatio(o, workload.Uniform, 1<<13, []float64{0, 4, 64})
		if err != nil {
			b.Fatal(err)
		}
		var measured bench.Series
		for _, s := range res.Series {
			if s.Name == "measured" {
				measured = s
			}
		}
		b.ReportMetric(measured.Points[1].Y, "saving@gamma4")
	}
}

// BenchmarkThm3MinMax reproduces Theorem 3: min/max queries cost one
// DHT-lookup at every data size.
func BenchmarkThm3MinMax(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMinMax(o, workload.Uniform, bench.Sizes(8, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastY(res.Series[0]), "lookups/min-query")
	}
}

// --- micro-benchmarks of the public API over the local substrate -------

func buildIndex(b *testing.B, n int) *lht.Index {
	return buildIndexCfg(b, n, lht.DefaultConfig())
}

func buildIndexCfg(b *testing.B, n int, cfg lht.Config) *lht.Index {
	b.Helper()
	ix, err := lht.New(lht.NewLocalDHT(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if _, err := ix.Insert(lht.Record{Key: rng.Float64(), Value: []byte("payload")}); err != nil {
			b.Fatal(err)
		}
	}
	return ix
}

// BenchmarkOpInsert measures a single insertion on a 64k-record index.
func BenchmarkOpInsert(b *testing.B) {
	ix := buildIndex(b, 1<<16)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Insert(lht.Record{Key: rng.Float64()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpGet measures an exact-match query on a 64k-record index.
func BenchmarkOpGet(b *testing.B) {
	ix := buildIndex(b, 1<<16)
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, 1<<16)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpRange measures a 1%-span range query on a 64k-record index.
func BenchmarkOpRange(b *testing.B) {
	ix := buildIndex(b, 1<<16)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 0.99
		if _, _, err := ix.Range(lo, lo+0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpMin measures the constant-cost min query.
func BenchmarkOpMin(b *testing.B) {
	ix := buildIndex(b, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Min(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkLookup measures exact-match queries on a 64k-record index and
// reports the mean DHT-lookups per query, with or without the leaf cache.
func benchmarkLookup(b *testing.B, cached bool) {
	cfg := lht.DefaultConfig()
	cfg.LeafCache = cached
	ix := buildIndexCfg(b, 1<<16, cfg)
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, 1<<16)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	before := ix.Metrics()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	diff := ix.Metrics().Sub(before)
	b.ReportMetric(float64(diff.Lookup.Total)/float64(b.N), "dht-lookups/query")
}

// BenchmarkLookupCached is the leaf-cache fast path: repeat exact-match
// queries resolve with ~1 DHT-get (vs ~log2(D) uncached) and skip the
// binary search's sequential probes in wall-clock time too.
func BenchmarkLookupCached(b *testing.B) { benchmarkLookup(b, true) }

// BenchmarkLookupUncached is the same workload through plain Algorithm 2,
// the baseline BenchmarkLookupCached's dht-lookups/query is read against.
func BenchmarkLookupUncached(b *testing.B) { benchmarkLookup(b, false) }

// BenchmarkA4CacheAblation runs the leaf-cache ablation at reduced scale
// (reported: uncached/cached lookup-cost ratio under 95/5 churn).
func BenchmarkA4CacheAblation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunCacheAblation(o, workload.Uniform, bench.Sizes(10, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sumSeries(res, "uncached lookups/query")/sumSeries(res, "cached lookups/query"), "uncached/cached")
	}
}

// BenchmarkA1LookupAblation quantifies what Algorithm 2's binary search
// buys over a linear top-down walk (reported: linear/binary cost ratio).
func BenchmarkA1LookupAblation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunLookupAblation(o, workload.Uniform, bench.Sizes(10, 13))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sumSeries(res, "linear descent")/sumSeries(res, "binary search (Alg 2)"), "linear/binary")
	}
}

// BenchmarkRW1RelatedWork compares per-insert bandwidth across LHT, PHT,
// DST and RST (reported: DST/LHT insert-cost ratio; paper section 2:
// "insertion in DST is inefficient").
func BenchmarkRW1RelatedWork(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		results, err := bench.RunRelatedWork(o, workload.Uniform, 1<<12, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		var lht, dst float64
		for _, s := range results[0].Series {
			switch s.Name {
			case "LHT":
				lht = s.Points[0].Y
			case "DST":
				dst = s.Points[0].Y
			}
		}
		b.ReportMetric(dst/lht, "dst/lht-insert")
	}
}

// BenchmarkX1SkewRobustness loads zipf-skewed data and reports LHT's
// lookup saving over PHT under extreme skew.
func BenchmarkX1SkewRobustness(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSkewRobustness(o, bench.Sizes(9, 12))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1-sumSeries(res, "LHT lookups")/sumSeries(res, "PHT lookups"), "saving")
	}
}
