package bench

import (
	"fmt"

	"lht/internal/costmodel"
	"lht/internal/lht"
	"lht/internal/pht"
	"lht/internal/record"
	"lht/internal/workload"
)

// RunAvgAlphaVsSize reproduces Fig. 6a: the average alpha (remote-bucket
// fraction per split) as progressively larger datasets are inserted, one
// curve per (distribution, theta) pair; the paper uses theta 40 and 160.
// Expected shape: all curves approach 1/2, offset by about 1/(2*theta).
func RunAvgAlphaVsSize(o Options, dists []workload.Dist, thetas []int, sizes []int) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Fig 6a",
		Title:  "Average alpha vs data size",
		XLabel: "data size (records)",
		YLabel: "average alpha",
	}
	maxSize := sizes[len(sizes)-1]
	for _, dist := range dists {
		for _, theta := range thetas {
			ys := make([][]float64, o.Trials)
			for t := 0; t < o.Trials; t++ {
				gen := workload.NewGenerator(dist, o.Seed+int64(t))
				recs := gen.Records(maxSize)
				ix, err := o.newLHT(theta, o.Depth)
				if err != nil {
					return res, err
				}
				row := make([]float64, 0, len(sizes))
				err = grow(recs, sizes,
					func(r record.Record) error { _, e := ix.Insert(r); return e },
					func(int) {
						mean, _ := ix.AlphaMean()
						row = append(row, mean)
					})
				if err != nil {
					return res, err
				}
				ys[t] = row
			}
			name := fmt.Sprintf("%s theta=%d", dist, theta)
			res.Series = append(res.Series, meanSeries(name, float64s(sizes), ys))
		}
	}
	return res, nil
}

// RunAvgAlphaVsTheta reproduces Fig. 6b: average alpha after inserting a
// fixed-size dataset, as theta_split varies. Expected shape: alpha =
// 1/2 + 1/(2*theta) for uniform data - the offset shrinks as theta grows.
func RunAvgAlphaVsTheta(o Options, dists []workload.Dist, thetas []int, size int) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Fig 6b",
		Title:  fmt.Sprintf("Average alpha vs theta_split (data size %d)", size),
		XLabel: "theta_split",
		YLabel: "average alpha",
	}
	for _, dist := range dists {
		ys := make([][]float64, o.Trials)
		for t := 0; t < o.Trials; t++ {
			gen := workload.NewGenerator(dist, o.Seed+int64(t))
			recs := gen.Records(size)
			row := make([]float64, 0, len(thetas))
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
				mean, _ := ix.AlphaMean()
				row = append(row, mean)
			}
			ys[t] = row
		}
		xs := make([]float64, len(thetas))
		for i, th := range thetas {
			xs[i] = float64(th)
		}
		res.Series = append(res.Series, meanSeries(dist.String(), xs, ys))
	}
	return res, nil
}

// RunMaintenance reproduces Fig. 7: cumulative maintenance cost while
// progressively inserting, for LHT and PHT. It returns two figures: 7a is
// moved record slots, 7b is maintenance DHT-lookups. Expected shape: both
// grow linearly; LHT moves about half of PHT's records and spends about a
// quarter of PHT's lookups.
func RunMaintenance(o Options, dists []workload.Dist, sizes []int) (moved, lookups Result, err error) {
	o = o.WithDefaults()
	moved = Result{
		Name:   "Fig 7a",
		Title:  fmt.Sprintf("Cumulative data movement (theta=%d)", o.Theta),
		XLabel: "data size (records)",
		YLabel: "moved record slots",
	}
	lookups = Result{
		Name:   "Fig 7b",
		Title:  fmt.Sprintf("Cumulative maintenance DHT-lookups (theta=%d)", o.Theta),
		XLabel: "data size (records)",
		YLabel: "maintenance DHT-lookups",
	}
	maxSize := sizes[len(sizes)-1]
	for _, dist := range dists {
		lhtMoved := make([][]float64, o.Trials)
		lhtLook := make([][]float64, o.Trials)
		phtMoved := make([][]float64, o.Trials)
		phtLook := make([][]float64, o.Trials)
		for t := 0; t < o.Trials; t++ {
			gen := workload.NewGenerator(dist, o.Seed+int64(t))
			recs := gen.Records(maxSize)

			lix, err := o.newLHT(o.Theta, o.Depth)
			if err != nil {
				return moved, lookups, err
			}
			var lm, ll []float64
			err = grow(recs, sizes,
				func(r record.Record) error { _, e := lix.Insert(r); return e },
				func(int) {
					s := lix.Metrics()
					lm = append(lm, float64(s.Lookup.MovedRecords))
					ll = append(ll, float64(s.Lookup.Maintenance))
				})
			if err != nil {
				return moved, lookups, err
			}

			pix, err := o.newPHT(o.Theta, o.Depth)
			if err != nil {
				return moved, lookups, err
			}
			var pm, pl []float64
			err = grow(recs, sizes,
				func(r record.Record) error { _, e := pix.Insert(r); return e },
				func(int) {
					s := pix.Metrics()
					pm = append(pm, float64(s.Lookup.MovedRecords))
					pl = append(pl, float64(s.Lookup.Maintenance))
				})
			if err != nil {
				return moved, lookups, err
			}
			lhtMoved[t], lhtLook[t], phtMoved[t], phtLook[t] = lm, ll, pm, pl
		}
		xs := float64s(sizes)
		moved.Series = append(moved.Series,
			meanSeries("LHT "+dist.String(), xs, lhtMoved),
			meanSeries("PHT "+dist.String(), xs, phtMoved))
		lookups.Series = append(lookups.Series,
			meanSeries("LHT "+dist.String(), xs, lhtLook),
			meanSeries("PHT "+dist.String(), xs, phtLook))
	}
	return moved, lookups, nil
}

// RunLookup reproduces Fig. 8 (8a uniform, 8b gaussian): the average
// DHT-lookups per lookup operation as data size varies, for LHT and PHT,
// with D = o.Depth and uniformly distributed query keys. Expected shape:
// fluctuating curves with valleys where the tree depth lets the binary
// search resolve in few probes; LHT below PHT by roughly 20-30%.
func RunLookup(o Options, dist workload.Dist, sizes []int) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Fig 8",
		Title:  fmt.Sprintf("Lookup performance, %s data (D=%d)", dist, o.Depth),
		XLabel: "data size (records)",
		YLabel: "DHT-lookups per lookup",
	}
	maxSize := sizes[len(sizes)-1]
	lhtYs := make([][]float64, o.Trials)
	phtYs := make([][]float64, o.Trials)
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(maxSize)
		queries := gen.LookupKeys(o.Queries)

		lix, err := o.newLHT(o.Theta, o.Depth)
		if err != nil {
			return res, err
		}
		var lrow []float64
		err = grow(recs, sizes,
			func(r record.Record) error { _, e := lix.Insert(r); return e },
			func(int) {
				var total int
				for _, q := range queries {
					_, cost, err2 := lix.LookupBucket(q)
					if err2 != nil {
						err = err2
						return
					}
					total += cost.Lookups
				}
				lrow = append(lrow, float64(total)/float64(len(queries)))
			})
		if err != nil {
			return res, err
		}

		pix, err := o.newPHT(o.Theta, o.Depth)
		if err != nil {
			return res, err
		}
		var prow []float64
		err = grow(recs, sizes,
			func(r record.Record) error { _, e := pix.Insert(r); return e },
			func(int) {
				var total int
				for _, q := range queries {
					_, cost, err2 := pix.LookupLeaf(q)
					if err2 != nil {
						err = err2
						return
					}
					total += cost.Lookups
				}
				prow = append(prow, float64(total)/float64(len(queries)))
			})
		if err != nil {
			return res, err
		}
		lhtYs[t], phtYs[t] = lrow, prow
	}
	xs := float64s(sizes)
	res.Series = append(res.Series, meanSeries("LHT", xs, lhtYs), meanSeries("PHT", xs, phtYs))
	return res, nil
}

// rangeTriple measures one range query workload on pre-built twin indexes.
type rangeCosts struct {
	lhtBW, seqBW, parBW    float64 // DHT-lookups (bandwidth, Fig. 9)
	lhtLat, seqLat, parLat float64 // parallel steps (latency, Fig. 10)
}

// measureRanges runs q random ranges of the given span over both indexes.
func measureRanges(lix *lht.Index, pix *pht.Index, gen *workload.Generator, span float64, q int) (rangeCosts, error) {
	var rc rangeCosts
	for i := 0; i < q; i++ {
		lo, hi := gen.RangeQuery(span)
		_, lc, err := lix.Range(lo, hi)
		if err != nil {
			return rc, fmt.Errorf("lht range [%v,%v): %w", lo, hi, err)
		}
		_, sc, err := pix.RangeSequential(lo, hi)
		if err != nil {
			return rc, fmt.Errorf("pht seq range [%v,%v): %w", lo, hi, err)
		}
		_, pc, err := pix.RangeParallel(lo, hi)
		if err != nil {
			return rc, fmt.Errorf("pht par range [%v,%v): %w", lo, hi, err)
		}
		rc.lhtBW += float64(lc.Lookups)
		rc.seqBW += float64(sc.Lookups)
		rc.parBW += float64(pc.Lookups)
		rc.lhtLat += float64(lc.Steps)
		rc.seqLat += float64(sc.Steps)
		rc.parLat += float64(pc.Steps)
	}
	n := float64(q)
	rc.lhtBW /= n
	rc.seqBW /= n
	rc.parBW /= n
	rc.lhtLat /= n
	rc.seqLat /= n
	rc.parLat /= n
	return rc, nil
}

// RunRangeVsSize reproduces Figs. 9a and 10a: range-query bandwidth
// (DHT-lookups) and latency (parallel steps) as data size varies, at a
// fixed span. Expected shape: PHT(parallel) costs the most bandwidth; LHT
// and PHT(sequential) are near optimal; PHT(sequential) latency is an
// order of magnitude above the other two; LHT's latency is the lowest.
func RunRangeVsSize(o Options, dist workload.Dist, sizes []int, span float64) (bandwidth, latency Result, err error) {
	o = o.WithDefaults()
	bandwidth = Result{
		Name:   "Fig 9a",
		Title:  fmt.Sprintf("Range bandwidth vs size, %s data, span %.2g", dist, span),
		XLabel: "data size (records)",
		YLabel: "DHT-lookups per query",
	}
	latency = Result{
		Name:   "Fig 10a",
		Title:  fmt.Sprintf("Range latency vs size, %s data, span %.2g", dist, span),
		XLabel: "data size (records)",
		YLabel: "parallel steps per query",
	}
	kinds := []string{"LHT", "PHT(seq)", "PHT(par)"}
	bw := make(map[string][][]float64, 3)
	lat := make(map[string][][]float64, 3)
	for _, k := range kinds {
		bw[k] = make([][]float64, o.Trials)
		lat[k] = make([][]float64, o.Trials)
	}
	maxSize := sizes[len(sizes)-1]
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(maxSize)
		lix, err := o.newLHT(o.Theta, o.Depth)
		if err != nil {
			return bandwidth, latency, err
		}
		pix, err := o.newPHT(o.Theta, o.Depth)
		if err != nil {
			return bandwidth, latency, err
		}
		next := 0
		for i, r := range recs {
			if _, err := lix.Insert(r); err != nil {
				return bandwidth, latency, err
			}
			if _, err := pix.Insert(r); err != nil {
				return bandwidth, latency, err
			}
			if next < len(sizes) && i+1 == sizes[next] {
				rc, err := measureRanges(lix, pix, gen, span, o.Queries)
				if err != nil {
					return bandwidth, latency, err
				}
				appendCosts(bw, lat, t, rc)
				next++
			}
		}
	}
	xs := float64s(sizes)
	for _, k := range kinds {
		bandwidth.Series = append(bandwidth.Series, meanSeries(k, xs, bw[k]))
		latency.Series = append(latency.Series, meanSeries(k, xs, lat[k]))
	}
	return bandwidth, latency, nil
}

// RunRangeVsSpan reproduces Figs. 9b and 10b: the same measures as the
// query span varies at a fixed data size.
func RunRangeVsSpan(o Options, dist workload.Dist, size int, spans []float64) (bandwidth, latency Result, err error) {
	o = o.WithDefaults()
	bandwidth = Result{
		Name:   "Fig 9b",
		Title:  fmt.Sprintf("Range bandwidth vs span, %s data, size %d", dist, size),
		XLabel: "query span",
		YLabel: "DHT-lookups per query",
	}
	latency = Result{
		Name:   "Fig 10b",
		Title:  fmt.Sprintf("Range latency vs span, %s data, size %d", dist, size),
		XLabel: "query span",
		YLabel: "parallel steps per query",
	}
	kinds := []string{"LHT", "PHT(seq)", "PHT(par)"}
	bw := make(map[string][][]float64, 3)
	lat := make(map[string][][]float64, 3)
	for _, k := range kinds {
		bw[k] = make([][]float64, o.Trials)
		lat[k] = make([][]float64, o.Trials)
	}
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(size)
		lix, err := o.newLHT(o.Theta, o.Depth)
		if err != nil {
			return bandwidth, latency, err
		}
		pix, err := o.newPHT(o.Theta, o.Depth)
		if err != nil {
			return bandwidth, latency, err
		}
		for _, r := range recs {
			if _, err := lix.Insert(r); err != nil {
				return bandwidth, latency, err
			}
			if _, err := pix.Insert(r); err != nil {
				return bandwidth, latency, err
			}
		}
		for _, span := range spans {
			rc, err := measureRanges(lix, pix, gen, span, o.Queries)
			if err != nil {
				return bandwidth, latency, err
			}
			appendCosts(bw, lat, t, rc)
		}
	}
	for _, k := range kinds {
		bandwidth.Series = append(bandwidth.Series, meanSeries(k, spans, bw[k]))
		latency.Series = append(latency.Series, meanSeries(k, spans, lat[k]))
	}
	return bandwidth, latency, nil
}

func appendCosts(bw, lat map[string][][]float64, t int, rc rangeCosts) {
	bw["LHT"][t] = append(bw["LHT"][t], rc.lhtBW)
	bw["PHT(seq)"][t] = append(bw["PHT(seq)"][t], rc.seqBW)
	bw["PHT(par)"][t] = append(bw["PHT(par)"][t], rc.parBW)
	lat["LHT"][t] = append(lat["LHT"][t], rc.lhtLat)
	lat["PHT(seq)"][t] = append(lat["PHT(seq)"][t], rc.seqLat)
	lat["PHT(par)"][t] = append(lat["PHT(par)"][t], rc.parLat)
}

// RunSavingRatio reproduces the section 8.2 analysis (equation 3): the
// per-split maintenance saving of LHT over PHT as a function of gamma =
// theta*i/j, both analytically and measured from instrumented growth runs
// priced by the cost model. Expected shape: decreasing from 0.75 toward
// 0.5.
func RunSavingRatio(o Options, dist workload.Dist, size int, gammas []float64) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Eq 3",
		Title:  fmt.Sprintf("Maintenance saving ratio vs gamma (theta=%d, size %d)", o.Theta, size),
		XLabel: "gamma = theta*i/j",
		YLabel: "saving ratio",
	}
	analytic := Series{Name: "analytic (Eq 3)"}
	for _, g := range gammas {
		analytic.Points = append(analytic.Points, Point{X: g, Y: costmodel.SavingRatioFromGamma(g)})
	}

	// One growth run per trial measures total moved slots and maintenance
	// lookups for both schemes; each gamma prices the same totals.
	type totals struct{ lm, ll, pm, pl float64 }
	sums := make([]totals, 0, o.Trials)
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(size)
		lix, err := o.newLHT(o.Theta, o.Depth)
		if err != nil {
			return res, err
		}
		pix, err := o.newPHT(o.Theta, o.Depth)
		if err != nil {
			return res, err
		}
		for _, r := range recs {
			if _, err := lix.Insert(r); err != nil {
				return res, err
			}
			if _, err := pix.Insert(r); err != nil {
				return res, err
			}
		}
		ls, ps := lix.Metrics(), pix.Metrics()
		sums = append(sums, totals{
			lm: float64(ls.Lookup.MovedRecords), ll: float64(ls.Lookup.Maintenance),
			pm: float64(ps.Lookup.MovedRecords), pl: float64(ps.Lookup.Maintenance),
		})
	}
	measured := Series{Name: "measured"}
	for _, g := range gammas {
		params := costmodel.Params{RecordUnit: g / float64(o.Theta), LookupUnit: 1}
		var sum float64
		for _, s := range sums {
			sum += params.MeasuredSaving(s.lm, s.ll, s.pm, s.pl)
		}
		measured.Points = append(measured.Points, Point{X: g, Y: sum / float64(len(sums))})
	}
	res.Series = append(res.Series, analytic, measured)
	return res, nil
}

// RunMinMax reproduces Theorem 3's claim as an experiment: the DHT-lookup
// cost of min and max queries stays constant (one lookup) regardless of
// data size.
func RunMinMax(o Options, dist workload.Dist, sizes []int) (Result, error) {
	o = o.WithDefaults()
	res := Result{
		Name:   "Thm 3",
		Title:  "Min/max query cost vs data size",
		XLabel: "data size (records)",
		YLabel: "DHT-lookups per query",
	}
	maxSize := sizes[len(sizes)-1]
	minYs := make([][]float64, o.Trials)
	maxYs := make([][]float64, o.Trials)
	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(maxSize)
		ix, err := o.newLHT(o.Theta, o.Depth)
		if err != nil {
			return res, err
		}
		var mins, maxs []float64
		err = grow(recs, sizes,
			func(r record.Record) error { _, e := ix.Insert(r); return e },
			func(int) {
				_, mc, err2 := ix.Min()
				if err2 != nil {
					err = err2
					return
				}
				_, xc, err2 := ix.Max()
				if err2 != nil {
					err = err2
					return
				}
				mins = append(mins, float64(mc.Lookups))
				maxs = append(maxs, float64(xc.Lookups))
			})
		if err != nil {
			return res, err
		}
		minYs[t], maxYs[t] = mins, maxs
	}
	xs := float64s(sizes)
	res.Series = append(res.Series, meanSeries("min query", xs, minYs), meanSeries("max query", xs, maxYs))
	return res, nil
}
