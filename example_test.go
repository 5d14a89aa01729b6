package lht_test

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lht"
)

// The smallest end-to-end program: build an index, insert, query.
// New takes functional options; with none, the paper's defaults apply.
func Example() {
	ix, err := lht.New(lht.NewLocalDHT())
	if err != nil {
		panic(err)
	}
	if _, err := ix.Insert(lht.Record{Key: 0.42, Value: []byte("answer")}); err != nil {
		panic(err)
	}
	rec, _, err := ix.Get(0.42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%g -> %s\n", rec.Key, rec.Value)
	// Output: 0.42 -> answer
}

// Range queries return every record in [lo, hi) with near-optimal
// DHT traffic (at most B+3 lookups for B result buckets).
func ExampleIndex_Range() {
	ix, err := lht.New(lht.NewLocalDHT(), lht.DefaultConfig())
	if err != nil {
		panic(err)
	}
	for _, k := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		if _, err := ix.Insert(lht.Record{Key: k}); err != nil {
			panic(err)
		}
	}
	recs, _, err := ix.Range(0.25, 0.75)
	if err != nil {
		panic(err)
	}
	keys := make([]float64, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	sort.Float64s(keys)
	fmt.Println(keys)
	// Output: [0.3 0.5 0.7]
}

// Min and max queries cost exactly one DHT-lookup (Theorem 3): the
// naming function pins the leftmost leaf to key "#" and the rightmost to
// "#0".
func ExampleIndex_Min() {
	ix, err := lht.New(lht.NewLocalDHT(), lht.DefaultConfig())
	if err != nil {
		panic(err)
	}
	for _, k := range []float64{0.5, 0.2, 0.8} {
		if _, err := ix.Insert(lht.Record{Key: k}); err != nil {
			panic(err)
		}
	}
	rec, cost, err := ix.Min()
	if err != nil {
		panic(err)
	}
	fmt.Printf("min %g in %d lookup(s)\n", rec.Key, cost.Lookups)
	// Output: min 0.2 in 1 lookup(s)
}

// Scan pages through the index in key order; resume from the last key.
func ExampleIndex_Scan() {
	ix, err := lht.New(lht.NewLocalDHT(), lht.DefaultConfig())
	if err != nil {
		panic(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := ix.Insert(lht.Record{Key: float64(i) / 10}); err != nil {
			panic(err)
		}
	}
	page, _, err := ix.Scan(0.25, 3)
	if err != nil {
		panic(err)
	}
	for _, r := range page {
		fmt.Println(r.Key)
	}
	// Output:
	// 0.3
	// 0.4
	// 0.5
}

// The same index runs unchanged over a simulated Chord ring - the
// over-DHT property the paper is about.
func ExampleNewChordDHT() {
	ring, err := lht.NewChordDHT(8, lht.ChordConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	ix, err := lht.New(ring, lht.DefaultConfig())
	if err != nil {
		panic(err)
	}
	if _, err := ix.Insert(lht.Record{Key: 0.25, Value: []byte("on chord")}); err != nil {
		panic(err)
	}
	rec, _, err := ix.Get(0.25)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", rec.Value)
	// Output: on chord
}

// Every operation has a Context variant: a deadline on the context
// bounds the whole multi-step algorithm - here a range query over a
// Chord ring, whose forwarding rounds stop promptly if the deadline
// expires. The WithPolicy option additionally absorbs transient
// substrate faults with retries and backoff, each retry charged as a
// DHT-lookup.
func ExampleIndex_RangeContext() {
	ring, err := lht.NewChordDHT(8, lht.ChordConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	ix, err := lht.New(ring,
		lht.WithThresholds(4, 3),
		lht.WithPolicy(lht.DefaultPolicy()),
	)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := ix.Insert(lht.Record{Key: (float64(i) + 0.5) / 32}); err != nil {
			panic(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	recs, _, err := ix.RangeContext(ctx, 0.25, 0.75)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d records within the deadline\n", len(recs))
	// Output: 16 records within the deadline
}

// Behaviour composes from functional options, and observability comes
// from the same surface: a bounded trace ring records every DHT
// operation the index issues (kind, key, phase, duration, outcome),
// while Metrics returns grouped counters with per-operation latency
// histograms. WritePrometheus or MetricsHandler export the same
// snapshot in Prometheus text format.
func ExampleWithTraceSink() {
	ring := lht.NewTraceRing(64)
	ix, err := lht.New(lht.NewLocalDHT(),
		lht.WithLeafCache(1024),
		lht.WithBatchSize(64),
		lht.WithTraceSink(ring),
	)
	if err != nil {
		panic(err)
	}
	for _, k := range []float64{0.2, 0.5, 0.8} {
		if _, err := ix.Insert(lht.Record{Key: k}); err != nil {
			panic(err)
		}
	}
	if _, _, err := ix.Get(0.5); err != nil {
		panic(err)
	}
	s := ix.Metrics()
	fmt.Printf("%d DHT ops traced, %d lookups charged, %d cache hits\n",
		ring.Total(), s.Lookup.Total, s.Cache.Hits)
	// Output: 9 DHT ops traced, 9 lookups charged, 3 cache hits
}

// GeoIndex layers two-dimensional rectangle search on top of the
// one-dimensional index via a Z-order curve (the paper's footnote 1).
func ExampleGeoIndex() {
	g, err := lht.NewGeoIndex(lht.NewLocalDHT(), lht.GeoConfig{Bits: 10})
	if err != nil {
		panic(err)
	}
	pts := []lht.Point{
		{X: 0.2, Y: 0.3, Value: []byte("a")},
		{X: 0.25, Y: 0.35, Value: []byte("b")},
		{X: 0.9, Y: 0.9, Value: []byte("far away")},
	}
	for _, p := range pts {
		if _, err := g.Insert(p); err != nil {
			panic(err)
		}
	}
	hits, _, err := g.SearchRect(lht.Rect{X0: 0.1, X1: 0.4, Y0: 0.2, Y1: 0.5})
	if err != nil {
		panic(err)
	}
	names := make([]string, len(hits))
	for i, p := range hits {
		names[i] = string(p.Value)
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output: [a b]
}
