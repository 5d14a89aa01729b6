// Package bench is the experiment harness that regenerates every figure
// of the paper's evaluation (section 9). Each Run* function reproduces one
// figure as a Result: named series of (x, y) points, averaged over
// independently generated datasets exactly as the paper averages over 100
// datasets per point.
//
// The drivers run both LHT and the PHT baseline over instrumented
// single-process DHTs (the measurements are DHT-lookup and record counts,
// which footnote 5 of the paper notes are network-scale independent), so
// paper-scale runs (2^20 records) complete on one machine. cmd/lht-bench
// runs them at full scale; bench_test.go wires each one to a testing.B
// benchmark at reduced scale.
package bench

import (
	"fmt"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/metrics"
	"lht/internal/pht"
	"lht/internal/record"
)

// Options are the shared experiment parameters.
type Options struct {
	// Theta is theta_split (default 100, the paper's default).
	Theta int `json:"theta"`
	// Depth is D (default 20).
	Depth int `json:"depth"`
	// Trials is the number of independently generated datasets averaged
	// per data point (the paper uses 100; tests use fewer).
	Trials int `json:"trials"`
	// Queries is the number of queries per trial for query experiments
	// (the paper issues 1000 lookups per point).
	Queries int `json:"queries"`
	// Seed makes every run reproducible; trial t of any experiment uses
	// Seed+t.
	Seed int64 `json:"seed"`
	// Agg, when non-nil, aggregates the counters of every index any
	// experiment builds (cmd/lht-bench points it at the process counters
	// behind its /metrics endpoint and at the latency reporter). It is
	// runtime wiring, not a parameter, so it stays out of the report.
	Agg *metrics.Counters `json:"-"`
}

// WithDefaults fills unset fields with the paper's defaults (scaled-down
// trial counts; cmd/lht-bench raises them to paper scale).
func (o Options) WithDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 100
	}
	if o.Depth == 0 {
		o.Depth = 20
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.Queries == 0 {
		o.Queries = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one named curve of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Result is one reproduced figure.
type Result struct {
	Name   string   `json:"name"` // e.g. "Fig 6a"
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
	// Measured marks a result whose values the running machine decides
	// (clock, scheduler or allocator), not the workload alone. Every other
	// result is a count that reproduces byte for byte, which is what
	// results/counted-costs.csv pins; lht-bench -csv leaves measured
	// results out of it.
	Measured bool `json:"-"`
}

// Sizes returns the power-of-two data sizes [2^lo, 2^hi].
func Sizes(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<uint(e))
	}
	return out
}

// newLHT builds a fresh LHT over an instrumented local DHT. The growth
// experiments insert only, as the paper's do, so merging is left disabled.
func (o Options) newLHT(theta, depth int) (*lht.Index, error) {
	return lht.New(dht.NewLocal(), lht.Config{SplitThreshold: theta, Depth: depth, Aggregate: o.Agg})
}

// newPHT builds the PHT counterpart with identical parameters.
func (o Options) newPHT(theta, depth int) (*pht.Index, error) {
	return pht.New(dht.NewLocal(), pht.Config{SplitThreshold: theta, Depth: depth, Aggregate: o.Agg})
}

// grow inserts recs one by one, invoking visit at every checkpoint size
// (checkpoints must be ascending; the largest must not exceed len(recs)).
func grow(recs []record.Record, checkpoints []int, insert func(record.Record) error, visit func(cp int)) error {
	next := 0
	for i, r := range recs {
		if err := insert(r); err != nil {
			return fmt.Errorf("bench: insert %d: %w", i, err)
		}
		for next < len(checkpoints) && i+1 == checkpoints[next] {
			visit(checkpoints[next])
			next++
		}
	}
	return nil
}

// meanSeries averages per-trial Y values: ys[trial][point].
func meanSeries(name string, xs []float64, ys [][]float64) Series {
	pts := make([]Point, len(xs))
	for p := range xs {
		var sum float64
		for t := range ys {
			sum += ys[t][p]
		}
		pts[p] = Point{X: xs[p], Y: sum / float64(len(ys))}
	}
	return Series{Name: name, Points: pts}
}

func float64s(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = float64(s)
	}
	return out
}
