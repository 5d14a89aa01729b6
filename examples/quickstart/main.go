// Quickstart: the smallest end-to-end LHT program. It builds an index
// over the single-process substrate, loads a thousand records, and runs
// one of each query type, printing the DHT-lookup cost alongside every
// result - the currency the paper measures everything in.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lht"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ix, err := lht.New(lht.NewLocalDHT(), lht.DefaultConfig())
	if err != nil {
		return err
	}

	// Load 1000 records with uniform keys in [0, 1).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		rec := lht.Record{Key: rng.Float64(), Value: []byte(fmt.Sprintf("item-%03d", i))}
		if _, err := ix.Insert(rec); err != nil {
			return err
		}
	}
	if _, err := ix.Insert(lht.Record{Key: 0.42, Value: []byte("the answer")}); err != nil {
		return err
	}

	// Exact-match query (section 5): an LHT lookup, ~log(D/2) DHT-gets.
	rec, cost, err := ix.Get(0.42)
	if err != nil {
		return err
	}
	fmt.Printf("exact-match 0.42     -> %-12q %d DHT-lookups\n", rec.Value, cost.Lookups)

	// Range query (section 6): near-optimal B+3 lookups for B buckets.
	recs, cost, err := ix.Range(0.40, 0.45)
	if err != nil {
		return err
	}
	fmt.Printf("range [0.40, 0.45)   -> %3d records  %d DHT-lookups, %d parallel steps\n",
		len(recs), cost.Lookups, cost.Steps)

	// Min/max queries (Theorem 3): exactly one DHT-lookup.
	minRec, cost, err := ix.Min()
	if err != nil {
		return err
	}
	fmt.Printf("min                  -> key %.6f  %d DHT-lookup\n", minRec.Key, cost.Lookups)
	maxRec, cost, err := ix.Max()
	if err != nil {
		return err
	}
	fmt.Printf("max                  -> key %.6f  %d DHT-lookup\n", maxRec.Key, cost.Lookups)

	// Maintenance summary (section 8): one DHT-lookup and half a bucket
	// moved per split.
	s := ix.Metrics()
	alpha, splits := ix.AlphaMean()
	fmt.Printf("\nmaintenance: %d splits, %d record slots moved, %d maintenance lookups\n",
		s.Lookup.Splits, s.Lookup.MovedRecords, s.Lookup.Maintenance)
	fmt.Printf("average alpha over %d splits: %.4f (theory: 1/2 + 1/(2*theta) = %.4f)\n",
		splits, alpha, 0.5+1.0/(2*float64(ix.Config().SplitThreshold)))
	return nil
}
