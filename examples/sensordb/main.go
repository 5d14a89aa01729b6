// Sensordb indexes gaussian-distributed sensor readings over a Kademlia
// substrate - the paper's second data distribution on the repository's
// second DHT, demonstrating substrate independence. It answers min/max
// queries (Theorem 3: one DHT-lookup), an out-of-band alert range query,
// and then ages out old readings, exercising deletion and leaf merges.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lht"
)

// Readings are temperatures in [-20C, +60C], normalized into [0, 1).
const (
	minTemp = -20.0
	maxTemp = 60.0
)

func keyOf(celsius float64) float64 { return (celsius - minTemp) / (maxTemp - minTemp) }
func tempOf(key float64) float64    { return key*(maxTemp-minTemp) + minTemp }

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	nw, err := lht.NewKademliaDHT(24, lht.KademliaConfig{Seed: 11})
	if err != nil {
		return err
	}
	ix, err := lht.New(nw, lht.Config{SplitThreshold: 40, MergeThreshold: 20, Depth: 20})
	if err != nil {
		return err
	}

	// 4000 readings around 22C with sigma ~6C (gaussian data, as in the
	// paper's evaluation).
	rng := rand.New(rand.NewSource(11))
	var keys []float64
	for i := 0; i < 4000; i++ {
		celsius := 22 + rng.NormFloat64()*6
		if celsius < minTemp || celsius >= maxTemp {
			continue
		}
		k := keyOf(celsius)
		keys = append(keys, k)
		rec := lht.Record{Key: k, Value: []byte(fmt.Sprintf("sensor-%02d/reading-%04d", i%32, i))}
		if _, err := ix.Insert(rec); err != nil {
			return err
		}
	}
	n, err := ix.Count()
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d gaussian readings over a 24-node Kademlia network\n\n", n)

	// Coldest and hottest reading: one DHT-lookup each (Theorem 3).
	coldest, cost, err := ix.Min()
	if err != nil {
		return err
	}
	fmt.Printf("coldest: %6.2fC from %-28s %d DHT-lookup\n", tempOf(coldest.Key), coldest.Value, cost.Lookups)
	hottest, cost, err := ix.Max()
	if err != nil {
		return err
	}
	fmt.Printf("hottest: %6.2fC from %-28s %d DHT-lookup\n", tempOf(hottest.Key), hottest.Value, cost.Lookups)

	// Alert query: readings above 35C.
	alerts, cost, err := ix.Range(keyOf(35), 1)
	if err != nil {
		return err
	}
	fmt.Printf("alerts > 35C: %d readings              %d DHT-lookups, %d parallel steps\n",
		len(alerts), cost.Lookups, cost.Steps)

	// Age out 60% of readings; deletions trigger leaf merges, the dual
	// of splits, which LHT also performs with one bucket move.
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	expired := keys[:len(keys)*6/10]
	for _, k := range expired {
		if _, err := ix.Delete(k); err != nil {
			return fmt.Errorf("delete %v: %w", k, err)
		}
	}
	s := ix.Metrics()
	fmt.Printf("\naged out %d readings: %d leaf merges reclaimed buckets (%d splits during load)\n",
		len(expired), s.Lookup.Merges, s.Lookup.Splits)
	if err := ix.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants after aging: %w", err)
	}
	remaining, err := ix.Count()
	if err != nil {
		return err
	}
	fmt.Printf("index consistent, %d readings remain\n", remaining)
	return nil
}
