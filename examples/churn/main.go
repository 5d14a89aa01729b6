// Churn demonstrates the paper's central argument end to end: an over-DHT
// index pays nothing for peer churn, because membership is the
// substrate's problem. The example runs an LHT over a replicated Chord
// ring while nodes join, leave gracefully, and crash outright; the index
// keeps answering queries and its maintenance counters show that it only
// ever paid for its own tree growth.
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
	ring, err := lht.NewChordDHT(12, lht.ChordConfig{Seed: 5, Replicas: 3})
	if err != nil {
		return err
	}
	ix, err := lht.New(ring, lht.Config{SplitThreshold: 20, MergeThreshold: 10, Depth: 20})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(5))
	var inserted []float64
	next := 12 // next node number to join
	crashed := ""

	for round := 1; round <= 8; round++ {
		// Application load: 150 inserts per round.
		for i := 0; i < 150; i++ {
			k := rng.Float64()
			if _, err := ix.Insert(lht.Record{Key: k}); err != nil {
				return fmt.Errorf("round %d insert: %w", round, err)
			}
			inserted = append(inserted, k)
		}

		// Churn: a join, a graceful leave, and every other round an
		// abrupt crash (recovered one round later, like a rebooting
		// peer).
		addr := fmt.Sprintf("n%d", next)
		next++
		if err := ring.AddNode(addr); err != nil {
			return err
		}
		members := ring.NodeAddrs()
		if err := ring.RemoveNode(members[rng.Intn(len(members))], true); err != nil {
			return err
		}
		if crashed != "" {
			ring.Recover(crashed)
			crashed = ""
		} else if round%2 == 0 {
			members = ring.NodeAddrs()
			crashed = members[rng.Intn(len(members))]
			ring.Fail(crashed)
		}
		ring.Stabilize(3)

		// Spot-check queries after the churn.
		misses := 0
		for i := 0; i < 50; i++ {
			k := inserted[rng.Intn(len(inserted))]
			if _, _, err := ix.Get(k); err != nil {
				misses++
			}
		}
		fmt.Printf("round %d: %2d live nodes, %4d records, spot-check misses: %d/50\n",
			round, len(ring.NodeAddrs()), len(inserted), misses)
	}

	if crashed != "" {
		ring.Recover(crashed)
		ring.Stabilize(3)
	}

	// The punchline: the index's maintenance counters contain only its
	// own tree growth - churn appears nowhere, because the DHT absorbed
	// it (section 8.2: "LHT has no need of periodical maintenance...
	// this piece of work is left to and well done by the underlying
	// DHT").
	s := ix.Metrics()
	fmt.Printf("\nindex maintenance across all churn: %d splits, %d merges, %d maintenance lookups\n",
		s.Lookup.Splits, s.Lookup.Merges, s.Lookup.Maintenance)
	fmt.Printf("(every one of them caused by data growth, none by the %d membership changes)\n", 8*2+4)

	recs, _, err := ix.Range(0, 1)
	if err != nil {
		return err
	}
	fmt.Printf("final full scan: %d of %d records survive churn with 3-way replication\n",
		len(recs), len(inserted))
	return nil
}
