// Filesearch is the paper's motivating scenario (section 1): a P2P file
// sharing network whose users ask "find all MP3 files published between
// Jan 1, 2007 and now" - a range query that a plain DHT cannot serve.
//
// The example runs a 32-node Chord ring, indexes 5000 files by
// publication time (normalized into the [0, 1) key space), and serves the
// date-range query through LHT, reporting both the index-level cost
// (DHT-lookups) and the substrate-level cost (Chord messages).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"lht"
)

// The indexable time window: files published in [epoch, horizon).
var (
	epoch   = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	horizon = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
)

// keyOf maps a publication time into the [0, 1) data-key space.
func keyOf(t time.Time) float64 {
	return float64(t.Sub(epoch)) / float64(horizon.Sub(epoch))
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ring, err := lht.NewChordDHT(32, lht.ChordConfig{Seed: 7, Replicas: 2})
	if err != nil {
		return err
	}
	ix, err := lht.New(ring, lht.DefaultConfig())
	if err != nil {
		return err
	}

	// Publish 5000 files with random timestamps; each record's value is
	// the file name.
	rng := rand.New(rand.NewSource(7))
	window := horizon.Sub(epoch)
	for i := 0; i < 5000; i++ {
		published := epoch.Add(time.Duration(rng.Int63n(int64(window))))
		rec := lht.Record{
			Key:   keyOf(published),
			Value: []byte(fmt.Sprintf("track-%04d.mp3 (%s)", i, published.Format("2006-01-02"))),
		}
		if _, err := ix.Insert(rec); err != nil {
			return err
		}
	}
	loadMsgs := ring.Network().Messages()

	// The user's query: everything published between Jan 1, 2007 and
	// "now" (the paper appeared in 2008; pretend it is mid-2008).
	from := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)
	now := time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC)
	ring.Network().ResetMessages()
	matches, cost, err := ix.Range(keyOf(from), keyOf(now))
	if err != nil {
		return err
	}
	queryMsgs := ring.Network().Messages()

	sort.Slice(matches, func(i, j int) bool { return matches[i].Key < matches[j].Key })
	fmt.Printf("query: MP3s published between %s and %s\n",
		from.Format("2006-01-02"), now.Format("2006-01-02"))
	fmt.Printf("matched %d of 5000 files; first and last:\n", len(matches))
	if len(matches) > 0 {
		fmt.Printf("  %s\n  %s\n", matches[0].Value, matches[len(matches)-1].Value)
	}
	fmt.Printf("\nindex cost:     %d DHT-lookups in %d parallel steps (near-optimal: %d result buckets + <=3)\n",
		cost.Lookups, cost.Steps, cost.Lookups-3)
	fmt.Printf("substrate cost: %d Chord messages for the query (ring of 32 nodes, O(log N) hops per lookup)\n",
		queryMsgs)

	s := ix.Metrics()
	fmt.Printf("\nbulk load: %d Chord messages, %d leaf splits, %d record slots moved (one DHT-lookup per split)\n",
		loadMsgs, s.Lookup.Splits, s.Lookup.MovedRecords)
	return nil
}
