package bench

import (
	"context"
	"fmt"
	"math/rand"

	"lht/internal/chord"
	"lht/internal/lht"
	"lht/internal/workload"
)

// tearSplits injects torn split intents into the stored tree: every
// stride-th leaf below the depth bound is rewritten with an uncleared
// PendingSplit marker, exactly the state a writer crashing between its
// intent write and the remote put leaves behind (the tightest of the two
// crash windows — nothing but the marker distinguishes the bucket from a
// healthy one). Returns how many tears were planted.
func tearSplits(ctx context.Context, ring *chord.Ring, ix *lht.Index, depth, stride int) (int, error) {
	leaves, err := ix.Leaves()
	if err != nil {
		return 0, err
	}
	torn := 0
	for i, b := range leaves {
		if i%stride != 0 || b.Label.Len() >= depth {
			continue
		}
		b.Pending = lht.Pending{Kind: lht.PendingSplit}
		if err := ring.Write(ctx, b.Label.Name().Key(), b); err != nil {
			return torn, fmt.Errorf("bench: tear leaf %s: %w", b.Label, err)
		}
		torn++
	}
	return torn, nil
}

// RunChurnAblation is ablation A7: query success and recovery cost under
// the combined failure model — non-graceful Chord churn (crashed nodes
// strand their shards; only substrate replication covers them) plus torn
// structural mutations from crashed writers. An index is built on a
// healthy replicated ring, torn split intents are planted in a fraction
// of its leaves, a fraction of the nodes is then removed abruptly, and a
// fresh client runs the standard 4:1 exact/range query mix. Variants
// cross substrate replication (1 vs 3) with running a Scrub pass before
// the queries (off = tears are only repaired in-line as lookups touch
// them). The companion result prices the recovery machinery: DHT-lookups
// spent on scrubbing plus in-line repair, per query.
//
// The headline the acceptance pins: with Replicas 3 and a scrub, query
// success holds at 100% under 5% churn — the index's own recovery plus
// the substrate's replication absorb both failure classes; with Replicas
// 1 the stranded shards are unrecoverable and success degrades with the
// churn fraction no matter what the index layer does.
func RunChurnAblation(o Options, dist workload.Dist, nodes, size int, churns []float64) (Result, Result, error) {
	o = o.WithDefaults()
	ctx := context.Background()
	success := Result{
		Name:   "A7",
		Title:  fmt.Sprintf("Query success under non-graceful churn + torn mutations (%d nodes, %d records)", nodes, size),
		XLabel: "churned nodes (%)",
		YLabel: "query success (%)",
	}
	cost := Result{
		Name:   "A7b",
		Title:  "Recovery cost (scrub + in-line repair)",
		XLabel: "churned nodes (%)",
		YLabel: "recovery DHT-lookups per query",
	}

	xs := make([]float64, len(churns))
	for i, c := range churns {
		xs[i] = c * 100
	}

	variants := []struct {
		name     string
		replicas int
		scrub    bool
	}{
		{"replicas 1, no scrub", 1, false},
		{"replicas 1, scrub", 1, true},
		{"replicas 3, no scrub", 3, false},
		{"replicas 3, scrub", 3, true},
	}

	ysSuccess := make([][][]float64, len(variants))
	ysCost := make([][][]float64, len(variants))
	for vi := range variants {
		ysSuccess[vi] = make([][]float64, o.Trials)
		ysCost[vi] = make([][]float64, o.Trials)
	}

	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(size)
		for vi, v := range variants {
			row := make([]float64, 0, len(churns))
			costRow := make([]float64, 0, len(churns))
			for ci, churn := range churns {
				ring, err := chord.NewRing(nodes, chord.Config{
					Seed: o.Seed + int64(t), Replicas: v.replicas,
				})
				if err != nil {
					return success, cost, err
				}
				builder, err := lht.New(ring, lht.Config{SplitThreshold: o.Theta, Depth: o.Depth, Aggregate: o.Agg})
				if err != nil {
					return success, cost, err
				}
				for _, r := range recs {
					if _, err := builder.Insert(r); err != nil {
						return success, cost, fmt.Errorf("bench: healthy build failed: %w", err)
					}
				}
				if _, err := tearSplits(ctx, ring, builder, o.Depth, 4); err != nil {
					return success, cost, err
				}

				// Non-graceful churn: crash churn*nodes peers, then let the
				// ring heal its routing (the stranded shards stay stranded;
				// only replication covers them).
				rng := rand.New(rand.NewSource(o.Seed + int64(t*1000+ci)))
				addrs := ring.NodeAddrs()
				rng.Shuffle(len(addrs), func(a, b int) { addrs[a], addrs[b] = addrs[b], addrs[a] })
				for _, addr := range addrs[:int(churn*float64(nodes))] {
					if err := ring.RemoveNode(addr, false); err != nil {
						return success, cost, err
					}
				}
				ring.Stabilize(4)

				// A fresh client plays the post-crash world: no leaf cache,
				// no memory of the pre-churn tree.
				cl, err := lht.New(ring, lht.Config{SplitThreshold: o.Theta, Depth: o.Depth, Aggregate: o.Agg})
				if err != nil {
					return success, cost, err
				}
				before := cl.Metrics()
				if v.scrub {
					// A failed scrub (walk blocked by a stranded leaf) is an
					// outcome of the experiment, not an error of the harness:
					// the queries below measure what it could not fix.
					_, _ = cl.Scrub(ctx)
				}
				qrng := rand.New(rand.NewSource(o.Seed + int64(t)))
				ok := 0
				for q := 0; q < o.Queries; q++ {
					var err error
					if q%5 == 4 {
						lo, hi := gen.RangeQuery(0.01)
						_, _, err = cl.Range(lo, hi)
					} else {
						k := recs[qrng.Intn(len(recs))].Key
						_, _, err = cl.Search(k)
					}
					if err == nil {
						ok++
					}
				}
				delta := cl.Metrics().Sub(before)
				row = append(row, 100*float64(ok)/float64(o.Queries))
				costRow = append(costRow,
					float64(delta.Repair.ScrubLookups+delta.Lookup.Maintenance)/float64(o.Queries))
			}
			ysSuccess[vi][t] = row
			ysCost[vi][t] = costRow
		}
	}

	for vi, v := range variants {
		success.Series = append(success.Series, meanSeries("LHT "+v.name, xs, ysSuccess[vi]))
		cost.Series = append(cost.Series, meanSeries("LHT "+v.name, xs, ysCost[vi]))
	}
	return success, cost, nil
}
