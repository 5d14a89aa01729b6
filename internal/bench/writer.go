package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/record"
	"lht/internal/workload"
)

// Ablation A9: multi-writer concurrency. Three results:
//
//   - A9 (timed): wall-clock insert throughput with 1/2/4/8 goroutine
//     writers, each with its own Index handle over one shared substrate,
//     inserting disjoint interleaved key sets. Measured: timed rates are
//     reported, never pinned.
//   - A9b (pinned): the same interleave run as a deterministic round-robin
//     schedule — total client round trips vs handle count. Extra handles
//     pay only for stale leaf caches after another handle's split, so the
//     curve pins the coordination overhead of the epoch-CAS protocol at
//     (near) zero under serialized writers.
//   - A9c (pinned): the round-robin schedule over a substrate that
//     deterministically fails every contendEvery-th PutIf with a lost
//     compare-and-swap, as if a racing writer had committed and restored
//     the epoch. The CASConflicts and WriterRetries totals pin the
//     rebase-and-retry machinery's exact cost.

// contendEvery is A9c's injection period: every contendEvery-th PutIf
// loses its CAS.
const contendEvery = 16

// contended wraps a Local substrate and injects a deterministic lost
// compare-and-swap on every every-th PutIf: the op is rejected with a
// conflict naming the caller's own epoch as the winner (the ABA shape —
// a racing writer won and the epoch came back around), so the caller's
// mandatory re-fetch-rebase-retry round then succeeds. Serialized
// schedules only: the op counter is unsynchronized on purpose.
type contended struct {
	*dht.Local
	every int
	n     int
}

func (c *contended) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	c.n++
	if c.n%c.every == 0 {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: ifEpoch}
	}
	return c.Local.PutIf(ctx, key, v, ifEpoch)
}

// newWriters builds one Index handle per writer over the shared substrate
// (the first bootstraps the tree, the rest adopt it).
func (o Options) newWriters(d dht.DHT, n int) ([]*lht.Index, error) {
	handles := make([]*lht.Index, n)
	for w := range handles {
		ix, err := lht.New(d, lht.Config{SplitThreshold: o.Theta, Depth: o.Depth, Aggregate: o.Agg})
		if err != nil {
			return nil, err
		}
		handles[w] = ix
	}
	return handles, nil
}

// roundRobinInsert drives the deterministic serialized schedule: record i
// goes through handle i mod len(handles).
func roundRobinInsert(handles []*lht.Index, recs []record.Record) error {
	for i, r := range recs {
		if _, err := handles[i%len(handles)].Insert(r); err != nil {
			return fmt.Errorf("bench: round-robin insert %d: %w", i, err)
		}
	}
	return nil
}

// RunWriterAblation produces ablation A9 (see the package comment above):
// timed concurrent insert throughput (measured), plus two deterministic
// rows — round trips and injected-contention conflict/retry counts — for
// each writer count. The deterministic rows are functions of (theta,
// depth, seed, size) alone, so they reproduce exactly on any machine and
// results/counted-costs.csv pins them.
func RunWriterAblation(o Options, dist workload.Dist, size int, writerCounts []int) (thru, rounds, contention Result, err error) {
	o = o.WithDefaults()
	thru = Result{
		Name:     "A9",
		Title:    fmt.Sprintf("Multi-writer insert throughput, shared substrate (%d records, theta=%d)", size, o.Theta),
		XLabel:   "concurrent writers",
		YLabel:   "kinserts/sec",
		Measured: true,
	}
	rounds = Result{
		Name:   "A9b",
		Title:  fmt.Sprintf("Serialized interleave: total round trips vs writer handles (%d records)", size),
		XLabel: "writer handles",
		YLabel: "round trips",
	}
	contention = Result{
		Name:   "A9c",
		Title:  fmt.Sprintf("Injected contention: every %dth PutIf loses its CAS (%d records)", contendEvery, size),
		XLabel: "writer handles",
		YLabel: "CAS conflicts / writer retries",
	}

	// A9: real goroutines, one trial per seed, wall-clock timed.
	ys := make([][]float64, o.Trials)
	for t := 0; t < o.Trials; t++ {
		recs := workload.NewGenerator(dist, o.Seed+int64(t)).Records(size)
		row := make([]float64, 0, len(writerCounts))
		for _, nW := range writerCounts {
			handles, err := o.newWriters(dht.NewLocal(), nW)
			if err != nil {
				return thru, rounds, contention, err
			}
			errCh := make(chan error, nW)
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < nW; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(recs); i += nW {
						if _, err := handles[w].Insert(recs[i]); err != nil {
							select {
							case errCh <- fmt.Errorf("bench: writer %d insert %d: %w", w, i, err):
							default:
							}
							return
						}
					}
				}(w)
			}
			wg.Wait()
			wall := time.Since(start)
			select {
			case err := <-errCh:
				return thru, rounds, contention, err
			default:
			}
			n, err := handles[0].Count()
			if err != nil {
				return thru, rounds, contention, err
			}
			if n != size {
				return thru, rounds, contention, fmt.Errorf("bench: %d writers committed %d of %d records", nW, n, size)
			}
			row = append(row, float64(size)/wall.Seconds()/1000)
		}
		ys[t] = row
	}
	xs := float64s(writerCounts)
	thru.Series = append(thru.Series, meanSeries(fmt.Sprintf("%s inserts", dist), xs, ys))

	// A9b + A9c: one deterministic pass each per writer count, fixed seed.
	recs := workload.NewGenerator(dist, o.Seed).Records(size)
	var trips, conflicts, retries Series
	trips.Name = "total round trips"
	conflicts.Name = "CAS conflicts"
	retries.Name = "writer retries"
	for _, nW := range writerCounts {
		handles, err := o.newWriters(dht.NewLocal(), nW)
		if err != nil {
			return thru, rounds, contention, err
		}
		if err := roundRobinInsert(handles, recs); err != nil {
			return thru, rounds, contention, err
		}
		var rt int64
		for _, ix := range handles {
			rt += ix.Metrics().RoundTrips()
		}
		trips.Points = append(trips.Points, Point{X: float64(nW), Y: float64(rt)})

		handles, err = o.newWriters(&contended{Local: dht.NewLocal(), every: contendEvery}, nW)
		if err != nil {
			return thru, rounds, contention, err
		}
		if err := roundRobinInsert(handles, recs); err != nil {
			return thru, rounds, contention, err
		}
		var cc, wr int64
		for _, ix := range handles {
			f := ix.Metrics()
			cc += f.Write.CASConflicts
			wr += f.Write.WriterRetries
		}
		conflicts.Points = append(conflicts.Points, Point{X: float64(nW), Y: float64(cc)})
		retries.Points = append(retries.Points, Point{X: float64(nW), Y: float64(wr)})
	}
	rounds.Series = append(rounds.Series, trips)
	contention.Series = append(contention.Series, conflicts, retries)
	return thru, rounds, contention, nil
}
