package lht

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/metrics"
	"lht/internal/record"
)

// ErrNotEmpty reports a bulk load into an index that already holds data.
var ErrNotEmpty = errors.New("lht: bulk load requires an empty index")

// ErrPartialLoad reports a bulk load that failed after shipping some of
// its leaves: the tree is partially populated, not absent. Errors of this
// kind are always a *PartialLoadError carrying the ship counts and the
// root cause; errors.Is(err, ErrPartialLoad) detects the condition and
// errors.Is against the cause (e.g. context.Canceled) still matches.
var ErrPartialLoad = errors.New("lht: bulk load partially applied")

// PartialLoadError is the error type behind ErrPartialLoad.
type PartialLoadError struct {
	Shipped int   // leaves stored before the failure
	Total   int   // leaves the load planned to store
	Err     error // the first real failure (cancellations yield to it)
}

func (e *PartialLoadError) Error() string {
	return fmt.Sprintf("lht: bulk load interrupted after %d/%d leaves: %v", e.Shipped, e.Total, e.Err)
}

func (e *PartialLoadError) Unwrap() []error { return []error{ErrPartialLoad, e.Err} }

// bulkLoadWorkers bounds how many leaf batches ship concurrently.
const bulkLoadWorkers = 8

// BulkLoad populates an empty index with a dataset in one pass: the
// client partitions the records into a valid tree locally (every leaf
// under theta_split, splitting at interval medians exactly as incremental
// growth would) and ships each leaf bucket with a single DHT-put. Loading
// n records costs about n/(theta/2) DHT-lookups instead of incremental
// insertion's ~n*log(D/2) - the standard index-construction optimization.
//
// Building the tree locally costs one generic sort of a copy of recs,
// linear when recs is already in key order, and no map: records with
// duplicate keys collapse to the last occurrence (matching Insert's
// replace semantics), and only keys that repeat are looked up again to
// find it. recs itself is never reordered. Bulk loading performs no
// splits, so split statistics (AlphaMean) stay empty; MovedRecords counts
// every shipped slot, as all buckets travel to their responsible peers.
func (ix *Index) BulkLoad(recs []record.Record) (Cost, error) {
	return ix.BulkLoadContext(context.Background(), recs)
}

// BulkLoadContext is BulkLoad with a caller-supplied context. Leaves ship
// in batched parallel put rounds (Config.BatchSize keys per batch, a
// bounded worker pool of batches in flight), one round trip per batch on
// a batch-native substrate. Cancellation or a substrate fault stops the
// load; leaves already shipped stay put, and when any did, the returned
// error is a *PartialLoadError (errors.Is ErrPartialLoad) reporting how
// much of the tree made it out — a subsequent BulkLoad will refuse with
// ErrNotEmpty, exactly because the partial tree is real data.
func (ix *Index) BulkLoadContext(ctx context.Context, recs []record.Record) (cost Cost, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpBulkLoad, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	// The index must be in its bootstrap state: the single empty leaf.
	b, err := ix.getBucket(metrics.WithPhase(ctx, metrics.PhaseProbe), bitlabel.Root.Key(), &cost)
	if err != nil {
		return cost, fmt.Errorf("lht: bulk load probe: %w", err)
	}
	if b.Label != bitlabel.TreeRoot || len(b.Records) > 0 {
		return cost, ErrNotEmpty
	}

	// Order a copy by key, then deduplicate (last wins).
	for _, r := range recs {
		if err := keyspace.CheckKey(r.Key); err != nil {
			return cost, err
		}
	}
	sorted := make([]record.Record, len(recs))
	copy(sorted, recs)
	record.SortByKey(sorted)
	sorted = lastWins(sorted, recs)

	// Partition into leaves exactly as median splits would.
	var leaves []*Bucket
	var build func(label bitlabel.Label, part []record.Record)
	build = func(label bitlabel.Label, part []record.Record) {
		if len(part)+1 < ix.cfg.SplitThreshold || label.Len() >= ix.cfg.Depth {
			if label.Len() >= ix.cfg.Depth && len(part)+1 >= ix.cfg.SplitThreshold {
				ix.mu.Lock()
				ix.overflows++
				ix.mu.Unlock()
			}
			leaves = append(leaves, &Bucket{Label: label, Records: part})
			return
		}
		_, pivot, _ := splitAt(label)
		split := sort.Search(len(part), func(i int) bool { return part[i].Key >= pivot })
		build(label.Left(), part[:split:split])
		build(label.Right(), part[split:])
	}
	build(bitlabel.TreeRoot, sorted)

	// Claim the bootstrap slot first. The leftmost leaf's name is always
	// the bootstrap key "#" (the naming function strips its trailing
	// zero-run), so an epoch-guarded put of that leaf over the probed
	// bootstrap bucket is the load's commit point: losing the claim means
	// another client mutated the index between the probe and now, and
	// since nothing has shipped yet, the load degrades to per-record
	// insertion instead of overwriting live data. The claim replaces one
	// of the batched puts, so the load still costs leaves+1 lookups.
	rootLeaf := leaves[0]
	rootLeaf.Epoch = b.Epoch + 1
	cost.Steps++
	cost.Lookups++
	cerr := ix.d.PutIf(ctx, bitlabel.Root.Key(), rootLeaf, b.Epoch)
	if errors.Is(cerr, dht.ErrCASConflict) {
		ix.c.Add(metrics.WriterRetries, 1)
		for _, r := range sorted {
			c, ierr := ix.InsertContext(ctx, r)
			cost.Add(c)
			if ierr != nil {
				return cost, fmt.Errorf("lht: bulk load degraded insert %g: %w", r.Key, ierr)
			}
		}
		return cost, nil
	}
	if cerr != nil {
		return cost, fmt.Errorf("lht: bulk load claim %q: %w", bitlabel.Root.Key(), cerr)
	}
	ix.c.Add(metrics.MovedRecords, int64(rootLeaf.Weight()))
	leaves = leaves[1:]
	if len(leaves) == 0 {
		return cost, nil
	}

	// Ship every remaining leaf to its name: the puts are independent, so
	// they go out as parallel batches — one conceptual round, hence one
	// step. Every attempted put is a lookup whether it lands or not. The
	// ship is not guarded: the claim made the new root's leftmost leaf
	// durable, so these keys are part of the committed tree and cannot be
	// contested except by writers that already see the load's structure.
	cost.Steps++
	cost.Lookups += len(leaves)
	kvs := make([]dht.KV, len(leaves))
	for i, leaf := range leaves {
		kvs[i] = dht.KV{Key: leaf.Label.Name().Key(), Val: leaf}
	}
	batch := ix.cfg.batchSize()
	var (
		mu       sync.Mutex
		shipped  int
		firstErr error
	)
	sem := make(chan struct{}, bulkLoadWorkers)
	var wg sync.WaitGroup
	for lo := 0; lo < len(kvs); lo += batch {
		hi := min(lo+batch, len(kvs))
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs := dht.DoPutBatch(ctx, ix.d, kvs[lo:hi])
			mu.Lock()
			defer mu.Unlock()
			for i, err := range errs {
				if err == nil {
					shipped++
					ix.c.Add(metrics.MovedRecords, int64(leaves[lo+i].Weight()))
					continue
				}
				err = fmt.Errorf("lht: bulk load put %s: %w", leaves[lo+i].Label, err)
				// Prefer a real root cause over follow-on cancellations.
				if firstErr == nil || (isCancellation(firstErr) && !isCancellation(err)) {
					firstErr = err
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		// The claimed bootstrap leaf is always durable by now, so any
		// failure past the claim leaves a partial tree (+1 counts it).
		return cost, &PartialLoadError{Shipped: shipped + 1, Total: len(leaves) + 1, Err: firstErr}
	}
	// The bootstrap bucket was either replaced (single-leaf result) or
	// superseded by the new root's leftmost leaf, which shares key "#".
	return cost, nil
}

// lastWins collapses each run of equal keys in sorted, a sorted copy of
// in, to the key's last occurrence in in. The sort is not stable, so a
// run's order says nothing about its records' input order: the input
// positions are looked up, for the keys that repeat only. Without
// repeats it is one comparison per record and allocates nothing.
func lastWins(sorted, in []record.Record) []record.Record {
	var last map[float64]int // a repeated key's last position in in
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Key == sorted[i-1].Key {
			if last == nil {
				last = make(map[float64]int)
			}
			last[sorted[i].Key] = -1
		}
	}
	if last == nil {
		return sorted
	}
	for i, r := range in {
		if _, ok := last[r.Key]; ok {
			last[r.Key] = i
		}
	}
	out := sorted[:0]
	for i := 0; i < len(sorted); {
		r, j := sorted[i], i+1
		for j < len(sorted) && sorted[j].Key == r.Key {
			j++
		}
		if j > i+1 {
			r = in[last[r.Key]]
		}
		out = append(out, r)
		i = j
	}
	return out
}
