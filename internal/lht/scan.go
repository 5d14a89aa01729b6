package lht

import (
	"context"
	"fmt"

	"lht/internal/metrics"
	"lht/internal/record"
)

// Scan returns up to limit records with keys >= from, in ascending key
// order: the pagination primitive DB-style applications layer on a range
// index. It costs one LHT lookup for the first bucket plus one DHT-lookup
// per additional bucket walked (the same neighbor-function walk the range
// algorithm uses), so a full scan in pages costs the same as one range
// query over the union.
func (ix *Index) Scan(from float64, limit int) ([]record.Record, Cost, error) {
	return ix.ScanContext(context.Background(), from, limit)
}

// ScanContext is Scan with a caller-supplied context; cancellation stops
// the walk at the next leaf fetch. A torn leaf is repaired before its
// records are read, the first by the lookup, the rest by the walk's step
// (nextLeaf): read as stored, a torn split would return the records of
// its remote half twice and miss any written there since.
func (ix *Index) ScanContext(ctx context.Context, from float64, limit int) (out []record.Record, cost Cost, err error) {
	if limit <= 0 {
		return nil, cost, fmt.Errorf("%w: scan limit %d", ErrBadRange, limit)
	}
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpScan, metrics.PhaseProbe)
	defer func() { scope.Done(err) }()
	f, lcost, err := ix.lookupLeaf(ctx, from, false, nil)
	cost.Add(lcost)
	if err != nil {
		return nil, cost, err
	}
	b := f.b
	// The neighbor walk is forwarding traffic, like the range sweep.
	ctx = metrics.WithPhase(ctx, metrics.PhaseForward)
	for b != nil {
		matched := record.FilterRange(nil, b.Records, from, 1)
		record.SortByKey(matched)
		for _, r := range matched {
			out = append(out, r)
			if len(out) == limit {
				return out, cost, nil
			}
		}
		// Advance to the next leaf in key order: the near-end leaf of
		// the nearest right branch, repaired if torn.
		if _, b, err = ix.nextLeaf(ctx, b.Label, sweepRight, true, &cost); err != nil {
			return out, cost, fmt.Errorf("lht: scan walk %w", err)
		}
	}
	return out, cost, nil // reached the right edge of the tree
}
