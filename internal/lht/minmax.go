package lht

import (
	"context"
	"fmt"

	"lht/internal/bitlabel"
	"lht/internal/metrics"
	"lht/internal/record"
)

// Min answers a min query (Theorem 3): the leaf holding the smallest data
// key is the leftmost leaf #00*, which the naming function binds to the
// virtual root "#", so a single DHT-lookup reaches it.
//
// If deletions have left boundary leaves empty, Min walks inward through
// the local tree's branch nodes (one extra lookup per empty leaf) until it
// finds a record; ErrEmpty is returned when the whole index is empty. Each
// leaf of the walk (Index.nextLeaf) is repaired first if torn, so a split
// that crashed mid-way cannot hide a newer extreme in its remote half.
func (ix *Index) Min() (record.Record, Cost, error) {
	return ix.MinContext(context.Background())
}

// MinContext is Min with a caller-supplied context.
func (ix *Index) MinContext(ctx context.Context) (rec record.Record, cost Cost, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpMin, metrics.PhaseProbe)
	defer func() { scope.Done(err) }()
	return ix.extreme(ctx, sweepRight)
}

// Max answers a max query (Theorem 3): the rightmost leaf #01* is bound to
// "#0", one DHT-lookup away. On a single-leaf tree the key "#0" does not
// exist and the leaf is under "#" instead.
func (ix *Index) Max() (record.Record, Cost, error) {
	return ix.MaxContext(context.Background())
}

// MaxContext is Max with a caller-supplied context.
func (ix *Index) MaxContext(ctx context.Context) (rec record.Record, cost Cost, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpMax, metrics.PhaseProbe)
	defer func() { scope.Done(err) }()
	return ix.extreme(ctx, sweepLeft)
}

// extreme finds the extreme non-empty leaf: dir == sweepRight walks
// rightward from the leftmost leaf (min query), sweepLeft leftward from
// the rightmost (max query).
func (ix *Index) extreme(ctx context.Context, dir sweepDir) (record.Record, Cost, error) {
	// The boundary-leaf fetch and the inward walk are both probe traffic.
	ctx = metrics.WithPhase(ctx, metrics.PhaseProbe)
	var cost Cost
	for from := bitlabel.Root; ; {
		// The boundary leaf first; while it is empty, move to the adjacent
		// branch and enter it through its near-end boundary leaf (same
		// pattern as sweep).
		_, b, err := ix.nextLeaf(ctx, from, dir, true, &cost)
		cost.Steps = cost.Lookups
		switch {
		case err != nil:
			return record.Record{}, cost, fmt.Errorf("lht: extreme walk %w", err)
		case b == nil:
			return record.Record{}, cost, ErrEmpty
		case len(b.Records) > 0:
			return pickExtreme(b.Records, dir), cost, nil
		}
		from = b.Label
	}
}

func pickExtreme(rs []record.Record, dir sweepDir) record.Record {
	best := rs[0]
	for _, r := range rs[1:] {
		if (dir == sweepRight && r.Key < best.Key) || (dir == sweepLeft && r.Key > best.Key) {
			best = r
		}
	}
	return best
}
