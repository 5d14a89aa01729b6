package lht

import (
	"context"
	"errors"
	"fmt"

	"lht/internal/bitlabel"
	"lht/internal/dht"
)

// Leaves returns every leaf bucket of the tree in left-to-right key order,
// by walking neighbor branches from the leftmost leaf. It exists for
// inspection, testing and statistics; it costs one DHT-lookup per leaf
// (plus the boundary fallbacks) and is not part of the paper's query
// repertoire.
func (ix *Index) Leaves() ([]*Bucket, error) {
	return ix.LeavesContext(context.Background())
}

// LeavesContext is Leaves with a caller-supplied context; cancellation
// stops the walk at the next leaf fetch.
func (ix *Index) LeavesContext(ctx context.Context) ([]*Bucket, error) {
	var cost Cost
	b, err := ix.getBucket(ctx, bitlabel.Root.Key(), &cost)
	if err != nil {
		return nil, fmt.Errorf("lht: leftmost leaf: %w", err)
	}
	leaves := []*Bucket{b}
	for {
		beta, ok := b.Label.RightNeighbor()
		if !ok {
			return leaves, nil
		}
		// The next leaf in key order is the leftmost leaf of the nearest
		// right branch.
		nb, err := ix.getBucket(ctx, beta.Key(), &cost)
		if errors.Is(err, dht.ErrNotFound) {
			nb, err = ix.getBucket(ctx, beta.Name().Key(), &cost)
		}
		if err != nil {
			return nil, fmt.Errorf("lht: walk %s: %w", beta, err)
		}
		leaves = append(leaves, nb)
		b = nb
	}
}

// CheckInvariants verifies the structural invariants the paper's theorems
// rely on and returns the first violation found:
//
//   - the leaves' intervals tile [0, 1) exactly in walk order;
//   - every leaf bucket is stored under its name f_n(label), and the
//     naming is injective (Theorem 1);
//   - every record lies inside its leaf's interval;
//   - no leaf inside the depth bound outweighs theta_split by more than
//     its depth (see overweight).
//
// It is meant for tests and debugging.
func (ix *Index) CheckInvariants() error {
	leaves, err := ix.Leaves()
	if err != nil {
		return err
	}
	names := make(map[string]bitlabel.Label, len(leaves))
	want := 0.0
	for _, b := range leaves {
		iv := b.Interval()
		if iv.Lo != want {
			return fmt.Errorf("%w: leaf %s starts at %g, want %g", ErrCorrupt, b.Label, iv.Lo, want)
		}
		want = iv.Hi
		name := b.Label.Name()
		if prev, dup := names[name.Key()]; dup {
			return fmt.Errorf("%w: leaves %s and %s share name %s", ErrCorrupt, prev, b.Label, name)
		}
		names[name.Key()] = b.Label
		var cost Cost
		stored, err := ix.getBucket(context.Background(), name.Key(), &cost)
		if err != nil {
			return fmt.Errorf("%w: leaf %s not stored under %s: %v", ErrCorrupt, b.Label, name, err)
		}
		if stored.Label != b.Label {
			return fmt.Errorf("%w: key %s holds leaf %s, want %s", ErrCorrupt, name, stored.Label, b.Label)
		}
		for _, r := range b.Records {
			if !iv.Contains(r.Key) {
				return fmt.Errorf("%w: record %g outside leaf %s %v", ErrCorrupt, r.Key, b.Label, iv)
			}
		}
		if ix.overweight(b) {
			return fmt.Errorf("%w: leaf %s weight %d exceeds threshold %d + depth %d", ErrCorrupt, b.Label, b.Weight(), ix.cfg.SplitThreshold, b.Label.Len())
		}
	}
	if want != 1 {
		return fmt.Errorf("%w: leaves tile [0, %g), want [0, 1)", ErrCorrupt, want)
	}
	return nil
}

// overweight reports whether leaf b holds more than the insertion rule
// can have put there. A leaf may exceed theta_split: an insertion causes
// at most one split (section 5, no cascades), so a split whose records
// all fall on one side leaves that child as heavy as its parent was, and
// a run of such splits under clustered keys adds one record per level.
// Hence no multiple of theta bounds a leaf; its depth does:
//
//	weight(leaf) <= theta_split + len(label)
//
// by induction over a serial history. A leaf lighter than theta_split
// satisfies it outright (the root, every bulk-loaded leaf, and every
// merged leaf, which weighs less than theta_merge <= theta_split). An
// insert takes a leaf of weight w to w+1; if that reaches theta_split it
// splits, and each child weighs at most w+1 <= theta_split + len + 1 at
// depth len + 1. Nothing else adds a record. Leaves at the depth bound D
// cannot split and are exempt. (The same induction keeps a serial leaf
// two records short of the bound: the tree's first leaf splits at
// theta_split, at depth 1.)
//
// Writers racing on one leaf are held to it without a fence. A patch
// carries no epoch (dht.Patcher's Patch), so nothing orders the writes
// that land between a threshold-crossing patch and the split's intent
// mark, and each could add a record; the split's writer, its mark now
// stale, yields. So the storing peer refuses a key the leaf does not hold
// once the leaf weighs theta_split + len(label), answering with the
// bucket, and the writer splits it before it starts over (Index.full);
// the whole-bucket arm does the same with a bucket it holds. No leaf
// weighs past the bound, however the writers interleave, and a serial
// history never meets the refusal.
func (ix *Index) overweight(b *Bucket) bool {
	return b.Label.Len() < ix.cfg.Depth && b.Weight() > ix.cfg.SplitThreshold+b.Label.Len()
}

// Count returns the total number of indexed records, via a full leaf walk
// (testing/inspection helper).
func (ix *Index) Count() (int, error) {
	leaves, err := ix.Leaves()
	if err != nil {
		return 0, err
	}
	var n int
	for _, b := range leaves {
		n += len(b.Records)
	}
	return n, nil
}
