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
// stops the walk at the next leaf fetch. It only reads: a torn leaf is
// listed as stored.
func (ix *Index) LeavesContext(ctx context.Context) ([]*Bucket, error) {
	var cost Cost
	var leaves []*Bucket
	for from := bitlabel.Root; ; {
		_, b, err := ix.nextLeaf(ctx, from, sweepRight, false, &cost)
		switch {
		case err != nil:
			return nil, fmt.Errorf("lht: walk %w", err)
		case b == nil:
			return leaves, nil
		}
		leaves = append(leaves, b)
		from = b.Label
	}
}

// nextLeaf is Algorithm 3's neighbour step, the one every leaf walk takes
// (Leaves, Scan, Min/Max, Scrub; the range sweep batches its own): the
// leaf next to the leaf labelled from in direction dir, with its key, or
// a nil bucket past the tree's edge. That leaf is the near end of beta,
// the nearest branch that way (dir.neighbor), entered as the range sweep
// enters its partially covered branch, with from the leaf beside it
// (enterBeside): beta's sibling is tried under f_n(beta) first, and a
// shallower beta under its own key. From the virtual root it is the
// tree's first leaf that way: "#" walking right (the virtual root's own
// key, and nowhere else), "#0" ("#" on a single-leaf tree) walking left —
// Theorem 3's one lookup. Each fetch is one lookup and one step.
//
// With repair (the queries' walks and Scrub's), a torn leaf is repaired
// as Algorithm 2's probes repair theirs; without (Leaves), it is returned
// as stored. A split of beta, repaired or landed after beta's own key
// missed, leaves beta's far half under f_n(beta): the step then runs
// once more, from beta's own key.
func (ix *Index) nextLeaf(ctx context.Context, from bitlabel.Label, dir sweepDir, repair bool, cost *Cost) (string, *Bucket, error) {
	e := branchEntry{beta: bitlabel.Root, try: tryOwn}
	switch {
	case !from.IsRoot():
		beta, ok := dir.neighbor(from)
		if !ok {
			return "", nil, nil
		}
		e = enterBeside(beta, from.Len())
	case dir == sweepLeft:
		e.beta = bitlabel.TreeRoot
	}
	for again := true; ; {
		key := e.key()
		b, err := ix.getBucket(ctx, key, cost)
		cost.Steps++
		if err == nil && repair && b.Torn() {
			b, err = ix.repairTorn(ctx, key, b, cost)
		}
		if err == nil || errors.Is(err, dht.ErrNotFound) {
			var got bitlabel.Label
			if err == nil {
				got = b.Label
			}
			if ne, ok := e.next(got, err == nil); ok {
				e = ne
				continue
			}
			// beta's own key missed, and then beta split: the repair
			// completed it, or it landed in between, and its far half
			// keeps f_n(beta).
			if err == nil && again && e.try == tryName && e.farEnd(got) {
				again, e = false, branchEntry{beta: e.beta, try: tryOwn}
				continue
			}
		}
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", e.beta, err)
		}
		return key, b, nil
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
