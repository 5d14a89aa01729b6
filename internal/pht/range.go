package pht

import (
	"context"
	"errors"
	"fmt"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/metrics"
	"lht/internal/record"
)

// ErrBadRange reports a malformed range query.
var ErrBadRange = errors.New("pht: invalid range")

func checkRange(lo, hi float64) error {
	if err := keyspace.CheckKey(lo); err != nil {
		return fmt.Errorf("%w: lo: %v", ErrBadRange, err)
	}
	if !(hi > lo && hi <= 1) {
		return fmt.Errorf("%w: [%v, %v)", ErrBadRange, lo, hi)
	}
	return nil
}

// RangeSequential is PHT's chain-walking range algorithm (Ramabhadran et
// al.): look up the leaf covering the lower bound, then follow the
// B+-tree Next links until past the upper bound. Bandwidth is
// near-optimal - one DHT-lookup per result leaf plus the initial lookup -
// but every hop depends on the previous one, so latency equals bandwidth:
// the order-of-magnitude gap of Fig. 10.
func (ix *Index) RangeSequential(lo, hi float64) ([]record.Record, Cost, error) {
	return ix.RangeSequentialContext(context.Background(), lo, hi)
}

// RangeSequentialContext is RangeSequential with a caller-supplied
// context; cancellation stops the chain walk at the next hop.
func (ix *Index) RangeSequentialContext(ctx context.Context, lo, hi float64) (out []record.Record, cost Cost, err error) {
	if err := checkRange(lo, hi); err != nil {
		return nil, Cost{}, err
	}
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpRange, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	n, cost, err := ix.lookupLeaf(ctx, lo)
	if err != nil {
		return nil, cost, err
	}
	// The chain walk is forwarding traffic, like LHT's range sweep.
	ctx = metrics.WithPhase(ctx, metrics.PhaseForward)
	for {
		out = record.FilterRange(out, n.Records, lo, hi)
		if !n.HasNext || n.Interval().Hi >= hi {
			cost.Steps = cost.Lookups
			return out, cost, nil
		}
		next, err := ix.getNode(ctx, n.Next.Key(), &cost)
		if err != nil {
			cost.Steps = cost.Lookups
			return out, cost, fmt.Errorf("pht: chain walk to %s: %w", n.Next, err)
		}
		n = next
	}
}

// RangeParallel is PHT's trie-fanning range algorithm (Chawathe et al.):
// from the range's LCA, recursively visit both children of every internal
// node overlapping the range, all siblings in parallel. Latency is the
// trie depth below the LCA, but bandwidth roughly doubles - every internal
// node on the way down costs a DHT-lookup that returns no records, which
// is why Fig. 9 shows PHT(parallel) as the most bandwidth-hungry of the
// three algorithms.
func (ix *Index) RangeParallel(lo, hi float64) ([]record.Record, Cost, error) {
	return ix.RangeParallelContext(context.Background(), lo, hi)
}

// RangeParallelContext is RangeParallel with a caller-supplied context;
// cancellation stops the trie descent before further node fetches.
//
// The descent runs breadth-first: each trie level below the LCA is one
// frontier, fetched with a single multi-get (one round trip per level on
// a batch-native substrate). The fan-out per level is exactly the
// parallelism the algorithm's latency model always assumed — Lookups and
// Steps are identical to a node-at-a-time descent; only round trips
// change.
func (ix *Index) RangeParallelContext(ctx context.Context, lo, hi float64) (out []record.Record, cost Cost, err error) {
	if err := checkRange(lo, hi); err != nil {
		return nil, Cost{}, err
	}
	// The trie descent fans the query out level by level.
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpRange, metrics.PhaseForward)
	defer func() { scope.Done(err) }()
	r := keyspace.Interval{Lo: lo, Hi: hi}
	lca := keyspace.RangeLCA(r, ix.cfg.Depth)

	var depth int
	frontier := []bitlabel.Label{lca}
	for len(frontier) > 0 {
		depth++
		keys := make([]string, len(frontier))
		for i, label := range frontier {
			keys[i] = label.Key()
		}
		cost.Lookups += len(keys)
		vals, errs := dht.DoGetBatch(ctx, ix.d, keys)

		var next []bitlabel.Label
		for i, label := range frontier {
			if errors.Is(errs[i], dht.ErrNotFound) {
				if label == lca {
					// The trie is shallower than the LCA: the whole range
					// lies in one leaf, found by an ordinary lookup.
					n, lcost, err := ix.lookupLeaf(ctx, lo)
					cost.Lookups += lcost.Lookups
					cost.Steps = depth + lcost.Steps
					if err != nil {
						return nil, cost, err
					}
					out = record.FilterRange(out, n.Records, lo, hi)
					return out, cost, nil
				}
				return nil, cost, fmt.Errorf("%w: internal node %s lacks child %s", ErrCorrupt, label.Parent(), label)
			}
			n, err := nodeOf(vals[i], errs[i], keys[i])
			if err != nil {
				return nil, cost, err
			}
			if n.Leaf {
				out = record.FilterRange(out, n.Records, r.Lo, r.Hi)
				continue
			}
			// Internal: both children exist; descend into the overlapping
			// ones next level.
			for _, child := range []bitlabel.Label{label.Left(), label.Right()} {
				if keyspace.IntervalOf(child).Overlaps(r) {
					next = append(next, child)
				}
			}
		}
		frontier = next
	}
	cost.Steps = depth
	return out, cost, nil
}

// nodeOf type-asserts one get outcome (per-op or one slot of a batched
// multi-get) into a trie node.
func nodeOf(v dht.Value, err error, key string) (*Node, error) {
	if err != nil {
		return nil, err
	}
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("%w: key %q holds %T, not a node", ErrCorrupt, key, v)
	}
	return n, nil
}

// Leaves returns every leaf in key order by walking the chain from the
// leftmost leaf (testing/inspection helper).
func (ix *Index) Leaves() ([]*Node, error) {
	var cost Cost
	// Descend the leftmost path.
	ctx := context.Background()
	label := bitlabel.TreeRoot
	for {
		n, err := ix.getNode(ctx, label.Key(), &cost)
		if err != nil {
			return nil, fmt.Errorf("pht: leftmost descent at %s: %w", label, err)
		}
		if n.Leaf {
			leaves := []*Node{n}
			for n.HasNext {
				next, err := ix.getNode(ctx, n.Next.Key(), &cost)
				if err != nil {
					return nil, fmt.Errorf("pht: chain walk to %s: %w", n.Next, err)
				}
				leaves = append(leaves, next)
				n = next
			}
			return leaves, nil
		}
		label = label.Left()
	}
}

// CheckInvariants verifies the trie and chain structure: leaves tile
// [0, 1) in chain order, links are symmetric, every record lies in its
// leaf's interval, every ancestor of a leaf is an internal marker, and no
// leaf below the depth bound has runaway weight (transient overflow up to
// the threshold is expected, as in LHT).
func (ix *Index) CheckInvariants() error {
	leaves, err := ix.Leaves()
	if err != nil {
		return err
	}
	want := 0.0
	for i, n := range leaves {
		iv := n.Interval()
		if iv.Lo != want {
			return fmt.Errorf("%w: leaf %s starts at %g, want %g", ErrCorrupt, n.Label, iv.Lo, want)
		}
		want = iv.Hi
		if i > 0 && (!n.HasPrev || n.Prev != leaves[i-1].Label) {
			return fmt.Errorf("%w: leaf %s prev link broken", ErrCorrupt, n.Label)
		}
		if i == 0 && n.HasPrev {
			return fmt.Errorf("%w: leftmost leaf %s has a prev link", ErrCorrupt, n.Label)
		}
		for _, r := range n.Records {
			if !iv.Contains(r.Key) {
				return fmt.Errorf("%w: record %g outside leaf %s %v", ErrCorrupt, r.Key, n.Label, iv)
			}
		}
		if n.Label.Len() < ix.cfg.Depth && n.Weight() > 2*ix.cfg.SplitThreshold {
			return fmt.Errorf("%w: leaf %s weight %d exceeds 2x threshold", ErrCorrupt, n.Label, n.Weight())
		}
		// Every proper ancestor must be an internal marker.
		for k := 1; k < n.Label.Len(); k++ {
			var c Cost
			anc, err := ix.getNode(context.Background(), n.Label.Prefix(k).Key(), &c)
			if err != nil {
				return fmt.Errorf("%w: ancestor %s of %s missing: %v", ErrCorrupt, n.Label.Prefix(k), n.Label, err)
			}
			if anc.Leaf {
				return fmt.Errorf("%w: ancestor %s of leaf %s is a leaf", ErrCorrupt, anc.Label, n.Label)
			}
		}
	}
	if want != 1 {
		return fmt.Errorf("%w: leaves tile [0, %g), want [0, 1)", ErrCorrupt, want)
	}
	if last := leaves[len(leaves)-1]; last.HasNext {
		return fmt.Errorf("%w: rightmost leaf %s has a next link", ErrCorrupt, last.Label)
	}
	return nil
}

// Count returns the total number of indexed records (testing helper).
func (ix *Index) Count() (int, error) {
	leaves, err := ix.Leaves()
	if err != nil {
		return 0, err
	}
	var total int
	for _, n := range leaves {
		total += len(n.Records)
	}
	return total, nil
}
