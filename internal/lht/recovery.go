package lht

// This file implements torn-mutation recovery: completing or rolling back
// splits and merges whose writer crashed mid-rewrite.
//
// Both structural mutations record a write-ahead intent (Bucket.Pending)
// in the surviving bucket before their first routed write and clear it
// with their last, so every intermediate state of a crashed mutation is
// detectable from a single fetch. The lookup path (Algorithm 2) and Scrub
// call repairTorn on any bucket fetched with an uncleared intent; repair
// is idempotent and deterministic, so any number of clients can race to
// repair the same tear and converge on the same tree — byte-identical to
// the one a never-crashed writer would have produced.

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

// splitHalves cuts the (possibly intent-marked) full leaf b at its
// interval median, exactly as Algorithm 1 does: the local half keeps the
// name f_n(lambda), the remote half is named lambda itself. The partition
// is a pure function of the bucket, which is what makes split recovery
// deterministic: re-deriving the halves from the marked bucket yields the
// same bytes the crashed writer was about to write.
func splitHalves(b *Bucket) *Cut {
	localLabel, mid, low := splitAt(b.Label)
	var below, above []record.Record // keys < mid, and the rest
	for _, r := range b.Records {
		if r.Key < mid {
			below = append(below, r)
		} else {
			above = append(above, r)
		}
	}
	localRecs, remoteRecs := above, below
	if low {
		localRecs, remoteRecs = below, above
	}
	local := &Bucket{Label: localLabel, Records: localRecs, Epoch: b.Epoch + 1}
	remote := &Bucket{Label: localLabel.Sibling(), Records: remoteRecs, Epoch: b.Epoch + 1}
	return &Cut{leaf: b, local: local, remote: remote, n: len(localRecs)}
}

// A Cut is a split as its steps take it: the leaf as its intent marks it,
// and its halves. A split reply (see "Patches") decodes to one less the
// records that stay put, the leaf's and the local half's, which n counts.
type Cut struct {
	leaf, local, remote *Bucket
	n                   int
}

// splitAt is where Algorithm 1 cuts the leaf lambda: at its interval's
// median mid, into the local child, which keeps the name f_n(lambda) and
// the peer, and its sibling, named lambda itself. low says which side of
// mid the local child takes: the keys below it, or the rest.
func splitAt(lambda bitlabel.Label) (local bitlabel.Label, mid float64, low bool) {
	iv := keyspace.IntervalOf(lambda)
	mid = iv.Lo + (iv.Hi-iv.Lo)/2
	if lambda.LastBit() == 1 {
		// lambda = p011*: the remote leaf is lambda0 (named lambda), the
		// local leaf is lambda1 (named f_n(lambda)).
		return lambda.Right(), mid, false
	}
	// lambda = p100* or #00*: the remote leaf is lambda1 (named lambda),
	// the local leaf is lambda0.
	return lambda.Left(), mid, true
}

// completeSplit performs the routed steps of Algorithm 1 on c, the Cut of
// the intent-marked bucket stored under key: push the remote half to the
// peer responsible for lambda (one DHT-put, Theorem 2), then write the
// shrunk local half back in place, clearing the intent.
//
// With repair set, the call is finishing another writer's crashed split:
// the remote half may already exist (the crash happened after the put),
// possibly with newer writes absorbed since, so it is probed first and
// left untouched if present. The in-flight path skips the probe — the
// caller just fetched lambda as a leaf, so nothing can be stored under
// lambda's own key. With inPlace, the in-flight split of a patched write,
// the local half is written back as a patch (writeInPlace).
func (ix *Index) completeSplit(ctx context.Context, key string, c *Cut, cost *Cost, repair, inPlace bool) (local, remote *Bucket, err error) {
	lambda := c.leaf.Label
	local, remote = c.local, c.remote
	put := true
	if repair {
		cost.Steps++
		existing, err := ix.peekBucket(ctx, lambda.Key(), cost)
		switch {
		case err == nil:
			// The crashed writer's put landed (and the remote side may
			// have evolved since): keep what is stored.
			remote = existing
			put = false
		case !errors.Is(err, dht.ErrNotFound):
			return nil, nil, err
		}
	}
	if put {
		// Create-if-absent: racing repairers of the same tear derive the
		// same remote half, so the loser's conflict just means the push is
		// already done (and the stored copy may have evolved since — the
		// derived halves stay valid for the caller's case analysis, and
		// any mutation rebased on them is CAS-checked before it commits).
		cost.Lookups++
		cost.Steps++
		err := ix.d.CreateIf(ctx, lambda.Key(), remote)
		if err != nil && !errors.Is(err, dht.ErrCASConflict) {
			return nil, nil, fmt.Errorf("lht: split put %s: %w", lambda, err)
		}
	}
	// Write the shrunk local half back in place (no lookup); this clears
	// the intent, committing the split. The write is guarded by the marked
	// bucket's epoch: a conflict (or a vanished key) means a racing
	// repairer already committed this very split — the halves are a pure
	// function of the marked bucket, so the committed state is ours.
	local, err = ix.writeInPlace(ctx, key, patchCommitSplit, local, c.n, c.leaf.Epoch, inPlace, cost)
	if err != nil && !errors.Is(err, dht.ErrCASConflict) && !errors.Is(err, dht.ErrNotFound) {
		return nil, nil, fmt.Errorf("lht: split write %q: %w", key, err)
	}
	// This client just observed both children; lambda is now internal.
	ix.cacheDrop(lambda)
	ix.cacheNote(local.Label)
	ix.cacheNote(remote.Label)
	return local, remote, nil
}

// completeMerge resolves a torn merge: b is the merged bucket fetched
// under key with an uncleared PendingMerge intent. If the obsolete child
// named by the intent is unchanged since the merge began (same label and
// epoch), the merge rolls forward: remove the child, clear the intent.
// If the child has evolved — another client wrote to it after the crash,
// so its records are newer than the merged copy — the merge rolls back:
// the bucket under key shrinks to the surviving child and the evolved
// child is left untouched. Both outcomes restore a consistent tiling.
func (ix *Index) completeMerge(ctx context.Context, key string, b *Bucket, cost *Cost) (*Bucket, error) {
	rmKey := b.Pending.RemoveKey
	removed, ok := removedChildOf(b)
	if !ok {
		return nil, fmt.Errorf("%w: merge intent on %s names unrelated key %q", ErrCorrupt, b.Label, rmKey)
	}
	forward := false
	stale, err := ix.peekBucket(ctx, rmKey, cost)
	switch {
	case errors.Is(err, dht.ErrNotFound):
		// The crashed writer already removed the child: only the final
		// intent-clearing write was lost.
		forward = true
	case err != nil:
		return nil, err
	case stale.Label == removed && stale.Epoch == b.Pending.PeerEpoch:
		// The child looks exactly as the merge saw it: roll forward, but
		// only at that epoch — a concurrent writer slipping in between the
		// peek and the remove loses nothing, it just flips this repair to
		// a rollback.
		cost.Lookups++
		cost.Steps++
		rerr := ix.d.RemoveIf(ctx, rmKey, b.Pending.PeerEpoch)
		switch {
		case rerr == nil:
			forward = true
		case !errors.Is(rerr, dht.ErrCASConflict):
			return nil, fmt.Errorf("lht: repair merge remove %q: %w", rmKey, rerr)
		}
	}
	// Rolling forward clears the intent: the merged leaf stands, the
	// removed child is gone.
	nb := *b
	nb.Pending = Pending{}
	gone, what := removed, "repair merge clear"
	if !forward {
		// The child changed since the crash: roll the merge back. The
		// surviving child (the one named f_n(parent)) keeps the records
		// of the merged copy that fall in its half; the evolved child
		// keeps its own.
		keeper := b.Label.Child(b.Label.LastBit())
		kiv := keyspace.IntervalOf(keeper)
		nb = Bucket{Label: keeper, Records: record.FilterRange(nil, b.Records, kiv.Lo, kiv.Hi), Epoch: b.Epoch + 1}
		gone, what = b.Label, "rollback merge"
	}
	out, written, err := ix.rewrite(ctx, key, &nb, b.Epoch, what, cost)
	if written {
		ix.cacheDrop(gone)
		ix.cacheNote(nb.Label)
	}
	return out, err
}

// rewrite writes nb in place under key for a repair, guarded by epoch, the
// torn bucket's. A conflict or a vanished key means a racing repairer (or
// writer) resolved the tear first: whatever is stored now is adopted
// instead, and written is false.
func (ix *Index) rewrite(ctx context.Context, key string, nb *Bucket, epoch uint64, what string, cost *Cost) (b *Bucket, written bool, err error) {
	err = ix.d.WriteIf(ctx, key, nb, epoch)
	switch {
	case errors.Is(err, dht.ErrCASConflict) || errors.Is(err, dht.ErrNotFound):
		b, err = ix.peekBucket(ctx, key, cost)
		return b, false, err
	case err != nil:
		return nil, false, fmt.Errorf("lht: %s %q: %w", what, key, err)
	}
	return nb, true, nil
}

// removedChildOf identifies the child of the merged bucket's label that
// the recorded intent removes: the child named by the parent's own label
// (the other child inherits f_n(parent) and lives on in the merged slot).
func removedChildOf(b *Bucket) (removed bitlabel.Label, ok bool) {
	for _, c := range []bitlabel.Label{b.Label.Left(), b.Label.Right()} {
		if c.Name().Key() == b.Pending.RemoveKey {
			return c, true
		}
	}
	return bitlabel.Label{}, false
}

// repairTorn resolves the torn mutation recorded in b, which was fetched
// from under key. It returns the bucket now stored under key, charging
// the extra traffic to cost, the torn/repair counters, and maintenance
// lookups (repair is structure maintenance deferred past a crash).
func (ix *Index) repairTorn(ctx context.Context, key string, b *Bucket, cost *Cost) (*Bucket, error) {
	// Repair traffic is attributed to PhaseRepair regardless of which
	// operation tripped over the torn bucket — this is deferred
	// maintenance, not the operation's own cost class. Set here rather
	// than in completeSplit/completeMerge, which split() and merge()
	// also call under their own phases.
	ctx = metrics.WithPhase(ctx, metrics.PhaseRepair)
	if b.Label.IsRoot() {
		return nil, fmt.Errorf("%w: key %q holds an intent on the virtual root", ErrCorrupt, key)
	}
	before := cost.Lookups
	var out *Bucket
	var err error
	switch b.Pending.Kind {
	case PendingSplit:
		ix.c.Add(metrics.TornSplits, 1)
		if b.Label.Len() >= ix.cfg.Depth {
			// The split can never complete at the depth bound (a marker
			// left by a writer with a larger configured D, or a corrupt
			// one): roll it back to a plain oversized leaf. Guarded and
			// epoch-preserving: racing repairers write identical bytes,
			// and a conflict means someone else resolved it — adopt theirs.
			nb := *b
			nb.Pending = Pending{}
			out, _, err = ix.rewrite(ctx, key, &nb, b.Epoch, "rollback split", cost)
			break
		}
		out, _, err = ix.completeSplit(ctx, key, splitHalves(b), cost, true, false)
	case PendingMerge:
		ix.c.Add(metrics.TornMerges, 1)
		out, err = ix.completeMerge(ctx, key, b, cost)
	default:
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	ix.c.Add(metrics.Repairs, 1)
	ix.c.Add(metrics.MaintLookups, int64(cost.Lookups-before))
	return out, nil
}

// peekBucket fetches and type-asserts a bucket, charging cost but —
// unlike getBucket — not teaching the leaf cache: recovery probes buckets
// it may be about to delete or supersede.
func (ix *Index) peekBucket(ctx context.Context, key string, cost *Cost) (*Bucket, error) {
	cost.Lookups++
	v, err := ix.d.Get(ctx, key)
	return asBucket(v, err, key)
}
