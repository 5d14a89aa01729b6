package lht

// This file implements Index.Scrub: a walk over the reachable label space
// that verifies the structural invariants the paper's theorems rely on
// and repairs the violations recovery knows how to fix. It is the offline
// counterpart of the lookup path's in-line read-repair: read-repair heals
// tears as query traffic happens to touch them, Scrub heals the whole
// tree in one pass and reports what it found.

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/metrics"
	"lht/internal/record"
)

// ScrubReport is the typed outcome of one Scrub pass.
type ScrubReport struct {
	Leaves     int // leaves visited by the walk
	Records    int // records held by those leaves
	Lookups    int // DHT-lookups the pass spent (also in ScrubLookups)
	TornSplits int // split intents found and resolved
	TornMerges int // merge intents found and resolved
	Orphans    int // orphaned buckets (stale mutation remnants) removed
	Strays     int // records found outside their leaf's interval, relocated
	Repairs    int // total repairs applied (tears + orphans + strays)

	// Replica-repair pass (Config.Rereplicate over a dht.Rereplicator
	// substrate; all zero otherwise): per-owner existence probes issued,
	// copies found missing from an owner, and copies restored from the
	// highest-epoch surviving replica.
	ReplicaProbes   int
	ReplicaMissing  int
	ReplicaRestored int

	// Violations describes every invariant violation observed, including
	// ones Scrub repaired; an entry prefixed with "unrepaired:" needs
	// operator attention (typically lost data after unreplicated churn).
	Violations []string
}

// Clean reports a fully consistent pass: nothing repaired, nothing to
// report.
func (r *ScrubReport) Clean() bool {
	return r.Repairs == 0 && r.ReplicaRestored == 0 && len(r.Violations) == 0
}

// String formats the report for logs and CLI output.
func (r *ScrubReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: %d leaves, %d records, %d DHT-lookups", r.Leaves, r.Records, r.Lookups)
	if r.ReplicaProbes > 0 {
		fmt.Fprintf(&b, ", replicas %d probed/%d missing/%d restored",
			r.ReplicaProbes, r.ReplicaMissing, r.ReplicaRestored)
	}
	if r.Clean() {
		b.WriteString(", clean")
		return b.String()
	}
	fmt.Fprintf(&b, ", %d repairs (%d torn splits, %d torn merges, %d orphans, %d strays)",
		r.Repairs, r.TornSplits, r.TornMerges, r.Orphans, r.Strays)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// maxScrubRounds bounds how many times one Scrub call restarts its walk
// after a repair that changed tree structure behind the walk position.
const maxScrubRounds = 8

// Scrub walks the reachable label space left to right, verifying the
// structural invariants — the leaves' intervals partition [0, 1) in walk
// order, every leaf is stored under its name f_n(label) and the naming is
// injective (Theorem 1), every record lies inside its leaf's interval,
// and no bucket is orphaned (stored under a leaf's own label key, where
// only a live subtree may store one) — and repairs what recovery can fix:
//
//   - torn split/merge intents are completed or rolled back (repairTorn);
//   - an orphaned bucket shadowed by a newer overlapping leaf is removed;
//     a leaf shadowed by a newer subtree under its own label key is
//     re-split so the two agree (both arise from non-graceful churn
//     resurrecting stale replicas, not from crashes — intents cover those);
//   - records outside their leaf's interval are relocated through the
//     normal insert path.
//
// Scrub returns a typed report; the error is non-nil only when the walk
// itself could not proceed (substrate failure or unrecoverable structure).
// A scrub of a consistent tree performs no writes, so it is safe to run
// concurrently with readers; like all writers, a repairing scrub must be
// serialized against other writers by the caller.
func (ix *Index) Scrub(ctx context.Context) (rep *ScrubReport, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpScrub, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	rep = &ScrubReport{}
	before := ix.c.Snapshot()
	var cost Cost
	defer func() {
		d := ix.c.Snapshot().Sub(before)
		rep.Lookups = int(cost.Lookups)
		rep.TornSplits = int(d.Repair.TornSplits)
		rep.TornMerges = int(d.Repair.TornMerges)
		rep.Repairs = int(d.Repair.Repairs) + rep.Strays
		ix.c.Add(metrics.ScrubLookups, int64(cost.Lookups))
	}()

	var strays []record.Record
	var keys []string
	for round := 0; round < maxScrubRounds; round++ {
		again, err := ix.scrubWalk(ctx, rep, &cost, &strays, &keys)
		if err != nil {
			return rep, err
		}
		if !again {
			// Relocate stray records through the normal insert path, now
			// that the tree tiling is verified.
			for _, r := range strays {
				c, err := ix.InsertContext(ctx, r)
				cost.Add(c)
				if err != nil {
					return rep, fmt.Errorf("lht: scrub relocate %g: %w", r.Key, err)
				}
			}
			// With the tiling verified, the visited keys are exactly the
			// live storage keys: restore any replica copies churn lost.
			if err := ix.scrubRereplicate(ctx, keys, rep, &cost); err != nil {
				return rep, err
			}
			return rep, nil
		}
		// A structural repair changed the region already walked; start
		// over (repairs are idempotent, so re-walking is safe).
		rep.Leaves, rep.Records = 0, 0
		keys = keys[:0]
	}
	return rep, fmt.Errorf("%w: scrub did not converge after %d rounds", ErrCorrupt, maxScrubRounds)
}

// scrubWalk performs one left-to-right pass. It returns again=true when a
// repair changed structure behind the walk position, asking Scrub to
// restart the pass.
func (ix *Index) scrubWalk(ctx context.Context, rep *ScrubReport, cost *Cost, strays *[]record.Record, keys *[]string) (again bool, err error) {
	// Walk fetches are probe traffic; repairTorn re-attributes its own
	// lookups to PhaseRepair.
	ctx = metrics.WithPhase(ctx, metrics.PhaseProbe)
	names := make(map[string]bitlabel.Label)
	want := 0.0
	for from := bitlabel.Root; ; {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("lht: scrub: %w", err)
		}
		// The leftmost leaf first, then the leftmost leaf of the nearest
		// right branch.
		key, b, err := ix.nextLeaf(ctx, from, sweepRight, true, cost)
		if err != nil {
			return false, fmt.Errorf("lht: scrub walk %w", err)
		}
		if b == nil {
			if want != 1 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("unrepaired: leaves tile [0, %g), want [0, 1)", want))
			}
			return false, nil
		}

		// Shadow check: nothing may be stored under a live leaf's own
		// label key — a leaf there means either our bucket or the stored
		// one is a stale remnant (resurrected replica after churn); the
		// epoch decides which.
		if b.Label.Len() < ix.cfg.Depth {
			nb, changed, err := ix.scrubShadow(ctx, key, b, rep, cost)
			if err != nil {
				return false, err
			}
			if changed {
				return true, nil
			}
			b = nb
		}

		// Storage invariant: the bucket under key must be named key.
		if b.Label.Name().Key() != key {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("unrepaired: key %s holds leaf %s, whose name is %s", key, b.Label, b.Label.Name()))
		}
		// Naming injectivity (Theorem 1).
		if prev, dup := names[key]; dup {
			return false, fmt.Errorf("%w: scrub revisited key %s (leaves %s and %s)", ErrCorrupt, key, prev, b.Label)
		}
		names[key] = b.Label

		// Tiling: this leaf must start where the previous one ended.
		iv := b.Interval()
		switch {
		case iv.Lo < want:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("unrepaired: leaf %s overlaps preceding coverage (starts %g, want %g)", b.Label, iv.Lo, want))
		case iv.Lo > want:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("unrepaired: coverage gap [%g, %g) before leaf %s", want, iv.Lo, b.Label))
		}

		// Records must lie inside the leaf's interval; strays are pulled
		// out (free in-place rewrite) and relocated after the walk.
		var out []record.Record
		for _, r := range b.Records {
			if !iv.Contains(r.Key) {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			nb := *b
			nb.Records = record.FilterRange(nil, b.Records, iv.Lo, iv.Hi)
			nb.Epoch++
			werr := ix.d.WriteIf(ctx, key, &nb, b.Epoch)
			if errors.Is(werr, dht.ErrCASConflict) || errors.Is(werr, dht.ErrNotFound) {
				// A concurrent writer advanced the leaf under us; restart
				// the pass and re-examine what is stored now.
				return true, nil
			}
			if werr != nil {
				return false, fmt.Errorf("lht: scrub drop strays %q: %w", key, werr)
			}
			b = &nb
			*strays = append(*strays, out...)
			rep.Strays += len(out)
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("relocated %d record(s) outside leaf %s %v", len(out), b.Label, iv))
		}

		// Weight bound: more than theta plus the leaf's depth (overweight)
		// means maintenance is not keeping up.
		if ix.overweight(b) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("unrepaired: leaf %s weight %d exceeds threshold %d + depth %d", b.Label, b.Weight(), ix.cfg.SplitThreshold, b.Label.Len()))
		}

		rep.Leaves++
		rep.Records += len(b.Records)
		*keys = append(*keys, key)
		want = iv.Hi
		from = b.Label
	}
}

// scrubRereplicate restores the replica count of every live storage key
// after the structural walk verified the tree. It is a no-op unless
// Config.Rereplicate is set and the bare substrate implements
// dht.Rereplicator (the tcpnet cluster client). The repair traffic
// bypasses the instrumented stack — EnsureReplicated speaks raw tagged
// bytes below the codec — so its per-owner probes and restores are
// charged to the scrub's cost here, one lookup per round trip, keeping
// the global counters honest while leaving every query/mutation cost row
// untouched.
//
// A key whose owners are all unreachable is reported as an unrepaired
// violation rather than failing the scrub: the structural verdict above
// it is still valid, and the next pass retries.
func (ix *Index) scrubRereplicate(ctx context.Context, keys []string, rep *ScrubReport, cost *Cost) error {
	rr, ok := ix.rereplicator()
	if !ok {
		return nil
	}
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("lht: scrub re-replication: %w", err)
		}
		r, err := rr.EnsureReplicated(ctx, k)
		trips := r.Probes + r.Restored
		cost.Lookups += trips
		cost.Steps += trips
		ix.c.Add(metrics.Lookups, int64(trips))
		ix.c.AddPhaseLookups(metrics.OpScrub, metrics.PhaseRepair, int64(trips))
		rep.ReplicaProbes += r.Probes
		rep.ReplicaMissing += r.Missing
		rep.ReplicaRestored += r.Restored
		if err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("unrepaired: re-replication of key %s: %v", k, err))
		} else if r.Missing > r.Restored {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("unrepaired: key %s still missing %d replica cop(ies)", k, r.Missing-r.Restored))
		}
	}
	return nil
}

// scrubShadow probes the leaf's own label key. A consistent tree stores
// nothing there (a leaf has no descendants, and only a descendant's name
// can equal the leaf's label). A bucket found there is a stale-replica
// conflict; the epoch orders the two structures:
//
//   - shadow newer: our "leaf" is a pre-split remnant — complete the
//     split against the live remote subtree and restart the walk;
//   - shadow older or equal: the shadow is an orphan (pre-merge child
//     resurrected after its parent absorbed it) — remove it.
func (ix *Index) scrubShadow(ctx context.Context, key string, b *Bucket, rep *ScrubReport, cost *Cost) (*Bucket, bool, error) {
	cost.Steps++
	shadow, err := ix.peekBucket(ctx, b.Label.Key(), cost)
	if errors.Is(err, dht.ErrNotFound) {
		return b, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lht: scrub shadow probe %s: %w", b.Label, err)
	}
	if !b.Label.IsPrefixOf(shadow.Label) || shadow.Label == b.Label {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("unrepaired: key %s holds %s, not a descendant of leaf %s", b.Label.Key(), shadow.Label, b.Label))
		return b, false, nil
	}
	if shadow.Epoch > b.Epoch {
		// The subtree under our label is live and newer: this bucket is a
		// stale pre-split leaf. Completing the split (remote side kept as
		// stored) reconciles the two.
		ix.c.Add(metrics.TornSplits, 1)
		if _, _, err := ix.completeSplit(ctx, key, splitHalves(b), cost, true, false); err != nil {
			return nil, false, fmt.Errorf("lht: scrub reconcile stale leaf %s: %w", b.Label, err)
		}
		ix.c.Add(metrics.Repairs, 1)
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("re-split stale leaf %s shadowed by newer %s", b.Label, shadow.Label))
		return nil, true, nil
	}
	// The shadow is older: an orphaned remnant whose records the live
	// leaf already carries. Remove it — at the epoch we just observed; a
	// conflict means the "orphan" is being written to right now, so
	// restart the pass rather than delete live data.
	cost.Lookups++
	cost.Steps++
	rerr := ix.d.RemoveIf(ctx, b.Label.Key(), shadow.Epoch)
	if errors.Is(rerr, dht.ErrCASConflict) {
		return nil, true, nil
	}
	if rerr != nil {
		return nil, false, fmt.Errorf("lht: scrub remove orphan %s: %w", shadow.Label, rerr)
	}
	ix.c.Add(metrics.Repairs, 1)
	rep.Orphans++
	rep.Violations = append(rep.Violations,
		fmt.Sprintf("removed orphan %s (epoch %d) shadowing leaf %s (epoch %d)", shadow.Label, shadow.Epoch, b.Label, b.Epoch))
	return b, false, nil
}
