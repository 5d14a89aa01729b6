package lht

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
var ErrBadRange = errors.New("lht: invalid range")

// bucketRun is what a leaf amounts to for the range query that fetched
// it: the label the sweep goes on from, and the leaf's records inside the
// query's range, still encoded: what a storing peer's run reply to one of
// the query's probes (projectBucket, RangeHint) decodes to, so that the
// join can decode the records straight into the result. A peer's run may
// hold records the query's range does not: the join filters. It is
// unexported and not a dht.WireValue: nothing that handles buckets —
// clone, CAS, write-back, the leaf cache — can be handed one.
type bucketRun struct {
	label bitlabel.Label
	n     int    // records in enc
	enc   []byte // the run's own copy, packed (record.AppendRun); nil when n is 0
}

// appendTo appends to dst the run's records whose keys fall in [lo, hi),
// in run order. Their values alias enc.
func (r *bucketRun) appendTo(dst []record.Record, lo, hi float64) ([]record.Record, error) {
	if r.n == 0 {
		return dst, nil
	}
	return record.UnpackRun(dst, r.enc, keyBits(keyspace.IntervalOf(r.label)), lo, hi)
}

// rangeShare is one leaf's contribution to a range query's result: its
// records, decoded (a fetched bucket's own slice: stored buckets are never
// written in place) or still encoded, of which the join takes those in
// [lo, hi), the subrange the leaf was entered for.
type rangeShare struct {
	recs   []record.Record
	run    *bucketRun
	lo, hi float64
}

// rangeCollector accumulates a range query's results and bandwidth cost.
// The query's goroutine is the only one that touches it.
//
// The result is built once, by snapshot, at its final size: until then
// each leaf's share waits as it was fetched. Over a substrate that cuts
// runs every leaf of an untorn tree arrives as one: every get of a range,
// swept or single, is a probe with the query's range for a hint, cut by
// the storing peer (rangeLeaf).
type rangeCollector struct {
	r    keyspace.Interval // the query's range
	hint uint64            // RangeHint of r: one hint per query

	shares  []rangeShare
	n       int // the result's size, or an upper bound of it
	lookups int
	err     error
}

// addRecords adds a fetched bucket's records in [lo, hi).
func (c *rangeCollector) addRecords(recs []record.Record, lo, hi float64) {
	n := 0
	for i := range recs {
		if recs[i].Key >= lo && recs[i].Key < hi {
			n++
		}
	}
	c.add(rangeShare{recs: recs, lo: lo, hi: hi}, n)
}

// addRun adds a run's records in [lo, hi), a subrange of the query's.
// run.n bounds what the join will take: all of a peer's run but those in
// the margin its hint was rounded out by, unless the stored tree is in a
// state the sweep did not expect.
func (c *rangeCollector) addRun(run *bucketRun, lo, hi float64) {
	c.add(rangeShare{run: run, lo: lo, hi: hi}, run.n)
}

// add queues a share the join will take at most n records from.
func (c *rangeCollector) add(s rangeShare, n int) {
	if n == 0 {
		return
	}
	c.shares = append(c.shares, s)
	c.n += n
}

// isCancellation reports whether err is (or wraps) a context
// cancellation or deadline expiry — the follow-on noise every other
// branch emits once one branch has failed for a real reason.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// setErr records the error the query surfaces. The first error wins,
// with one exception: a stored cancellation yields to a later
// non-cancellation error. A round's slots fail together when its context
// is cancelled, one slot's real fault (say a dead Chord peer) among them;
// whichever slot order those come in, the root cause — not the
// collateral cancellation — must be what the caller sees.
func (c *rangeCollector) setErr(err error) {
	if c.err == nil || (isCancellation(c.err) && !isCancellation(err)) {
		c.err = err
	}
}

// snapshot joins the shares, in the order they were added (round by
// round, each round's in slot order), into the query's result. A run's
// values alias its enc, as a bucket's records alias the buffer it was
// decoded from.
func (c *rangeCollector) snapshot() ([]record.Record, int, error) {
	if c.err != nil || c.n == 0 {
		return nil, c.lookups, c.err
	}
	out := make([]record.Record, 0, c.n)
	for _, s := range c.shares {
		if s.run == nil {
			out = record.FilterRange(out, s.recs, s.lo, s.hi)
			continue
		}
		var err error
		if out, err = s.run.appendTo(out, s.lo, s.hi); err != nil {
			return nil, c.lookups, fmt.Errorf("%w: run of leaf %s: %v", ErrCorrupt, s.run.label, err)
		}
	}
	return out, c.lookups, nil
}

// probeLeaf is a range query's single get, charging the collector.
func (ix *Index) probeLeaf(ctx context.Context, key string, col *rangeCollector) (dht.Value, error) {
	col.lookups++
	v, err := dht.DoProbe(ctx, ix.d, key, col.hint)
	return ix.rangeLeaf(ctx, v, err, key, col)
}

// rangeLeaf takes the reply (v, err) to a range query's get of key: the
// LCA probe (probeLeaf) or a slot of a forwarding round. The query goes
// on from the fetched leaf's label and takes only its records in the
// query's range, so every get is a probe hinted with that range, and a
// substrate that is a dht.Prober may answer an untorn leaf with the run
// of those records, or, when the leaf does not overlap the range, with
// its BucketHeader alone — still one round trip and one DHT-lookup. What comes back is a
// *Bucket, a *bucketRun or such a *BucketHeader, the leaf cache having
// learnt the label from each alike (see forward).
//
// A short reply is trusted no further than a whole bucket: the join
// filters a run as it filters a bucket's records, so a peer that ships too
// much decides nothing, and a header whose label does overlap the range
// or a reply of a form not asked for is dropped and the bucket fetched
// whole with a plain, charged get.
func (ix *Index) rangeLeaf(ctx context.Context, v dht.Value, err error, key string, col *rangeCollector) (dht.Value, error) {
	if err != nil {
		return nil, err
	}
	switch r := v.(type) {
	case *bucketRun:
		ix.cacheNote(r.label)
		return r, nil
	case *BucketHeader:
		if !keyspace.IntervalOf(r.Label).Overlaps(col.r) {
			ix.cacheNote(r.Label)
			return r, nil
		}
	case *BucketRecord:
		// Never asked for by a range.
	default:
		b, err := ix.bucketOf(v, nil, key)
		return ix.wholeLeaf(ctx, key, b, err, col)
	}
	// No current peer sends this. Whatever did, the query needs the leaf.
	col.lookups++
	b, err := ix.fetchBucket(ctx, key)
	return ix.wholeLeaf(ctx, key, b, err, col)
}

// wholeLeaf returns a whole bucket fetched under key as rangeLeaf does: a
// torn one repaired first, as Algorithm 2's probes repair theirs, with the
// repair's lookups charged to col, and the nil *Bucket of a failed fetch
// kept out of the interface. The query goes on from the repaired leaf's
// label, which sweeps both ways across what the repair moved.
func (ix *Index) wholeLeaf(ctx context.Context, key string, b *Bucket, err error, col *rangeCollector) (dht.Value, error) {
	if err == nil && b.Torn() {
		var cost Cost
		b, err = ix.repairTorn(ctx, key, b, &cost)
		col.lookups += cost.Lookups
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// rangeLeafLabel is the label of a leaf as a range query holds it: see
// rangeLeaf for the forms.
func rangeLeafLabel(v dht.Value) bitlabel.Label {
	switch v := v.(type) {
	case *bucketRun:
		return v.label
	case *BucketHeader:
		return v.Label
	}
	return v.(*Bucket).Label
}

// Range answers the range query [lo, hi) (sections 6.1-6.2): it returns
// every indexed record whose key falls in the range. Bounds must satisfy
// 0 <= lo < hi <= 1.
//
// The algorithm is the paper's general case (Algorithm 4): the initiator
// locally computes the range's lowest common ancestor LCA and fetches the
// leaf named f_n(LCA). A miss means the whole range lies in one leaf
// (an exact-match lookup finishes the query); an overlapping bucket starts
// forwarding (Algorithm 3); a non-overlapping bucket descends through
// LCA's two children first. Forwarding needs only each bucket's local
// tree: branch nodes are enumerated with the neighbor functions, and
// every fully-covered branch is entered in one hop through its named leaf.
//
// Cost.Lookups counts every DHT-get (the bandwidth measure, at most B+3
// for B result buckets in the paper's analysis); Cost.Steps counts the
// longest dependent chain (the latency measure): all forwards issued by
// one bucket proceed in parallel. They really do: the query runs a round
// per step, and every get of a round — the branches of every leaf the
// last round fetched, and the second tries of its entries that missed —
// travels in one multi-get, which a networked substrate sends to the
// owning peers at once. So a query makes Cost.Steps substrate calls. The
// paper budgets one failed lookup for each partially covered branch,
// which is tried under its own key and is often a leaf, bound to
// f_n(branch). Here the depth of the leaf beside the branch picks which
// key goes first (enterBeside), so a second try, a wasted lookup and a
// round, is rare: on the ledger's tree 0.1 an op, where it was 0.8.
func (ix *Index) Range(lo, hi float64) ([]record.Record, Cost, error) {
	return ix.RangeContext(context.Background(), lo, hi)
}

// RangeContext is Range with a caller-supplied context. Cancelling the
// context stops the query between rounds: no new round starts, and the
// round in flight observes the cancellation in its substrate calls. The
// partial cost accumulated up to that point is still reported.
func (ix *Index) RangeContext(ctx context.Context, lo, hi float64) (res []record.Record, cost Cost, err error) {
	if err := keyspace.CheckKey(lo); err != nil {
		return nil, cost, fmt.Errorf("%w: lo: %v", ErrBadRange, err)
	}
	if !(hi > lo && hi <= 1) {
		return nil, cost, fmt.Errorf("%w: [%v, %v)", ErrBadRange, lo, hi)
	}
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpRange, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	r := keyspace.Interval{Lo: lo, Hi: hi}
	lca := keyspace.RangeLCA(r, ix.cfg.Depth)

	col := &rangeCollector{r: r, hint: RangeHint(lo, hi)}
	leaf, err := ix.probeLeaf(metrics.WithPhase(ctx, metrics.PhaseProbe), lca.Name().Key(), col)
	switch {
	case errors.Is(err, dht.ErrNotFound):
		// Case 1: no leaf is named f_n(LCA), so the subtree under LCA is
		// a single leaf covering the whole range: exact-match lookup.
		f, lcost, err := ix.lookupLeaf(ctx, lo, false, nil)
		cost.Lookups = col.lookups + lcost.Lookups
		cost.Steps = 1 + lcost.Steps
		if err != nil {
			return nil, cost, err
		}
		return record.FilterRange(nil, f.b.Records, lo, hi), cost, nil
	case err != nil:
		cost.Lookups = col.lookups
		cost.Steps = 1
		return nil, cost, err
	}

	// A round rarely has more probes than fit on the stack.
	var this, next [16]rangeProbe
	first := this[:0]
	if keyspace.IntervalOf(rangeLeafLabel(leaf)).Overlaps(r) {
		// Case 2: the simple case holds from this leaf.
		first = ix.forward(first, leaf, r, col)
	} else {
		// Case 3: descend through both children of the LCA; each child's
		// subrange contains one bound of its half, so forwarding from the
		// entered leaf is again the simple case. A child is entered as a
		// sweep enters its partially covered branch, the leaf bound to
		// f_n(LCA) standing beside it.
		depth := rangeLeafLabel(leaf).Len()
		first = enter(enter(first, lca.Left(), depth, r), lca.Right(), depth, r)
	}
	// Everything from here on is forwarding traffic.
	steps := ix.rounds(metrics.WithPhase(ctx, metrics.PhaseForward), first, next[:0], col)
	out, lookups, err := col.snapshot()
	cost.Lookups = lookups
	cost.Steps = 1 + steps
	if err != nil {
		return nil, cost, err
	}
	return out, cost, nil
}

// rangeProbe is one get of a range query's forwarding: the key it
// fetches, the branch node it enters and how (a fully covered branch
// through its name alone, a partially covered one through whichever of
// its two keys branchEntry tries now), and the subrange of the query the
// fetched leaf is entered for.
type rangeProbe struct {
	key   string // entry.key()
	entry branchEntry
	sub   keyspace.Interval
}

// rounds runs a range query's forwarding from the probes of its first
// forwarding round, queuing each round's successors in next, and returns
// the number of rounds it ran. A round fetches every pending probe at
// once, as one multi-get (a lone key as a single probe), and takes each
// slot in slot order: a leaf's records join the result and its branches
// are the next round's probes; a reply that does not enter a partially
// covered branch (a miss, or a wrong guess's far-end leaf, which joins
// nothing) sends the branch's other key in the next round. A failed
// probe, or a cancelled context, starts no further round.
func (ix *Index) rounds(ctx context.Context, probes, next []rangeProbe, col *rangeCollector) int {
	var (
		keys   []string
		oneV   [1]dht.Value
		oneErr [1]error
		n      int
	)
	for ; len(probes) > 0 && col.err == nil; n++ {
		if err := ctx.Err(); err != nil {
			col.setErr(fmt.Errorf("lht: range forward %s: %w", probes[0].entry.beta, err))
			break
		}
		col.lookups += len(probes)
		vals, errs := oneV[:], oneErr[:]
		if len(probes) == 1 {
			vals[0], errs[0] = dht.DoProbe(ctx, ix.d, probes[0].key, col.hint)
		} else {
			if cap(keys) < len(probes) {
				keys = make([]string, 0, 2*len(probes))
			}
			keys = keys[:0]
			for _, p := range probes {
				keys = append(keys, p.key)
			}
			vals, errs = dht.DoProbeBatch(ctx, ix.d, keys, col.hint)
		}
		next = next[:0]
		for i, p := range probes {
			v, err := ix.rangeLeaf(ctx, vals[i], errs[i], p.key, col)
			if err == nil || errors.Is(err, dht.ErrNotFound) {
				var got bitlabel.Label
				if err == nil {
					got = rangeLeafLabel(v)
				}
				if e, ok := p.entry.next(got, err == nil); ok {
					next = append(next, rangeProbe{key: e.key(), entry: e, sub: p.sub})
					continue
				}
			}
			if err != nil {
				col.setErr(fmt.Errorf("lht: range forward %s: %w", p.entry.beta, err))
				continue
			}
			next = ix.forward(next, v, p.sub, col)
		}
		probes, next = next, probes
	}
	return n
}

// forward is Algorithm 3 at a leaf the query has fetched — whole, as a
// run, or as the header of a leaf with nothing in the query's range —
// entered for sub: it collects the leaf's records in sub and appends to
// next the probes of the branches the leaf forwards to, sweeping toward
// whichever sides of sub extend beyond the leaf's interval.
func (ix *Index) forward(next []rangeProbe, leaf dht.Value, sub keyspace.Interval, col *rangeCollector) []rangeProbe {
	switch leaf := leaf.(type) {
	case *Bucket:
		col.addRecords(leaf.Records, sub.Lo, sub.Hi)
	case *bucketRun:
		col.addRun(leaf, sub.Lo, sub.Hi)
	}
	from := rangeLeafLabel(leaf)
	iv := keyspace.IntervalOf(from)
	if sub.Hi > iv.Hi {
		next = sweep(next, from, sub, sweepRight)
	}
	if sub.Lo < iv.Lo {
		next = sweep(next, from, sub, sweepLeft)
	}
	return next
}

type sweepDir int

const (
	sweepRight sweepDir = iota + 1
	sweepLeft
)

// neighbor is Algorithm 3's neighbour function in direction d, f_rn or
// f_ln: the nearest branch beside the node labelled l that way, false at
// the tree's edge. It is the one call of either: the range sweep
// enumerates its branches with it, and every leaf walk steps with it
// (Index.nextLeaf).
func (d sweepDir) neighbor(l bitlabel.Label) (bitlabel.Label, bool) {
	if d == sweepLeft {
		return l.LeftNeighbor()
	}
	return l.RightNeighbor()
}

// branchEntry is how a sweep or walk enters beta, the nearest branch
// beside a leaf it holds (sweepDir.neighbor), through beta's near-end
// leaf, the one next to the leaf beside it. Two keys can hold that leaf
// (section 6.3): beta's own, when beta is internal, and f_n(beta), when
// beta is itself a leaf. Under f_n(beta) an internal beta keeps its
// far-end leaf instead, strictly inside beta: f_n strips a label's
// trailing run, so f_n(beta) names the leaf reached from beta by
// repeating beta's last bit. The range sweep also enters its fully
// covered branches through f_n(beta) (tryName), for that far-end leaf.
type branchEntry struct {
	beta bitlabel.Label
	try  entryTry
}

// entryTry is the key a branchEntry tries now, and what follows it.
type entryTry uint8

const (
	// tryName is f_n(beta), the last try: whatever leaf is there is the
	// one the walk goes on from.
	tryName entryTry = iota
	// tryOwn is beta's own key, then f_n(beta) on a miss.
	tryOwn
	// tryGuess is f_n(beta), guessing that beta is a leaf. A miss, or a
	// leaf strictly inside beta, says beta is internal: that leaf, beta's
	// far end, joins nothing (the walk meets it again from beta's near
	// end), and beta's own key follows.
	tryGuess
)

// enterBeside returns the entry into beta beside a leaf depth deep.
// Neighbouring leaves sit at about one depth, so a beta as deep as that
// leaf — its sibling — is most likely a leaf itself, and f_n(beta) is
// tried first; a shallower beta is most likely internal, and its own key
// is tried first. Replayed on the ledger's tree (2^17 Gaussian keys,
// θ = 100), a sibling beta is a leaf in 94 % of range entries, a beta one
// level up internal in 94 %, and one two or more levels up internal
// every time. A wrong guess costs one lookup, the one a miss on beta's
// own key costs a leaf beta, so an entry still wastes at most one.
func enterBeside(beta bitlabel.Label, depth int) branchEntry {
	if beta.Len() >= depth {
		return branchEntry{beta: beta, try: tryGuess}
	}
	return branchEntry{beta: beta, try: tryOwn}
}

// key is the DHT key the entry tries now.
func (e branchEntry) key() string {
	if e.try == tryOwn {
		return e.beta.Key()
	}
	return e.beta.Name().Key()
}

// farEnd reports whether the leaf labelled got, replied under f_n(beta),
// is beta's far-end leaf: strictly inside beta.
func (e branchEntry) farEnd(got bitlabel.Label) bool {
	return e.beta.IsPrefixOf(got) && got != e.beta
}

// next returns the entry's following try after the reply to key(): found
// is false on a miss, and got is the replied leaf's label otherwise. ok
// is false when there is none: the reply is the leaf to go on from, or a
// miss no other key can mend.
func (e branchEntry) next(got bitlabel.Label, found bool) (_ branchEntry, ok bool) {
	switch e.try {
	case tryGuess:
		if found && !e.farEnd(got) {
			return e, false // beta itself, or a leaf above it
		}
		return branchEntry{beta: e.beta, try: tryOwn}, true
	case tryOwn:
		if !found && !e.beta.IsRoot() {
			return branchEntry{beta: e.beta, try: tryName}, true
		}
	}
	return e, false
}

// sweep walks the branch nodes of the local tree of the leaf labeled
// from, in the given direction, decomposing r into per-branch subranges
// (Algorithm 3), and appends each branch's probe to next. A branch whose
// interval is fully inside r is entered through the leaf bound to
// f_n(beta): the far-end boundary leaf of the branch, which then sweeps
// back inward. The final, partially covered branch is entered through
// its near-end leaf (enter), with from the leaf beside it: only the
// sweep's first branch, from's sibling when from ends toward dir, is as
// deep as from, and every later one is shallower. The walk is local
// arithmetic.
func sweep(next []rangeProbe, from bitlabel.Label, r keyspace.Interval, dir sweepDir) []rangeProbe {
	for beta := from; ; {
		var ok bool
		if beta, ok = dir.neighbor(beta); !ok {
			return next // reached the tree edge
		}
		inv := keyspace.IntervalOf(beta)
		covered := false
		switch dir {
		case sweepRight:
			if inv.Lo >= r.Hi {
				return next // branch lies beyond the range
			}
			covered = inv.Hi <= r.Hi
		case sweepLeft:
			if inv.Hi <= r.Lo {
				return next
			}
			covered = inv.Lo >= r.Lo
		}
		if !covered {
			return enter(next, beta, from.Len(), r) // the partially covered branch terminates the sweep
		}
		e := branchEntry{beta: beta, try: tryName}
		next = append(next, rangeProbe{key: e.key(), entry: e, sub: inv})
	}
}

// enter appends to next the probe that enters the branch beta, partly
// inside r, for their intersection, beside a leaf depth deep: the first
// try of beta's near-end leaf (enterBeside). A try that does not reach
// that leaf is followed by the other key in the next round (rounds).
func enter(next []rangeProbe, beta bitlabel.Label, depth int, r keyspace.Interval) []rangeProbe {
	sub := keyspace.IntervalOf(beta).Intersect(r)
	if sub.Empty() {
		return next
	}
	e := enterBeside(beta, depth)
	return append(next, rangeProbe{key: e.key(), entry: e, sub: sub})
}
