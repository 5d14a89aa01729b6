package lht

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

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
	enc   []byte // the run's own copy, as record.FilterList cut it
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
// When the index is configured with ParallelRange, branch forwards run in
// goroutines, so the collector is mutex-guarded; latency (Steps) is
// always computed structurally from the forwarding DAG, identically in
// both modes.
//
// The result is built once, by snapshot, at its final size: until then
// each leaf's share waits as it was fetched. Over a substrate that cuts
// runs every leaf of an untorn tree arrives as one: every get of a range,
// swept or single, is a probe with the query's range for a hint, cut by
// the storing peer (rangeLeaf).
type rangeCollector struct {
	r    keyspace.Interval // the query's range
	hint uint64            // RangeHint of r: one hint per query

	mu      sync.Mutex
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
	c.mu.Lock()
	c.shares = append(c.shares, s)
	c.n += n
	c.mu.Unlock()
}

func (c *rangeCollector) addLookups(n int) {
	c.mu.Lock()
	c.lookups += n
	c.mu.Unlock()
}

// isCancellation reports whether err is (or wraps) a context
// cancellation or deadline expiry — the follow-on noise every other
// branch emits once one branch has failed for a real reason.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// setErr records the error the query surfaces. The first error wins,
// with one exception: a stored cancellation yields to a later
// non-cancellation error. Under ParallelRange one branch's real fault
// (say a dead Chord peer) makes the sibling branches observe
// context.Canceled; whichever order those land in, the root cause — not
// the collateral cancellation — must be what the caller sees.
func (c *rangeCollector) setErr(err error) {
	c.mu.Lock()
	if c.err == nil || (isCancellation(c.err) && !isCancellation(err)) {
		c.err = err
	}
	c.mu.Unlock()
}

// snapshot joins the shares, in the order they were added, into the
// query's result. A run's values alias its enc, as a bucket's records
// alias the buffer it was decoded from.
func (c *rangeCollector) snapshot() ([]record.Record, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
		if out, err = record.AppendRange(out, s.run.enc, s.lo, s.hi); err != nil {
			return nil, c.lookups, fmt.Errorf("%w: run of leaf %s: %v", ErrCorrupt, s.run.label, err)
		}
	}
	return out, c.lookups, nil
}

// probeLeaf is a range query's single get, charging the collector.
func (ix *Index) probeLeaf(ctx context.Context, key string, col *rangeCollector) (dht.Value, error) {
	col.addLookups(1)
	v, err := dht.DoProbe(ctx, ix.d, key, col.hint)
	return ix.rangeLeaf(ctx, v, err, key, col)
}

// rangeLeaf takes the reply (v, err) to a range query's get of key, a
// single one (probeLeaf) or a sweep's slot. The query goes on from the
// fetched leaf's label and takes only its records in the query's range,
// so every get is a probe hinted with that range, and a substrate that is
// a dht.Prober may answer an untorn leaf with the run of those records,
// or, when the leaf does not overlap the range, with its BucketHeader
// alone — still one round trip and one DHT-lookup. What comes back is a
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
	col.addLookups(1)
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
		col.addLookups(cost.Lookups)
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
// recursive forwarding (Algorithm 3); a non-overlapping bucket descends
// through LCA's two children first. Forwarding needs only each bucket's
// local tree: branch nodes are enumerated with the neighbor functions, and
// every fully-covered branch is entered in one hop through its named leaf.
//
// Cost.Lookups counts every DHT-get (the bandwidth measure, at most B+3
// for B result buckets in the paper's analysis); Cost.Steps counts the
// longest dependent chain (the latency measure): all forwards issued by
// one bucket proceed in parallel. With Config.ParallelRange they really
// do - independent branches run in goroutines - which turns the Steps
// model into wall-clock time over networked substrates.
func (ix *Index) Range(lo, hi float64) ([]record.Record, Cost, error) {
	return ix.RangeContext(context.Background(), lo, hi)
}

// RangeContext is Range with a caller-supplied context. Cancelling the
// context stops the forwarding recursion promptly: no new branch fetches
// start, in-flight substrate operations observe the cancellation, and the
// parallel goroutines drain before RangeContext returns. The partial cost
// accumulated up to that point is still reported.
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

	// Everything from here on is forwarding traffic.
	fctx := metrics.WithPhase(ctx, metrics.PhaseForward)
	var depth int
	switch {
	case keyspace.IntervalOf(rangeLeafLabel(leaf)).Overlaps(r):
		// Case 2: the simple case holds from this leaf.
		depth = 1 + ix.forward(fctx, leaf, r, col)
	case ix.cfg.ParallelRange:
		// Case 3: descend through both children of the LCA; each child's
		// subrange contains one bound of its half, so forwarding from the
		// entered leaf is again the simple case. The two descents proceed
		// in parallel.
		depth = 1 + deepest(
			func() int { return ix.enterChild(fctx, lca.Left(), r, col) },
			func() int { return ix.enterChild(fctx, lca.Right(), r, col) },
		)
	default:
		depth = 1 + max(ix.enterChild(fctx, lca.Left(), r, col), ix.enterChild(fctx, lca.Right(), r, col))
	}
	out, lookups, err := col.snapshot()
	cost.Lookups = lookups
	cost.Steps = depth
	if err != nil {
		return nil, cost, err
	}
	return out, cost, nil
}

// deepest runs the lookup chains concurrently and returns the depth of
// the deepest. Only a ParallelRange query gets here: a sequential one
// makes the same calls in the same order directly, and builds no closures
// to do so.
func deepest(chains ...func() int) int {
	depths := make([]int, len(chains))
	var wg sync.WaitGroup
	for i, chain := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			depths[i] = chain()
		}()
	}
	wg.Wait()
	return slices.Max(depths)
}

// enterChild fetches the leaf that starts the sweep inside one child
// subtree of the LCA and forwards the intersected range there: the child
// is entered as a sweep enters its partially covered branch. The child
// label itself is tried first (the leaf bound to that name is the subtree
// boundary leaf); if the child is a leaf rather than an internal node, the
// key misses and the leaf is found under f_n(child) instead - the one
// extra lookup the complexity analysis of section 6.3 budgets for.
// It returns the depth of the dependent lookup chain it issued.
func (ix *Index) enterChild(ctx context.Context, child bitlabel.Label, r keyspace.Interval, col *rangeCollector) int {
	task := branchTask{label: child, inv: keyspace.IntervalOf(child)}
	if task.inv.Intersect(r).Empty() {
		return 0
	}
	if err := ctx.Err(); err != nil {
		col.setErr(fmt.Errorf("lht: range enter %s: %w", child, err))
		return 0
	}
	v, err := ix.probeLeaf(ctx, child.Key(), col)
	return ix.branch(ctx, task, v, err, r, col)
}

// forward implements the recursive forwarding of Algorithm 3 from a leaf
// the caller has already fetched — whole, as a run, or as the header of a
// leaf with nothing in the query's range: collect its records in r, then
// sweep on from its label.
func (ix *Index) forward(ctx context.Context, leaf dht.Value, r keyspace.Interval, col *rangeCollector) int {
	switch leaf := leaf.(type) {
	case *Bucket:
		col.addRecords(leaf.Records, r.Lo, r.Hi)
	case *bucketRun:
		col.addRun(leaf, r.Lo, r.Hi)
	}
	return ix.sweepFrom(ctx, rangeLeafLabel(leaf), r, col)
}

// sweepFrom is forward past the leaf labeled from, whose share of r the
// collector already has: sweep toward whichever sides of r extend beyond
// the leaf's interval. Both sweeps and all per-branch forwards are issued
// by the leaf's peer in one round, so the returned chain depth is the
// maximum over the branches.
func (ix *Index) sweepFrom(ctx context.Context, from bitlabel.Label, r keyspace.Interval, col *rangeCollector) int {
	if err := ctx.Err(); err != nil {
		col.setErr(fmt.Errorf("lht: range forward from %s: %w", from, err))
		return 0
	}
	iv := keyspace.IntervalOf(from)
	right, left := r.Hi > iv.Hi, r.Lo < iv.Lo
	if right && left && ix.cfg.ParallelRange {
		return deepest(
			func() int { return ix.sweep(ctx, from, r, sweepRight, col) },
			func() int { return ix.sweep(ctx, from, r, sweepLeft, col) },
		)
	}
	var dRight, dLeft int
	if right {
		dRight = ix.sweep(ctx, from, r, sweepRight, col)
	}
	if left {
		dLeft = ix.sweep(ctx, from, r, sweepLeft, col)
	}
	return max(dRight, dLeft)
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

// sweep walks the branch nodes of the local tree of the leaf labeled from,
// in the given direction, decomposing r into per-branch subranges
// (Algorithm 3). A branch whose interval is fully inside r is entered
// through the leaf bound to f_n(beta): the far-end boundary leaf of the
// branch, which then sweeps back inward. The final, partially covered
// branch is entered through the leaf bound to beta itself: the near-end
// boundary leaf; if beta turns out to be a leaf, that get fails and the
// leaf is under f_n(beta) - the at-most-one failed lookup per sweep of
// section 6.3.
//
// The walk over branch labels is local arithmetic; every branch's fetch
// and recursive forward is independent, so in parallel mode each runs in
// its own goroutine. A cancelled context stops the recursion before any
// further branch fetch.
func (ix *Index) sweep(ctx context.Context, from bitlabel.Label, r keyspace.Interval, dir sweepDir, col *rangeCollector) int {
	// Phase 1: enumerate the branches to visit (pure local arithmetic).
	// A sweep rarely has more branches than fit on the stack.
	var few [8]branchTask
	tasks := few[:0]
	beta := from
loop:
	for {
		var ok bool
		if beta, ok = dir.neighbor(beta); !ok {
			break // reached the tree edge
		}
		inv := keyspace.IntervalOf(beta)
		covered := false
		switch dir {
		case sweepRight:
			if inv.Lo >= r.Hi {
				break loop // branch lies beyond the range
			}
			covered = inv.Hi <= r.Hi
		case sweepLeft:
			if inv.Hi <= r.Lo {
				break loop
			}
			covered = inv.Lo >= r.Lo
		}
		tasks = append(tasks, branchTask{label: beta, inv: inv, covered: covered})
		if !covered {
			break // the partially covered branch terminates the sweep
		}
	}

	// Phase 2: every branch's first probe goes out as one multi-get —
	// the same fan-out round the Steps model already treats as parallel,
	// now one round trip on a batch-native substrate. Each fetched branch
	// then forwards independently (concurrently under ParallelRange).
	// A covered branch probes its named leaf f_n(beta); the partially
	// covered terminal branch probes beta's own label, and a miss there
	// means beta is itself a leaf, found under f_n(beta) — the
	// at-most-one failed lookup of section 6.3, still a per-op follow-up.
	if len(tasks) == 0 {
		return 0
	}
	if err := ctx.Err(); err != nil {
		col.setErr(fmt.Errorf("lht: range forward %s: %w", tasks[0].label, err))
		return 0
	}
	keys := make([]string, len(tasks))
	for i, task := range tasks {
		if task.covered {
			keys[i] = task.label.Name().Key()
		} else {
			keys[i] = task.label.Key()
		}
	}
	col.addLookups(len(keys))
	vals, errs := dht.DoProbeBatch(ctx, ix.d, keys, col.hint)

	// Every slot is taken, and its leaf noted in the cache, before any
	// branch forwards, in slot order, whichever way the branches run.
	for i := range tasks {
		vals[i], errs[i] = ix.rangeLeaf(ctx, vals[i], errs[i], keys[i], col)
	}
	if ix.cfg.ParallelRange {
		chains := make([]func() int, len(tasks))
		for i, task := range tasks {
			chains[i] = func() int { return ix.branch(ctx, task, vals[i], errs[i], r, col) }
		}
		return deepest(chains...)
	}
	var depth int
	for i, task := range tasks {
		depth = max(depth, ix.branch(ctx, task, vals[i], errs[i], r, col))
	}
	return depth
}

// branchTask is one branch node a sweep visits.
type branchTask struct {
	label   bitlabel.Label
	inv     keyspace.Interval
	covered bool
}

// branch enters one branch of a sweep over r, given its slot (v, err) of
// the sweep's multi-get as rangeLeaf left it, and returns the depth of
// the dependent lookup chain. A covered branch is fully inside the
// remaining range: it is entered through its named leaf, which sweeps
// back inward. The terminal branch is entered through the leaf under its
// own label or, on a miss, under its name.
func (ix *Index) branch(ctx context.Context, task branchTask, v dht.Value, err error, r keyspace.Interval, col *rangeCollector) int {
	hops := 1
	sub := task.inv
	if !task.covered {
		sub = task.inv.Intersect(r)
		if errors.Is(err, dht.ErrNotFound) {
			hops = 2
			v, err = ix.probeLeaf(ctx, task.label.Name().Key(), col)
		}
	}
	if err != nil {
		col.setErr(fmt.Errorf("lht: range forward %s: %w", task.label, err))
		return hops
	}
	return hops + ix.forward(ctx, v, sub, col)
}
