package pht

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/metrics"
	"lht/internal/record"
)

var (
	// ErrKeyNotFound reports an exact-match query or deletion for a data
	// key that is not indexed.
	ErrKeyNotFound = errors.New("pht: data key not found")
	// ErrCorrupt reports a trie state the algorithms cannot explain.
	ErrCorrupt = errors.New("pht: corrupt index state")
)

// Cost reports the DHT traffic of one operation; see metrics.Cost.
type Cost = metrics.Cost

// Config tunes a PHT index. It deliberately mirrors lht.Config so the
// benchmark harness can drive both with identical parameters.
type Config struct {
	// SplitThreshold is the leaf capacity in record slots (one occupied
	// by the label), identical in meaning to lht.Config.SplitThreshold.
	SplitThreshold int
	// MergeThreshold merges sibling leaves whose combined merged weight
	// falls below it; 0 disables merging.
	MergeThreshold int
	// Depth is D, the maximum trie depth in bits.
	Depth int
	// Aggregate, when non-nil, receives a copy of every counter update
	// this index makes (see metrics.Counters.Chain); the benchmark
	// harness uses it to roll per-index traffic into a process total.
	Aggregate *metrics.Counters
}

// DefaultConfig matches the paper's experiment defaults.
func DefaultConfig() Config {
	return Config{SplitThreshold: 100, MergeThreshold: 50, Depth: 20}
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("pht: invalid config")

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SplitThreshold < 4 {
		return fmt.Errorf("%w: SplitThreshold %d < 4", ErrConfig, c.SplitThreshold)
	}
	if c.MergeThreshold < 0 || c.MergeThreshold > c.SplitThreshold {
		return fmt.Errorf("%w: MergeThreshold %d outside [0, SplitThreshold]", ErrConfig, c.MergeThreshold)
	}
	if c.Depth < 2 || c.Depth > keyspace.MaxDepth {
		return fmt.Errorf("%w: Depth %d outside [2, %d]", ErrConfig, c.Depth, keyspace.MaxDepth)
	}
	return nil
}

// Index is a PHT index over a DHT substrate; create one with New. The
// concurrency contract matches lht.Index: record-level read-modify-writes
// are optimistic (epoch-guarded conditional puts, retried on conflict),
// so any number of concurrent writers may insert and delete safely.
// Structural maintenance (split, merge) is fenced by the same epochs —
// exactly one racing writer wins a split — but unlike LHT it records no
// write-ahead intent, so a writer failing mid-split or mid-merge can
// leave a torn trie; that fragility versus LHT's recoverable maintenance
// is part of what the paper's comparison measures.
type Index struct {
	d   dht.DHT
	cfg Config
	c   *metrics.Counters

	mu        sync.Mutex
	overflows int64
}

// New creates an index client over d, bootstrapping the single-leaf trie
// (leaf "#0" stored under its own label) if the substrate is empty.
func New(d dht.DHT, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	rootKey := bitlabel.TreeRoot.Key()
	if _, err := d.Get(ctx, rootKey); err != nil {
		if !errors.Is(err, dht.ErrNotFound) {
			return nil, fmt.Errorf("pht: probe substrate: %w", err)
		}
		// Create-if-absent: concurrent bootstrappers converge on one trie.
		err := dht.DoCreateIf(ctx, d, rootKey, &Node{Label: bitlabel.TreeRoot, Leaf: true})
		if err != nil && !errors.Is(err, dht.ErrCASConflict) {
			return nil, fmt.Errorf("pht: bootstrap: %w", err)
		}
	}
	c := &metrics.Counters{}
	if cfg.Aggregate != nil {
		c.Chain(cfg.Aggregate)
	}
	return &Index{d: dht.NewInstrumented(d, c), cfg: cfg, c: c}, nil
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Metrics returns the cumulative cost counters of this index client.
func (ix *Index) Metrics() metrics.Snapshot { return ix.c.Snapshot() }

// Overflows returns the number of insertions into a full leaf at maximum
// depth, where splitting is impossible.
func (ix *Index) Overflows() int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.overflows
}

// getNode fetches and type-asserts a trie node, charging cost.
func (ix *Index) getNode(ctx context.Context, key string, cost *Cost) (*Node, error) {
	cost.Lookups++
	v, err := ix.d.Get(ctx, key)
	return nodeOf(v, err, key)
}

// LookupLeaf is the PHT lookup: a binary search over all prefix lengths of
// mu(delta, D). Each probe gets the trie node stored under the prefix
// itself: a miss means the prefix is below the leaf (search shorter), an
// internal marker means above it (search longer). Expected cost is log D
// probes - the candidate set LHT's naming function halves (section 5,
// complexity discussion).
func (ix *Index) LookupLeaf(delta float64) (*Node, Cost, error) {
	return ix.LookupLeafContext(context.Background(), delta)
}

// LookupLeafContext is LookupLeaf with a caller-supplied context.
func (ix *Index) LookupLeafContext(ctx context.Context, delta float64) (n *Node, cost Cost, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpGet, metrics.PhaseProbe)
	defer func() { scope.Done(err) }()
	return ix.lookupLeaf(ctx, delta)
}

// lookupLeaf is the binary search itself, shared by every public entry
// point so each observes its own operation class exactly once.
func (ix *Index) lookupLeaf(ctx context.Context, delta float64) (*Node, Cost, error) {
	ctx = metrics.WithPhase(ctx, metrics.PhaseProbe)
	var cost Cost
	mu, err := keyspace.Mu(delta, ix.cfg.Depth)
	if err != nil {
		return nil, cost, err
	}
	lo, hi := 1, ix.cfg.Depth
	for lo <= hi {
		mid := lo + (hi-lo)/2
		x := mu.Prefix(mid)
		n, err := ix.getNode(ctx, x.Key(), &cost)
		switch {
		case errors.Is(err, dht.ErrNotFound):
			hi = mid - 1
		case err != nil:
			cost.Steps = cost.Lookups
			return nil, cost, err
		case n.Leaf:
			cost.Steps = cost.Lookups
			return n, cost, nil
		default:
			lo = mid + 1
		}
	}
	cost.Steps = cost.Lookups
	return nil, cost, fmt.Errorf("%w: lookup %v found no leaf", ErrCorrupt, delta)
}

// Search is the exact-match query: a lookup returning the record itself.
func (ix *Index) Search(delta float64) (record.Record, Cost, error) {
	return ix.SearchContext(context.Background(), delta)
}

// SearchContext is Search with a caller-supplied context.
func (ix *Index) SearchContext(ctx context.Context, delta float64) (rec record.Record, cost Cost, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpGet, metrics.PhaseProbe)
	defer func() { scope.Done(err) }()
	n, cost, err := ix.lookupLeaf(ctx, delta)
	if err != nil {
		return record.Record{}, cost, err
	}
	if i := record.FindByKey(n.Records, delta); i >= 0 {
		return n.Records[i], cost, nil
	}
	return record.Record{}, cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
}

// Insert adds a record (replacing any record with the same key): a lookup,
// a put of the leaf, and possibly a split.
func (ix *Index) Insert(rec record.Record) (Cost, error) {
	return ix.InsertContext(context.Background(), rec)
}

// InsertContext is Insert with a caller-supplied context. The
// read-modify-write is optimistic: the write-back is an epoch-guarded
// conditional put and a lost CAS re-runs the round from the lookup, the
// same protocol as lht.Index.InsertContext.
func (ix *Index) InsertContext(ctx context.Context, rec record.Record) (cost Cost, err error) {
	if err := keyspace.CheckKey(rec.Key); err != nil {
		return Cost{}, err
	}
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpInsert, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	for {
		n, lcost, err := ix.lookupLeaf(ctx, rec.Key)
		cost.Add(lcost)
		if err != nil {
			return cost, err
		}
		nn := n.Clone()
		if i := record.FindByKey(nn.Records, rec.Key); i >= 0 {
			nn.Records[i] = rec
		} else {
			nn.Records = append(nn.Records, rec)
		}
		nn.Epoch++
		cost.Lookups++
		cost.Steps++
		err = dht.DoPutIf(ctx, ix.d, nn.Label.Key(), nn, n.Epoch)
		if errors.Is(err, dht.ErrCASConflict) {
			ix.c.Add(metrics.WriterRetries, 1)
			if cerr := ctx.Err(); cerr != nil {
				return cost, cerr
			}
			continue
		}
		if err != nil {
			return cost, fmt.Errorf("pht: write back %s: %w", n.Label, err)
		}
		if nn.Weight() >= ix.cfg.SplitThreshold {
			splitCost, err := ix.split(ctx, nn)
			cost.Add(splitCost)
			ix.c.Add(metrics.MaintLookups, int64(splitCost.Lookups))
			if err != nil {
				return cost, err
			}
		}
		return cost, nil
	}
}

// split divides a saturated leaf. Unlike LHT, both children carry labels
// different from the parent's, so both are pushed to other peers (2
// DHT-lookups, all records moved), the old node is rewritten in place as
// an internal marker (free), and the two neighbor leaves' links are
// patched (2 more DHT-lookups): equation 2's theta*i + 4*j per split.
// Like LHT, one insertion causes at most one split.
func (ix *Index) split(ctx context.Context, n *Node) (Cost, error) {
	ctx = metrics.WithPhase(ctx, metrics.PhaseSplit)
	var cost Cost
	if n.Label.Len() >= ix.cfg.Depth {
		ix.mu.Lock()
		ix.overflows++
		ix.mu.Unlock()
		return cost, nil
	}

	iv := n.Interval()
	pivot := iv.Lo + (iv.Hi-iv.Lo)/2
	var leftRecs, rightRecs []record.Record
	for _, r := range n.Records {
		if r.Key < pivot {
			leftRecs = append(leftRecs, r)
		} else {
			rightRecs = append(rightRecs, r)
		}
	}
	left := &Node{
		Label: n.Label.Left(), Leaf: true, Records: leftRecs,
		Prev: n.Prev, HasPrev: n.HasPrev,
		Next: n.Label.Right(), HasNext: true,
		Epoch: n.Epoch + 1,
	}
	right := &Node{
		Label: n.Label.Right(), Leaf: true, Records: rightRecs,
		Prev: n.Label.Left(), HasPrev: true,
		Next: n.Next, HasNext: n.HasNext,
		Epoch: n.Epoch + 1,
	}

	// The old leaf becomes an internal marker in place first (free local
	// rewrite) — the marker is the split's fence: it is guarded by the
	// leaf's epoch, so of any number of racing writers exactly one
	// rewrites the leaf and pushes the children; the losers' record
	// writes conflict against the marker and re-run their lookup. Losing
	// the fence ourselves means another writer committed first — yield,
	// and let the next saturating insert re-trigger the split. (Unlike
	// LHT's intent-marked split, the marker is not recoverable: a writer
	// dying between here and the children's puts leaves a torn trie.)
	marker := &Node{Label: n.Label, Epoch: n.Epoch + 1}
	err := dht.DoWriteIf(ctx, ix.d, n.Label.Key(), marker, n.Epoch)
	if errors.Is(err, dht.ErrCASConflict) || errors.Is(err, dht.ErrNotFound) {
		return cost, nil
	}
	if err != nil {
		return cost, fmt.Errorf("pht: split write %s: %w", n.Label, err)
	}

	ix.c.Add(metrics.Splits, 1)
	ix.c.Add(metrics.MovedRecords, int64(left.Weight()+right.Weight()))

	// Both children move to the peers responsible for their new labels.
	// Plain puts: only the fence winner gets here, and overwriting is
	// exactly what reclaims a torn predecessor's stale children.
	cost.Lookups += 2
	cost.Steps++ // the two puts go out in parallel
	if err := ix.d.Put(ctx, left.Label.Key(), left); err != nil {
		return cost, fmt.Errorf("pht: split put %s: %w", left.Label, err)
	}
	if err := ix.d.Put(ctx, right.Label.Key(), right); err != nil {
		return cost, fmt.Errorf("pht: split put %s: %w", right.Label, err)
	}

	// Patch the chain neighbors; each patch routes to one peer.
	if n.HasPrev {
		if err := ix.patchLink(ctx, n.Prev, &cost, func(p *Node) { p.Next, p.HasNext = left.Label, true }); err != nil {
			return cost, err
		}
	}
	if n.HasNext {
		if err := ix.patchLink(ctx, n.Next, &cost, func(p *Node) { p.Prev, p.HasPrev = right.Label, true }); err != nil {
			return cost, err
		}
	}
	return cost, nil
}

// patchLink routes to the leaf stored under label, applies fn and rewrites
// it: one DHT-lookup (the rewrite happens on the peer that was routed to).
// The rewrite is an optimistic RMW like every other: a lost CAS re-fetches
// the neighbor and re-applies fn.
func (ix *Index) patchLink(ctx context.Context, label bitlabel.Label, cost *Cost, fn func(*Node)) error {
	for {
		p, err := ix.getNode(ctx, label.Key(), cost)
		cost.Steps++
		if err != nil {
			return fmt.Errorf("pht: patch link %s: %w", label, err)
		}
		np := p.Clone()
		fn(np)
		np.Epoch++
		err = dht.DoWriteIf(ctx, ix.d, label.Key(), np, p.Epoch)
		if errors.Is(err, dht.ErrCASConflict) {
			ix.c.Add(metrics.WriterRetries, 1)
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("pht: patch link %s: %w", label, err)
		}
		return nil
	}
}

// Delete removes the record with the given key, or returns
// ErrKeyNotFound; an underweight leaf attempts to merge with its sibling.
func (ix *Index) Delete(delta float64) (Cost, error) {
	return ix.DeleteContext(context.Background(), delta)
}

// DeleteContext is Delete with a caller-supplied context.
func (ix *Index) DeleteContext(ctx context.Context, delta float64) (cost Cost, err error) {
	if err := keyspace.CheckKey(delta); err != nil {
		return Cost{}, err
	}
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpDelete, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	for {
		n, lcost, err := ix.lookupLeaf(ctx, delta)
		cost.Add(lcost)
		if err != nil {
			return cost, err
		}
		i := record.FindByKey(n.Records, delta)
		if i < 0 {
			return cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
		}
		nn := n.Clone()
		nn.Records[i] = nn.Records[len(nn.Records)-1]
		nn.Records = nn.Records[:len(nn.Records)-1]
		nn.Epoch++
		cost.Lookups++
		cost.Steps++
		err = dht.DoPutIf(ctx, ix.d, nn.Label.Key(), nn, n.Epoch)
		if errors.Is(err, dht.ErrCASConflict) {
			ix.c.Add(metrics.WriterRetries, 1)
			if cerr := ctx.Err(); cerr != nil {
				return cost, cerr
			}
			continue
		}
		if err != nil {
			return cost, fmt.Errorf("pht: write back %s: %w", n.Label, err)
		}
		if ix.cfg.MergeThreshold > 0 && nn.Label.Len() >= 2 && nn.Weight() < ix.cfg.MergeThreshold {
			mergeCost, err := ix.merge(ctx, nn)
			cost.Add(mergeCost)
			ix.c.Add(metrics.MaintLookups, int64(mergeCost.Lookups))
			if err != nil {
				return cost, err
			}
		}
		return cost, nil
	}
}

// merge collapses a leaf and its sibling leaf back into their parent when
// their combined weight is low: the records move to the parent's peer (the
// parent marker is rewritten as a leaf), both child entries are removed,
// and the chain is patched around them. It is noticeably more expensive
// than LHT's merge - every step routes, just as PHT's split does.
func (ix *Index) merge(ctx context.Context, n *Node) (Cost, error) {
	ctx = metrics.WithPhase(ctx, metrics.PhaseMerge)
	var cost Cost
	sibling := n.Label.Sibling()
	sib, err := ix.getNode(ctx, sibling.Key(), &cost)
	cost.Steps++
	if err != nil {
		if errors.Is(err, dht.ErrNotFound) {
			return cost, fmt.Errorf("%w: sibling %s of leaf %s missing", ErrCorrupt, sibling, n.Label)
		}
		return cost, err
	}
	if !sib.Leaf {
		return cost, nil
	}
	if n.Weight()+sib.Weight()-1 >= ix.cfg.MergeThreshold {
		return cost, nil
	}

	left, right := n, sib
	if n.Label.LastBit() == 1 {
		left, right = sib, n
	}
	parent := &Node{
		Label: n.Label.Parent(), Leaf: true,
		Records: append(append([]record.Record{}, left.Records...), right.Records...),
		Prev:    left.Prev, HasPrev: left.HasPrev,
		Next: right.Next, HasNext: right.HasNext,
		Epoch: max(left.Epoch, right.Epoch) + 1,
	}

	ix.c.Add(metrics.Merges, 1)
	ix.c.Add(metrics.MovedRecords, int64(left.Weight()+right.Weight()))

	cost.Lookups += 3
	cost.Steps++ // put parent + remove both children, in parallel
	if err := ix.d.Put(ctx, parent.Label.Key(), parent); err != nil {
		return cost, fmt.Errorf("pht: merge put %s: %w", parent.Label, err)
	}
	// Drop the children at the epochs the merge read. A conflict means a
	// concurrent write landed on a child after the merged leaf became
	// durable; the merged leaf supersedes the child wholesale, so the
	// removal is forced — PHT has no write-ahead intent to rebase against,
	// which is exactly the lost-update window the paper's LHT protocol
	// closes.
	for _, child := range []*Node{left, right} {
		rerr := dht.DoRemoveIf(ctx, ix.d, child.Label.Key(), child.Epoch)
		if errors.Is(rerr, dht.ErrCASConflict) {
			cost.Lookups++
			rerr = ix.d.Remove(ctx, child.Label.Key())
		}
		if rerr != nil {
			return cost, fmt.Errorf("pht: merge remove %s: %w", child.Label, rerr)
		}
	}
	if parent.HasPrev {
		if err := ix.patchLink(ctx, parent.Prev, &cost, func(p *Node) { p.Next, p.HasNext = parent.Label, true }); err != nil {
			return cost, err
		}
	}
	if parent.HasNext {
		if err := ix.patchLink(ctx, parent.Next, &cost, func(p *Node) { p.Prev, p.HasPrev = parent.Label, true }); err != nil {
			return cost, err
		}
	}
	return cost, nil
}
