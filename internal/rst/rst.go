// Package rst implements the Range Search Tree baseline (Gao &
// Steenkiste, ICNP 2004) as the paper's related-work section
// characterizes it: RST "goes to extreme, which gives each tree node the
// entire knowledge of global index tree... With index tree globally
// known, RST achieves one-hop exact-match query and efficient range
// query, but at the expense of high maintenance cost. A single leaf
// splitting could lead to a broadcasting to all nodes, which is quite
// inefficient and unscalable in P2P networks."
//
// The implementation makes that trade measurable: every peer caches the
// complete tree shape (the set of leaf labels), so queries route directly
// to the exact buckets with zero search overhead - and every structural
// change (split or merge) broadcasts the new shape to all P peers,
// charging P DHT messages to maintenance. P is a configuration parameter:
// the maintenance cost scales with the network, which is precisely the
// unscalability the paper criticizes (and what LHT's naming function
// avoids: its "global knowledge" is computable from any bucket's label).
//
// Buckets are stored in the DHT under their labels; there is no naming
// indirection since lookups never probe speculatively.
package rst

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/metrics"
	"lht/internal/record"
)

var (
	// ErrKeyNotFound reports a search or deletion for an unindexed key.
	ErrKeyNotFound = errors.New("rst: data key not found")
	// ErrCorrupt reports an index state the algorithms cannot explain.
	ErrCorrupt = errors.New("rst: corrupt index state")
	// ErrBadRange reports a malformed range query.
	ErrBadRange = errors.New("rst: invalid range")
	// ErrConfig reports an invalid configuration.
	ErrConfig = errors.New("rst: invalid config")
)

// Cost reports the DHT traffic of one operation; see metrics.Cost.
type Cost = metrics.Cost

// Bucket is a leaf bucket, stored in the DHT under its own label.
type Bucket struct {
	Label   bitlabel.Label
	Records []record.Record
}

// Weight is the bucket's storage occupancy (records + label slot).
func (b *Bucket) Weight() int { return len(b.Records) + 1 }

// Interval returns the key interval the bucket covers.
func (b *Bucket) Interval() keyspace.Interval { return keyspace.IntervalOf(b.Label) }

// Config tunes an RST index.
type Config struct {
	// SplitThreshold and MergeThreshold mirror lht.Config.
	SplitThreshold int
	MergeThreshold int
	// Depth is the maximum tree depth in bits.
	Depth int
	// Peers is P, the number of peers holding a copy of the global tree:
	// every structural change broadcasts to all of them. The paper's
	// point is that this scales with the network.
	Peers int
}

// DefaultConfig matches the paper's experiment defaults with a 20-peer
// network (the paper's testbed size).
func DefaultConfig() Config {
	return Config{SplitThreshold: 100, MergeThreshold: 50, Depth: 20, Peers: 20}
}

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
	if c.Peers < 1 {
		return fmt.Errorf("%w: Peers %d < 1", ErrConfig, c.Peers)
	}
	return nil
}

// Index is an RST index over a DHT substrate; create with New. The
// concurrency contract matches lht.Index.
type Index struct {
	d   dht.DHT
	cfg Config
	c   *metrics.Counters

	// shape is the globally replicated tree knowledge: the sorted set of
	// leaf labels. In the deployed system every peer holds a copy kept
	// in sync by broadcasts; here one authoritative copy stands for all
	// of them and each broadcast charges Peers messages.
	mu    sync.Mutex
	shape []bitlabel.Label // sorted left to right

	overflows int64
}

// New creates an index client, bootstrapping the single-leaf tree at
// "#0" if the substrate is empty.
func New(d dht.DHT, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &metrics.Counters{}
	ix := &Index{d: dht.NewInstrumented(d, c), cfg: cfg, c: c}
	// The globally-known shape is itself a DHT object: a joining peer
	// fetches it instead of discovering the tree (uncharged bootstrap).
	v, err := d.Get(context.Background(), shapeKey)
	switch {
	case errors.Is(err, dht.ErrNotFound):
		if err := d.Put(context.Background(), bitlabel.TreeRoot.Key(), &Bucket{Label: bitlabel.TreeRoot}); err != nil {
			return nil, fmt.Errorf("rst: bootstrap: %w", err)
		}
		ix.shape = []bitlabel.Label{bitlabel.TreeRoot}
		if err := d.Put(context.Background(), shapeKey, ix.snapshotShape()); err != nil {
			return nil, fmt.Errorf("rst: bootstrap shape: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("rst: probe substrate: %w", err)
	default:
		shape, ok := v.([]bitlabel.Label)
		if !ok {
			return nil, fmt.Errorf("%w: shape key holds %T", ErrCorrupt, v)
		}
		want := 0.0
		for _, l := range shape {
			iv := keyspace.IntervalOf(l)
			if iv.Lo != want {
				return nil, fmt.Errorf("%w: stored shape does not tile [0,1) at %s", ErrCorrupt, l)
			}
			want = iv.Hi
		}
		if want != 1 {
			return nil, fmt.Errorf("%w: stored shape covers [0, %g)", ErrCorrupt, want)
		}
		ix.shape = append([]bitlabel.Label(nil), shape...)
	}
	return ix, nil
}

// shapeKey stores the replicated tree shape; it cannot collide with
// bucket keys, which contain only '#', '0' and '1'.
const shapeKey = "#shape"

// snapshotShape copies the shape for storage (callers hold no lock at
// bootstrap; mutateShape snapshots under its own lock).
func (ix *Index) snapshotShape() []bitlabel.Label {
	out := make([]bitlabel.Label, len(ix.shape))
	copy(out, ix.shape)
	return out
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Metrics returns the cumulative cost counters. Broadcast messages are
// charged to both Lookups (they are network traffic) and MaintLookups.
func (ix *Index) Metrics() metrics.Snapshot { return ix.c.Snapshot() }

// Overflows reports insertions into a full leaf at maximum depth.
func (ix *Index) Overflows() int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.overflows
}

// leafFor resolves the leaf covering delta from the local tree copy -
// zero DHT traffic, the whole point of RST.
func (ix *Index) leafFor(delta float64) (bitlabel.Label, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	i := sort.Search(len(ix.shape), func(i int) bool {
		return keyspace.IntervalOf(ix.shape[i]).Hi > delta
	})
	if i == len(ix.shape) {
		return bitlabel.Label{}, fmt.Errorf("%w: no leaf covers %v", ErrCorrupt, delta)
	}
	return ix.shape[i], nil
}

// leavesIn returns the leaves overlapping [lo, hi), from the local copy.
func (ix *Index) leavesIn(lo, hi float64) []bitlabel.Label {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var out []bitlabel.Label
	for _, l := range ix.shape {
		iv := keyspace.IntervalOf(l)
		if iv.Lo >= hi {
			break
		}
		if iv.Hi > lo {
			out = append(out, l)
		}
	}
	return out
}

// mutateShape applies fn to the shape under the lock, persists the new
// shape object, and charges the broadcast: one message per peer copy.
func (ix *Index) mutateShape(fn func(shape []bitlabel.Label) []bitlabel.Label) error {
	ix.mu.Lock()
	ix.shape = fn(ix.shape)
	sort.Slice(ix.shape, func(i, j int) bool {
		return bitlabel.Compare(ix.shape[i], ix.shape[j]) < 0
	})
	snapshot := ix.snapshotShape()
	ix.mu.Unlock()
	ix.c.Add(metrics.Lookups, int64(ix.cfg.Peers))
	ix.c.Add(metrics.MaintLookups, int64(ix.cfg.Peers))
	if err := ix.d.Write(context.Background(), shapeKey, snapshot); err != nil {
		return fmt.Errorf("rst: persist shape: %w", err)
	}
	return nil
}

// getBucket fetches and type-asserts a bucket, charging cost.
func (ix *Index) getBucket(key string, cost *Cost) (*Bucket, error) {
	cost.Lookups++
	v, err := ix.d.Get(context.Background(), key)
	if err != nil {
		return nil, err
	}
	b, ok := v.(*Bucket)
	if !ok {
		return nil, fmt.Errorf("%w: key %q holds %T, not a bucket", ErrCorrupt, key, v)
	}
	return b, nil
}

// Search answers an exact-match query in one DHT-lookup: the local tree
// copy names the bucket directly.
func (ix *Index) Search(delta float64) (record.Record, Cost, error) {
	var cost Cost
	if err := keyspace.CheckKey(delta); err != nil {
		return record.Record{}, cost, err
	}
	leaf, err := ix.leafFor(delta)
	if err != nil {
		return record.Record{}, cost, err
	}
	b, err := ix.getBucket(leaf.Key(), &cost)
	cost.Steps = cost.Lookups
	if err != nil {
		return record.Record{}, cost, fmt.Errorf("rst: bucket %s: %w", leaf, err)
	}
	if i := record.FindByKey(b.Records, delta); i >= 0 {
		return b.Records[i], cost, nil
	}
	return record.Record{}, cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
}

// Insert adds a record: one direct put (no search), plus a possible
// split whose shape change broadcasts to every peer.
func (ix *Index) Insert(rec record.Record) (Cost, error) {
	var cost Cost
	if err := keyspace.CheckKey(rec.Key); err != nil {
		return cost, err
	}
	leaf, err := ix.leafFor(rec.Key)
	if err != nil {
		return cost, err
	}
	b, err := ix.getBucket(leaf.Key(), &cost)
	cost.Steps++
	if err != nil {
		return cost, fmt.Errorf("rst: bucket %s: %w", leaf, err)
	}
	if i := record.FindByKey(b.Records, rec.Key); i >= 0 {
		b.Records[i] = rec
	} else {
		b.Records = append(b.Records, rec)
	}
	cost.Lookups++
	cost.Steps++
	if err := ix.d.Put(context.Background(), leaf.Key(), b); err != nil {
		return cost, fmt.Errorf("rst: put %s: %w", leaf, err)
	}
	if b.Weight() >= ix.cfg.SplitThreshold {
		splitCost, err := ix.split(b)
		cost.Add(splitCost)
		if err != nil {
			return cost, err
		}
	}
	return cost, nil
}

// split divides a saturated leaf: both children are new labels, so both
// move (as in PHT), and the shape change broadcasts to all peers.
func (ix *Index) split(b *Bucket) (Cost, error) {
	var cost Cost
	if b.Label.Len() >= ix.cfg.Depth {
		ix.mu.Lock()
		ix.overflows++
		ix.mu.Unlock()
		return cost, nil
	}
	iv := b.Interval()
	pivot := iv.Lo + (iv.Hi-iv.Lo)/2
	var left, right []record.Record
	for _, r := range b.Records {
		if r.Key < pivot {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	lc := &Bucket{Label: b.Label.Left(), Records: left}
	rc := &Bucket{Label: b.Label.Right(), Records: right}
	ix.c.Add(metrics.Splits, 1)
	ix.c.Add(metrics.MovedRecords, int64(lc.Weight()+rc.Weight()))
	cost.Lookups += 3
	cost.Steps++
	if err := ix.d.Put(context.Background(), lc.Label.Key(), lc); err != nil {
		return cost, fmt.Errorf("rst: split put %s: %w", lc.Label, err)
	}
	if err := ix.d.Put(context.Background(), rc.Label.Key(), rc); err != nil {
		return cost, fmt.Errorf("rst: split put %s: %w", rc.Label, err)
	}
	if err := ix.d.Remove(context.Background(), b.Label.Key()); err != nil {
		return cost, fmt.Errorf("rst: split remove %s: %w", b.Label, err)
	}
	ix.c.Add(metrics.MaintLookups, 3)
	old := b.Label
	err := ix.mutateShape(func(shape []bitlabel.Label) []bitlabel.Label {
		out := shape[:0]
		for _, l := range shape {
			if l != old {
				out = append(out, l)
			}
		}
		return append(out, lc.Label, rc.Label)
	})
	cost.Lookups += ix.cfg.Peers // the broadcast
	cost.Steps++                 // one parallel round
	return cost, err
}

// Delete removes a record; an underweight leaf merges with its sibling
// leaf, which again broadcasts.
func (ix *Index) Delete(delta float64) (Cost, error) {
	var cost Cost
	if err := keyspace.CheckKey(delta); err != nil {
		return cost, err
	}
	leaf, err := ix.leafFor(delta)
	if err != nil {
		return cost, err
	}
	b, err := ix.getBucket(leaf.Key(), &cost)
	cost.Steps++
	if err != nil {
		return cost, fmt.Errorf("rst: bucket %s: %w", leaf, err)
	}
	i := record.FindByKey(b.Records, delta)
	if i < 0 {
		return cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
	}
	b.Records[i] = b.Records[len(b.Records)-1]
	b.Records = b.Records[:len(b.Records)-1]
	cost.Lookups++
	cost.Steps++
	if err := ix.d.Put(context.Background(), leaf.Key(), b); err != nil {
		return cost, fmt.Errorf("rst: put %s: %w", leaf, err)
	}
	if ix.cfg.MergeThreshold > 0 && leaf.Len() >= 2 && b.Weight() < ix.cfg.MergeThreshold {
		mergeCost, err := ix.merge(b)
		cost.Add(mergeCost)
		if err != nil {
			return cost, err
		}
	}
	return cost, nil
}

// merge collapses b with its sibling leaf when their combined weight is
// low; the parent becomes a leaf and the change broadcasts.
func (ix *Index) merge(b *Bucket) (Cost, error) {
	var cost Cost
	sibling := b.Label.Sibling()
	ix.mu.Lock()
	siblingIsLeaf := false
	for _, l := range ix.shape {
		if l == sibling {
			siblingIsLeaf = true
			break
		}
	}
	ix.mu.Unlock()
	if !siblingIsLeaf {
		return cost, nil
	}
	sb, err := ix.getBucket(sibling.Key(), &cost)
	cost.Steps++
	if err != nil {
		return cost, fmt.Errorf("rst: sibling %s: %w", sibling, err)
	}
	if b.Weight()+sb.Weight()-1 >= ix.cfg.MergeThreshold {
		return cost, nil
	}
	parent := &Bucket{
		Label:   b.Label.Parent(),
		Records: append(append([]record.Record{}, b.Records...), sb.Records...),
	}
	ix.c.Add(metrics.Merges, 1)
	ix.c.Add(metrics.MovedRecords, int64(parent.Weight()))
	cost.Lookups += 3
	cost.Steps++
	if err := ix.d.Put(context.Background(), parent.Label.Key(), parent); err != nil {
		return cost, fmt.Errorf("rst: merge put %s: %w", parent.Label, err)
	}
	if err := ix.d.Remove(context.Background(), b.Label.Key()); err != nil {
		return cost, fmt.Errorf("rst: merge remove %s: %w", b.Label, err)
	}
	if err := ix.d.Remove(context.Background(), sibling.Key()); err != nil {
		return cost, fmt.Errorf("rst: merge remove %s: %w", sibling, err)
	}
	ix.c.Add(metrics.MaintLookups, 3)
	old1, old2 := b.Label, sibling
	err = ix.mutateShape(func(shape []bitlabel.Label) []bitlabel.Label {
		out := shape[:0]
		for _, l := range shape {
			if l != old1 && l != old2 {
				out = append(out, l)
			}
		}
		return append(out, parent.Label)
	})
	cost.Lookups += ix.cfg.Peers
	cost.Steps++
	return cost, err
}

// Range answers [lo, hi) optimally: the local tree copy lists exactly
// the overlapping buckets, all fetched in one parallel round - B lookups,
// 1 step. This is the query efficiency the broadcast maintenance buys.
func (ix *Index) Range(lo, hi float64) ([]record.Record, Cost, error) {
	var cost Cost
	if err := keyspace.CheckKey(lo); err != nil {
		return nil, cost, fmt.Errorf("%w: lo: %v", ErrBadRange, err)
	}
	if !(hi > lo && hi <= 1) {
		return nil, cost, fmt.Errorf("%w: [%v, %v)", ErrBadRange, lo, hi)
	}
	leaves := ix.leavesIn(lo, hi)
	var out []record.Record
	for _, l := range leaves {
		b, err := ix.getBucket(l.Key(), &cost)
		if err != nil {
			return nil, cost, fmt.Errorf("rst: bucket %s: %w", l, err)
		}
		out = record.FilterRange(out, b.Records, lo, hi)
	}
	cost.Steps = 1
	if len(leaves) == 0 {
		cost.Steps = 0
	}
	return out, cost, nil
}

// Leaves returns the leaf labels in key order (the local copy).
func (ix *Index) Leaves() []bitlabel.Label {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]bitlabel.Label, len(ix.shape))
	copy(out, ix.shape)
	return out
}

// Count returns the number of indexed records (testing helper).
func (ix *Index) Count() (int, error) {
	recs, _, err := ix.Range(0, 1)
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// CheckInvariants verifies that the replicated shape matches the stored
// buckets: the shape tiles [0, 1), every shape leaf's bucket exists under
// its label with matching label and in-interval records.
func (ix *Index) CheckInvariants() error {
	leaves := ix.Leaves()
	want := 0.0
	for _, l := range leaves {
		iv := keyspace.IntervalOf(l)
		if iv.Lo != want {
			return fmt.Errorf("%w: shape leaf %s starts at %g, want %g", ErrCorrupt, l, iv.Lo, want)
		}
		want = iv.Hi
		var cost Cost
		b, err := ix.getBucket(l.Key(), &cost)
		if err != nil {
			return fmt.Errorf("%w: shape leaf %s has no bucket: %v", ErrCorrupt, l, err)
		}
		if b.Label != l {
			return fmt.Errorf("%w: bucket under %s is labeled %s", ErrCorrupt, l, b.Label)
		}
		for _, r := range b.Records {
			if !iv.Contains(r.Key) {
				return fmt.Errorf("%w: record %g outside leaf %s", ErrCorrupt, r.Key, l)
			}
		}
	}
	if want != 1 {
		return fmt.Errorf("%w: shape tiles [0, %g)", ErrCorrupt, want)
	}
	return nil
}
