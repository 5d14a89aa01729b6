// Package dst implements the Distributed Segment Tree (Zheng et al.,
// IPTPS 2006), the second baseline the paper positions itself against
// (section 2): DST "replicates data keys across all ancestors of a leaf,
// and leverages parallel lookups to reduce query latency. Due to
// replication, data insertion in DST is inefficient."
//
// DST is a *fixed-height* segment tree over the key space: the tree does
// not grow or shrink - every key conceptually has a depth-D leaf, and an
// insert sends one store message to the node of every prefix of the key,
// root included (D messages, but a single parallel round). Interior nodes
// whose segment outgrows the node capacity "saturate": they drop their
// replicas and queries descend to their children, which hold complete
// copies of their halves. Depth-D nodes never saturate; they are the
// ground truth.
//
// What this buys and costs, as the paper's related-work section says:
//
//   - exact-match queries are one DHT-lookup (probe the depth-D node
//     directly);
//   - range queries decompose into at most 2D canonical segments, all
//     probed in parallel - low latency, bandwidth proportional to the
//     decomposition (an absent node simply means an empty segment);
//   - every insert and delete pays D DHT-lookups of bandwidth - an
//     order of magnitude more maintenance than LHT's lookup + 1.
//
// The implementation mirrors internal/lht and internal/pht so the bench
// harness compares all three over identical substrates and workloads.
package dst

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

var (
	// ErrKeyNotFound reports a search or deletion for an unindexed key.
	ErrKeyNotFound = errors.New("dst: data key not found")
	// ErrCorrupt reports a tree state the algorithms cannot explain.
	ErrCorrupt = errors.New("dst: corrupt index state")
	// ErrBadRange reports a malformed range query.
	ErrBadRange = errors.New("dst: invalid range")
	// ErrConfig reports an invalid configuration.
	ErrConfig = errors.New("dst: invalid config")
)

// Cost reports the DHT traffic of one operation; see metrics.Cost.
type Cost = metrics.Cost

// Node is one segment-tree node as stored in the DHT under its label.
// Nodes exist only where data exists: an absent node is an empty segment.
type Node struct {
	Label bitlabel.Label
	// Saturated marks an interior node that dropped its replicas because
	// its segment outgrew the node capacity; queries descend past it.
	// Depth-D nodes never saturate.
	Saturated bool
	// Records are the replicated records of the node's segment (complete
	// unless Saturated).
	Records []record.Record
}

// Weight is the node's storage occupancy (records + label slot), the
// same accounting as the LHT and PHT buckets.
func (n *Node) Weight() int { return len(n.Records) + 1 }

// Interval returns the segment the node covers.
func (n *Node) Interval() keyspace.Interval { return keyspace.IntervalOf(n.Label) }

// String summarizes the node.
func (n *Node) String() string {
	kind := "replica"
	if n.Saturated {
		kind = "saturated"
	}
	return fmt.Sprintf("dst(%s, %s, %d records)", n.Label, kind, len(n.Records))
}

// Config tunes a DST index.
type Config struct {
	// SaturationThreshold is the interior-node capacity in record slots
	// (the analogue of theta_split for comparability): an interior node
	// reaching it stops replicating. Depth-D nodes ignore it.
	SaturationThreshold int
	// Depth is D, the fixed tree height in bits.
	Depth int
}

// DefaultConfig matches the paper's experiment defaults.
func DefaultConfig() Config { return Config{SaturationThreshold: 100, Depth: 20} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SaturationThreshold < 4 {
		return fmt.Errorf("%w: SaturationThreshold %d < 4", ErrConfig, c.SaturationThreshold)
	}
	if c.Depth < 2 || c.Depth > keyspace.MaxDepth {
		return fmt.Errorf("%w: Depth %d outside [2, %d]", ErrConfig, c.Depth, keyspace.MaxDepth)
	}
	return nil
}

// Index is a DST index over a DHT substrate; create with New. The
// concurrency contract matches lht.Index: concurrent queries, exclusive
// writers.
type Index struct {
	// raw is the uncharged handle used to emulate *node-local* work: a
	// real DST insert sends one store message per level and the
	// receiving node applies the merge locally; this client-side
	// emulation reads the node's state through raw and charges only the
	// routed message through d.
	raw dht.DHT
	d   dht.DHT
	cfg Config
	c   *metrics.Counters
}

// New creates an index client. DST needs no bootstrap: an empty tree is
// simply the absence of nodes.
func New(d dht.DHT, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &metrics.Counters{}
	return &Index{raw: d, d: dht.NewInstrumented(d, c), cfg: cfg, c: c}, nil
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Metrics returns the cumulative cost counters of this client.
func (ix *Index) Metrics() metrics.Snapshot { return ix.c.Snapshot() }

// getNode fetches and type-asserts a node, charging cost.
func (ix *Index) getNode(key string, cost *Cost) (*Node, error) {
	cost.Lookups++
	v, err := ix.d.Get(context.Background(), key)
	if err != nil {
		return nil, err
	}
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("%w: key %q holds %T, not a node", ErrCorrupt, key, v)
	}
	return n, nil
}

// peekNode reads a node through the uncharged handle (node-local work).
func (ix *Index) peekNode(label bitlabel.Label) (*Node, error) {
	v, err := ix.raw.Get(context.Background(), label.Key())
	if errors.Is(err, dht.ErrNotFound) {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("%w: key %q holds %T, not a node", ErrCorrupt, label.Key(), v)
	}
	return n, nil
}

// Insert adds a record (replacing any record with the same key): one
// routed store per tree level, all in one parallel round - the
// replication cost the paper's related-work section criticizes.
func (ix *Index) Insert(rec record.Record) (Cost, error) {
	var cost Cost
	if err := keyspace.CheckKey(rec.Key); err != nil {
		return cost, err
	}
	mu, err := keyspace.Mu(rec.Key, ix.cfg.Depth)
	if err != nil {
		return cost, err
	}
	cost.Steps = 1 // the per-level stores go out in parallel
	for level := 1; level <= mu.Len(); level++ {
		label := mu.Prefix(level)
		n, err := ix.peekNode(label)
		switch {
		case errors.Is(err, dht.ErrNotFound):
			n = &Node{Label: label, Records: []record.Record{rec}}
		case err != nil:
			return cost, err
		case n.Saturated:
			// Nothing to store here; the message is still sent (the
			// sender cannot know), so it is still charged below.
		default:
			storeIn(n, rec)
			if label.Len() < ix.cfg.Depth && n.Weight() >= ix.cfg.SaturationThreshold {
				n.Saturated = true
				n.Records = nil
				ix.c.Add(metrics.Splits, 1) // saturation events stand in for splits
			}
		}
		// One routed store message per level.
		cost.Lookups++
		ix.c.Add(metrics.MovedRecords, 1)
		if err := ix.d.Put(context.Background(), label.Key(), n); err != nil {
			return cost, fmt.Errorf("dst: insert put %s: %w", label, err)
		}
	}
	ix.c.Add(metrics.MaintLookups, int64(mu.Len()-1)) // everything beyond the leaf store is replication upkeep
	return cost, nil
}

// storeIn appends or replaces rec in n.
func storeIn(n *Node, rec record.Record) {
	if i := record.FindByKey(n.Records, rec.Key); i >= 0 {
		n.Records[i] = rec
		return
	}
	n.Records = append(n.Records, rec)
}

// Delete removes the record from every level of its path (one routed
// message per level, like Insert), or returns ErrKeyNotFound.
func (ix *Index) Delete(delta float64) (Cost, error) {
	var cost Cost
	if err := keyspace.CheckKey(delta); err != nil {
		return cost, err
	}
	mu, err := keyspace.Mu(delta, ix.cfg.Depth)
	if err != nil {
		return cost, err
	}
	// Check existence at the ground-truth level first (one probe).
	leaf, err := ix.getNode(mu.Key(), &cost)
	cost.Steps++
	if errors.Is(err, dht.ErrNotFound) {
		return cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
	}
	if err != nil {
		return cost, err
	}
	if record.FindByKey(leaf.Records, delta) < 0 {
		return cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
	}
	cost.Steps++ // the per-level removals go out in parallel
	for level := 1; level <= mu.Len(); level++ {
		label := mu.Prefix(level)
		n, err := ix.peekNode(label)
		if errors.Is(err, dht.ErrNotFound) {
			continue
		}
		if err != nil {
			return cost, err
		}
		cost.Lookups++
		if i := record.FindByKey(n.Records, delta); i >= 0 {
			n.Records[i] = n.Records[len(n.Records)-1]
			n.Records = n.Records[:len(n.Records)-1]
		}
		if len(n.Records) == 0 && !n.Saturated {
			if err := ix.d.Remove(context.Background(), label.Key()); err != nil {
				return cost, fmt.Errorf("dst: delete remove %s: %w", label, err)
			}
			continue
		}
		if err := ix.d.Put(context.Background(), label.Key(), n); err != nil {
			return cost, fmt.Errorf("dst: delete put %s: %w", label, err)
		}
	}
	if cost.Lookups > 1 {
		ix.c.Add(metrics.MaintLookups, int64(cost.Lookups-1))
	}
	return cost, nil
}

// Search answers an exact-match query with a single DHT-lookup: the
// depth-D node of the key's path holds the ground truth. This is the
// flip side of DST's expensive insertion.
func (ix *Index) Search(delta float64) (record.Record, Cost, error) {
	var cost Cost
	if err := keyspace.CheckKey(delta); err != nil {
		return record.Record{}, cost, err
	}
	mu, err := keyspace.Mu(delta, ix.cfg.Depth)
	if err != nil {
		return record.Record{}, cost, err
	}
	n, err := ix.getNode(mu.Key(), &cost)
	cost.Steps = cost.Lookups
	if errors.Is(err, dht.ErrNotFound) {
		return record.Record{}, cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
	}
	if err != nil {
		return record.Record{}, cost, err
	}
	if i := record.FindByKey(n.Records, delta); i >= 0 {
		return n.Records[i], cost, nil
	}
	return record.Record{}, cost, fmt.Errorf("%w: %v", ErrKeyNotFound, delta)
}
