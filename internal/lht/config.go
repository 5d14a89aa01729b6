package lht

import (
	"errors"
	"fmt"
	"time"

	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/metrics"
)

// Config tunes an LHT index. The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// SplitThreshold is theta_split: the storage capacity of a leaf
	// bucket, counted in record slots, one of which the leaf label
	// occupies (section 9.2). A bucket splits when an insertion brings
	// its weight (records + label slot) up to the threshold, i.e. when
	// its theta-1 real-record capacity is exceeded - the accounting under
	// which the paper derives average alpha = 1/2 + 1/(2*theta). Must be
	// at least 4 so both split halves can hold a record.
	SplitThreshold int

	// MergeThreshold triggers the dual of splitting: when, after a
	// deletion, a leaf and its sibling leaf have combined merged weight
	// strictly below MergeThreshold, they merge into their parent. The
	// paper (section 3.2) merges whenever a subtree drops below
	// theta_split; we default to theta_split/2 for hysteresis so an
	// insert-delete workload at the boundary does not thrash. Set to 0 to
	// disable merging.
	MergeThreshold int

	// Depth is D, the a-priori maximum tree depth in bits (paper section
	// 5: the maximum label length is D+1 characters, i.e. D bits). The
	// lookup binary search runs over prefix lengths 1..D. Must be in
	// [2, keyspace.MaxDepth] (52: the float64 exactness bound). The
	// paper's experiments use 20.
	Depth int

	// LeafCache enables the client-side leaf cache: a bounded LRU of
	// leaf labels this client has observed, consulted before Algorithm
	// 2's binary search. A hit resolves an exact-match lookup in one
	// DHT-get instead of ~log2(D); staleness (the leaf split or merged
	// since it was cached) is detected soundly from the probe outcome
	// and repaired, so results are always identical to the uncached
	// path — only the Lookups/Steps cost changes. Off by default so the
	// paper-reproduction experiments measure Algorithm 2 itself.
	LeafCache bool

	// LeafCacheSize bounds the number of cached leaf labels (LRU
	// eviction beyond it). 0 means DefaultLeafCacheSize; negative is
	// invalid. Ignored unless LeafCache is set.
	LeafCacheSize int

	// BatchSize caps the number of keys per batched DHT operation (the
	// bulk-load put rounds and the range-sweep multi-gets). Larger
	// batches mean fewer round trips on a batch-native substrate but
	// bigger messages. 0 means DefaultBatchSize; negative is invalid.
	// Batching never changes results or the Lookups/Steps cost, only
	// round trips; to disable it entirely, wrap the substrate with
	// dht.WithoutBatch.
	BatchSize int

	// Policy, when non-nil, interposes a dht.WithPolicy retry layer
	// between the index and the substrate: transient substrate faults
	// (classified by Policy.Classify, default dht.IsTransient) are
	// retried with capped jittered exponential backoff. The index wires
	// the policy's Counters to its own, and stacks the policy *above*
	// the instrumentation layer, so every retry attempt is charged as a
	// full DHT-lookup — retries are not free in the paper's cost model.
	// Nil (the default) means faults surface to the caller on the first
	// occurrence.
	Policy *dht.Policy

	// TraceSink, when non-nil, receives one structured metrics.OpEvent
	// per routed DHT primitive this index issues (kind, key, operation
	// class, algorithm phase, duration, outcome), letting a single slow
	// query be reconstructed span-by-span. metrics.NewRing provides a
	// bounded in-process sink. Nil (the default) disables tracing and
	// its clock reads.
	TraceSink metrics.TraceSink

	// Aggregate, when non-nil, chains this index's counters to a shared
	// parent: every increment also counts toward the aggregate, so many
	// index instances can serve one process-wide /metrics endpoint
	// while each keeps its own exact per-instance accounting.
	Aggregate *metrics.Counters

	// HedgeAfter enables quantile-triggered hedged reads below the
	// instrumentation layer: an idempotent DHT-get still waiting after
	// the hedge delay (the observed p95 get latency, floored at
	// HedgeAfter) launches one duplicate attempt, first answer wins, the
	// loser is cancelled. Over a replicated substrate the duplicate
	// starts at the first secondary, away from the primary the original
	// asked first (dht.ReadStart), so one slow or silently dead node
	// stops defining the read's tail latency. Hedges are physical round
	// trips only — the layer sits below the instrumentation, so the
	// paper's DHT-lookup cost model is unchanged
	// (HedgedGets/HedgeWins count them separately). 0 (the default)
	// disables hedging; negative is invalid.
	HedgeAfter time.Duration

	// Rereplicate extends Scrub with a re-replication pass when the
	// substrate implements dht.Rereplicator (the tcpnet cluster client
	// does): after the structural walk verifies the tree, every visited
	// bucket key is probed on all of its ring owners and missing or older
	// copies are restored from the highest-epoch survivor. The probe and restore
	// round trips are charged to the scrub's cost (they bypass the
	// instrumented stack, so Scrub accounts for them manually); query and
	// mutation costs are untouched, keeping the paper's pinned cost rows
	// byte-identical. Off by default; a no-op on substrates without
	// replication.
	Rereplicate bool
}

// DefaultLeafCacheSize is the leaf-cache capacity used when LeafCache
// is enabled with LeafCacheSize 0. At theta = 100 it covers trees of
// roughly 400k records, far beyond the paper's 2^20-record experiments'
// hot sets, while costing only a label (16 bytes) per entry.
const DefaultLeafCacheSize = 4096

// DefaultBatchSize is the per-batch key cap used when BatchSize is 0:
// big enough that a paper-scale bulk load ships in a handful of rounds,
// small enough that one message stays well under typical frame limits.
const DefaultBatchSize = 64

// DefaultConfig mirrors the paper's experiment defaults: theta_split =
// 100, D = 20, merges enabled with theta_split/2 hysteresis.
func DefaultConfig() Config {
	return Config{
		SplitThreshold: 100,
		MergeThreshold: 50,
		Depth:          20,
	}
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("lht: invalid config")

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
	if c.LeafCacheSize < 0 {
		return fmt.Errorf("%w: LeafCacheSize %d negative", ErrConfig, c.LeafCacheSize)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("%w: BatchSize %d negative", ErrConfig, c.BatchSize)
	}
	if c.HedgeAfter < 0 {
		return fmt.Errorf("%w: HedgeAfter %v negative", ErrConfig, c.HedgeAfter)
	}
	return nil
}

// leafCacheSize resolves the configured cache capacity, applying the
// default for 0.
func (c Config) leafCacheSize() int {
	if c.LeafCacheSize == 0 {
		return DefaultLeafCacheSize
	}
	return c.LeafCacheSize
}

// batchSize resolves the configured batch cap, applying the default for 0.
func (c Config) batchSize() int {
	if c.BatchSize == 0 {
		return DefaultBatchSize
	}
	return c.BatchSize
}
