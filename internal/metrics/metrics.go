// Package metrics provides the counters behind the paper's cost model
// (section 8.1): DHT-lookups and moved data records are the two
// bandwidth-consuming operations of an over-DHT indexing scheme, and
// parallel step depth is the latency measure of section 9.4.
//
// Beyond the flat cost-model counters, the package carries the
// observability plane: per-operation-class latency histograms and a
// lookup matrix attributing DHT traffic to the algorithm phase that
// issued it (probe, forward, split, merge, repair, retry). Operation
// and phase labels travel on the context (WithOp, WithPhase) so the
// instrumentation layer can charge each routed lookup to the right
// cell without threading extra parameters through the algorithms. The
// context holds a pointer into a static table of every (op, phase)
// pair, so a label costs one context node and reading it nothing. An
// index operation opens its scope once, with Counters.BeginOp, in the
// phase it starts in: a Get opens in PhaseProbe and carries one context
// node for all its probes, and only a phase change (a repair, a split)
// adds another.
//
// Counters are atomic so instrumented DHTs can be shared across
// goroutines; reads take a consistent-enough snapshot for reporting.
// A Counters may chain to a parent aggregate (Chain), letting many
// index instances roll up into one process-wide set served at /metrics
// while each instance keeps its own exact accounting.
//
// Adding a counter takes three edits: a Counter constant before
// NumCounters, its row in counterTable (counters.go), and the int64
// field of the Snapshot group the row points at. Everything else —
// Add, Snapshot, Reset, Sub, the /metrics exposition and the lht-bench
// report — loops over the table, and TestCounterTableComplete fails
// until all three exist.
package metrics

import (
	"context"
	"sync/atomic"
	"time"
)

// Cost reports the DHT traffic of a single index operation, the two
// measures of paper section 9: Lookups is the bandwidth measure (number of
// DHT-lookups issued) and Steps is the latency measure (the longest chain
// of DHT-lookups that must run sequentially; lookups issued by the same
// peer in one round proceed in parallel).
type Cost struct {
	Lookups int
	Steps   int
}

// Add accumulates another operation's cost as if run sequentially after
// this one.
func (c *Cost) Add(o Cost) {
	c.Lookups += o.Lookups
	c.Steps += o.Steps
}

// Counters aggregates the cost-model measurements of one index instance or
// one DHT instance. The zero value is ready to use.
type Counters struct {
	n [NumCounters]atomic.Int64 // the flat cost counters, indexed by Counter

	opCount [NumOps]atomic.Int64            // completed index operations per class
	opErrs  [NumOps]atomic.Int64            // subset of opCount that returned an error
	opLat   [NumOps]Histogram               // end-to-end latency per class
	phase   [NumOps][NumPhases]atomic.Int64 // lookup matrix: op class x algorithm phase

	// parent, when non-nil, receives a copy of every increment, so many
	// per-index Counters can roll up into one process-wide aggregate.
	// Set once via Chain before the Counters is shared.
	parent *Counters
}

// Chain makes every future increment of c also count toward parent
// (and, transitively, toward parent's own parent). Per-index values
// such as the split count stay exact on c — which derived statistics
// like AlphaMean depend on — while the aggregate sees the union of all
// chained children. Must be called before c is used concurrently.
func (c *Counters) Chain(parent *Counters) { c.parent = parent }

// Add adds n to counter k, here and on every chained parent. A nil
// receiver is a no-op, so callers need not check whether an aggregate is
// configured. k must be one of the declared constants.
func (c *Counters) Add(k Counter, n int64) {
	for ; c != nil; c = c.parent {
		c.n[k].Add(n)
	}
}

// AddPhaseLookups attributes n already-counted lookups to the (op, phase)
// cell of the attribution matrix. The instrumentation layer calls this
// alongside Add(Lookups, n) with the labels it read from the context, so the
// matrix row sums track the lookup total for labelled traffic.
func (c *Counters) AddPhaseLookups(op Op, phase Phase, n int64) {
	if op < 0 || op >= NumOps || phase < 0 || phase >= NumPhases {
		return
	}
	for ; c != nil; c = c.parent {
		c.phase[op][phase].Add(n)
	}
}

// ObserveOp records one completed index operation of the given class:
// its end-to-end latency and whether it returned an error.
func (c *Counters) ObserveOp(op Op, d time.Duration, failed bool) {
	if op < 0 || op >= NumOps {
		op = OpOther
	}
	for ; c != nil; c = c.parent {
		c.opCount[op].Add(1)
		if failed {
			c.opErrs[op].Add(1)
		}
		c.opLat[op].Observe(d)
	}
}

// OpScope is one index operation in flight, opened by BeginOp and
// closed by Done. It is a value, so opening an operation allocates
// nothing beyond its context node.
type OpScope struct {
	c     *Counters
	op    Op
	start time.Time
}

// BeginOp opens an operation scope for the observability plane: the
// returned context carries the operation class and the phase it opens
// in (so the instrumentation layer attributes each DHT-lookup to them),
// and the returned scope's Done records the operation's end-to-end
// latency and outcome. Every public index entry point calls it exactly
// once.
func (c *Counters) BeginOp(ctx context.Context, op Op, phase Phase) (context.Context, OpScope) {
	return withLabels(ctx, Labels{Op: op, Phase: phase}), OpScope{c: c, op: op, start: time.Now()}
}

// Done records the operation's latency and whether it failed.
func (s OpScope) Done(err error) { s.c.ObserveOp(s.op, time.Since(s.start), err != nil) }

// Snapshot is a point-in-time copy of the counters, grouped by concern:
// the paper's cost model (Lookup), the client leaf cache (Cache), the
// retry policy plane (Retry), the batched operation plane (Batch), the
// crash-consistency plane (Repair), multi-writer concurrency control
// (Write), graceful degradation (Health), self-healing membership
// (Membership), and per-operation-class latency and phase attribution
// (Latency).
type Snapshot struct {
	Lookup     LookupCounts
	Cache      CacheCounts
	Retry      RetryCounts
	Batch      BatchCounts
	Repair     RepairCounts
	Write      WriteCounts
	Health     HealthCounts
	Membership MembershipCounts
	Latency    LatencyStats
}

// LookupCounts are the paper's bandwidth-model counters.
type LookupCounts struct {
	Total        int64 // DHT-lookups issued
	FailedGets   int64 // DHT-gets that returned "not found"
	MovedRecords int64 // record slots moved between peers
	Splits       int64 // leaf splits
	Merges       int64 // leaf merges
	Maintenance  int64 // lookups spent on splits and merges
}

// CacheCounts are the client leaf-cache counters.
type CacheCounts struct {
	Hits   int64 // leaf-cache probes resolved in one DHT-get
	Misses int64 // lookups with no leaf-cache entry
	Stale  int64 // leaf-cache probes that detected a stale entry
}

// RetryCounts are the retry-policy-plane counters.
type RetryCounts struct {
	Retries          int64 // policy-layer retries after transient faults
	Cancellations    int64 // operations ended by context cancellation
	DeadlineExceeded int64 // operations ended by context deadline expiry
}

// BatchCounts are the batched-operation-plane counters.
type BatchCounts struct {
	Ops  int64 // native batched round trips issued
	Keys int64 // keys carried by those batches
}

// RepairCounts are the crash-consistency-plane counters.
type RepairCounts struct {
	TornSplits   int64 // torn split intents detected
	TornMerges   int64 // torn merge intents detected
	Repairs      int64 // torn states completed or rolled back
	ScrubLookups int64 // lookups issued by Scrub walks
}

// WriteCounts are the multi-writer concurrency-control counters.
type WriteCounts struct {
	CASConflicts  int64 // conditional writes that lost their compare-and-swap
	WriterRetries int64 // index mutation rounds re-run after a CAS conflict
	RidesApplied  int64 // write patches applied by the search probe they rode
	RidesRefused  int64 // write patches that rode a probe answered as a probe
}

// HealthCounts are the graceful-degradation-plane counters: hedged reads
// and holder failover keeping queries answered while the network
// misbehaves.
type HealthCounts struct {
	HedgedGets int64 // duplicate reads launched after the hedge delay
	HedgeWins  int64 // hedges that answered before the original attempt
	Failovers  int64 // reads rerouted off an unhealthy holder
}

// MembershipCounts are the self-healing-membership-plane counters:
// gossip keeping every view current, and re-replication restoring
// replica count after an outage, transient or permanent.
type MembershipCounts struct {
	GossipRounds   int64 // anti-entropy membership exchanges performed
	ViewRefreshes  int64 // membership views applied to a client's routing ring
	ReplicaProbes  int64 // per-holder existence probes issued by re-replication
	ReplicaRepairs int64 // missing or older replica copies restored on their owners
}

// OpStats are the per-operation-class observations: how many operations
// of the class completed, how many failed, their latency distribution,
// and the DHT-lookups they issued broken down by algorithm phase.
type OpStats struct {
	Count  int64
	Errors int64
	Hist   HistogramSnapshot
	Phases [NumPhases]int64
}

// Lookups returns the total DHT-lookups attributed to this class across
// all phases.
func (o OpStats) Lookups() int64 {
	var n int64
	for _, p := range o.Phases {
		n += p
	}
	return n
}

// LatencyStats hold one OpStats per operation class, indexed by Op.
type LatencyStats struct {
	Ops [NumOps]OpStats
}

// RoundTrips estimates the client's DHT round trips: every lookup is its
// own round trip except the keys carried by native batches, which share
// one round trip per batch. With no batching it equals Lookup.Total; a
// fully batched workload approaches one round trip per batch.
func (s Snapshot) RoundTrips() int64 { return s.Lookup.Total - s.Batch.Keys + s.Batch.Ops }

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	for k := range counterTable {
		*counterTable[k].field(&s) = c.n[k].Load()
	}
	for op := Op(0); op < NumOps; op++ {
		o := &s.Latency.Ops[op]
		o.Count = c.opCount[op].Load()
		o.Errors = c.opErrs[op].Load()
		o.Hist = c.opLat[op].Snapshot()
		for ph := Phase(0); ph < NumPhases; ph++ {
			o.Phases[ph] = c.phase[op][ph].Load()
		}
	}
	return s
}

// Reset zeroes all counters (the parent aggregate, if chained, keeps
// what it has already absorbed).
func (c *Counters) Reset() {
	for k := range c.n {
		c.n[k].Store(0)
	}
	for op := Op(0); op < NumOps; op++ {
		c.opCount[op].Store(0)
		c.opErrs[op].Store(0)
		c.opLat[op].reset()
		for ph := Phase(0); ph < NumPhases; ph++ {
			c.phase[op][ph].Store(0)
		}
	}
}

// Sub returns the component-wise difference s - prev, for measuring the
// cost of a single operation or experiment phase.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := s
	for k := range counterTable {
		field := counterTable[k].field
		*field(&d) -= *field(&prev)
	}
	for op := Op(0); op < NumOps; op++ {
		a, b := s.Latency.Ops[op], prev.Latency.Ops[op]
		o := &d.Latency.Ops[op]
		o.Count = a.Count - b.Count
		o.Errors = a.Errors - b.Errors
		o.Hist = a.Hist.Sub(b.Hist)
		for ph := Phase(0); ph < NumPhases; ph++ {
			o.Phases[ph] = a.Phases[ph] - b.Phases[ph]
		}
	}
	return d
}
