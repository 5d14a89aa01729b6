// Package lht is LHT, a low-maintenance hash tree for data indexing over
// DHTs (Tang & Zhou, ICDCS 2008).
//
// LHT turns any DHT with a put/get interface into an order-preserving
// index over one-dimensional keys in [0, 1), supporting exact-match,
// range, and min/max queries. Its distinguishing property is maintenance
// cost: a novel naming function maps the leaves of a distributed space
// partition tree onto the DHT so that a leaf split keeps one half on its
// current peer - one DHT-lookup and half a bucket of data per split,
// 50-75% cheaper than the prior state of the art (PHT), while queries get
// faster, not slower.
//
// Quick start:
//
//	d := lht.NewLocalDHT()                     // or NewChordDHT / NewKademliaDHT
//	ix, err := lht.New(d, lht.WithLeafCache(1024))
//	...
//	ix.InsertContext(ctx, lht.Record{Key: 0.42, Value: []byte("answer")})
//	recs, cost, err := ix.RangeContext(ctx, 0.4, 0.6)
//
// New takes functional options (WithLeafCache, WithPolicy, WithBatchSize,
// WithTraceSink, ...) layered over DefaultConfig; a full Config is itself
// an option, so New(d, cfg) keeps working and options after it override
// single fields.
//
// # Context-first API
//
// The context-taking methods (GetContext, RangeContext, InsertContext,
// ...) are the canonical API: they thread a context.Context down to the
// substrate, where deadlines become socket deadlines on networked
// substrates and cancellation stops multi-step algorithms (including a
// range query's forwarding rounds) promptly. The context also carries the
// operation and phase labels the observability plane attributes traffic
// to. Each plain variant (Get, Range, Insert, ...) is shorthand for the
// Context method under context.Background(); see the compatibility
// section at the bottom of this file.
//
// Read-heavy clients can enable the client-side leaf cache
// (WithLeafCache): exact-match lookups then amortize to a single DHT-get
// instead of Algorithm 2's ~log2(D) sequential probes — a repeat key by
// hitting its cached leaf, a key whose leaf was never seen by starting
// the search at the depth of its cached neighbours — with staleness
// after splits/merges detected and repaired soundly, so query results
// never change — only their cost (see Snapshot.Cache). The WithPolicy
// option adds a retry/backoff layer that absorbs transient substrate
// faults (see Policy and DefaultPolicy); every retry is charged as a
// DHT-lookup, keeping the paper's cost model honest.
//
// # Observability
//
// Every index keeps per-operation-class latency histograms and a
// phase-attributed lookup matrix alongside the paper's cost counters:
// Metrics returns the grouped Snapshot (Lookup, Cache, Retry, Batch,
// Repair, Write, Load, Health, Membership, Latency sub-structs).
// WritePrometheus / MetricsHandler / NewMetricsMux export the
// same counters in Prometheus text format, and WithTraceSink streams one
// structured OpEvent per DHT operation into a sink such as the bounded
// NewTraceRing. cmd/lht-node and cmd/lht-bench serve these on a -metrics
// HTTP endpoint together with net/http/pprof.
//
// Substrates that implement the optional Batcher interface serve
// many-key rounds — bulk loads, a range query's forwarding rounds — in
// one network round trip per peer instead of one per key. Batching
// changes latency and round-trip counts only: Lookups (the paper's
// bandwidth measure) and query results are identical either way, and
// WithoutBatch restores strict per-op behavior for comparison.
//
// The substrates, the PHT baseline, and the experiment harness that
// regenerates the paper's figures live under internal/; see DESIGN.md for
// the system inventory and EXPERIMENTS.md for reproduction results.
package lht

import (
	"context"
	"io"
	"net/http"
	"time"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/metrics"
	"lht/internal/record"
)

// Record is one indexed data unit: a key in [0, 1) plus an opaque payload.
//
// The Value of a record an index hands back (GetContext, RangeContext,
// scans, min/max) is read-only: it shares memory with the bucket it was
// read from — the stored bucket itself on the in-process substrates, the
// bucket's one decode buffer on a networked one — so writing into it
// corrupts other readers, and holding it keeps that whole buffer alive.
// Copy a value to modify it or to retain it long-term. (The one
// exception pins less, not more: a GetContext over the TCP substrate is
// answered with the one record, whose Value is a small copy of its own.)
type Record = record.Record

// Config tunes an index: theta_split, the merge threshold, the maximum
// tree depth D, the client-side leaf cache, batching, retry policy, and
// observability wiring. A Config is itself an Option (replacing the
// whole configuration built so far), so New(d, cfg) and
// New(d, cfg, lht.WithTraceSink(s)) both work.
type Config = ilht.Config

// Option configures an index at construction; see New. Options layer
// over DefaultConfig in order.
type Option = ilht.Option

// DefaultLeafCacheSize is the leaf-cache capacity used when the leaf
// cache is enabled with size 0.
const DefaultLeafCacheSize = ilht.DefaultLeafCacheSize

// Cost reports the DHT traffic of one operation: Lookups (bandwidth) and
// Steps (latency in dependent rounds).
type Cost = metrics.Cost

// Snapshot is the cumulative counter state of an index client, grouped
// by concern: Lookup (the paper's cost counters), Cache, Retry, Batch,
// Repair, Write, Load, Health, Membership, and Latency
// (per-operation-class histograms and phase attribution).
type Snapshot = metrics.Snapshot

// Bucket is a leaf bucket of the partition tree, as returned by inspection
// helpers.
type Bucket = ilht.Bucket

// TraceSink receives one structured OpEvent per DHT operation an index
// performs; attach one with WithTraceSink. Implementations must be safe
// for concurrent use (an index may serve many goroutines at once).
type TraceSink = metrics.TraceSink

// OpEvent is one traced DHT operation: kind, key, operation class and
// phase, duration, and outcome.
type OpEvent = metrics.OpEvent

// TraceRing is a bounded in-memory TraceSink retaining the most recent
// events; create one with NewTraceRing.
type TraceRing = metrics.Ring

// NewTraceRing returns a TraceRing retaining the last n events.
func NewTraceRing(n int) *TraceRing { return metrics.NewRing(n) }

// WritePrometheus writes a Snapshot in Prometheus text exposition format.
func WritePrometheus(w io.Writer, s Snapshot) error { return metrics.WritePrometheus(w, s) }

// MetricsHandler serves snap() in Prometheus text format on every GET.
func MetricsHandler(snap func() Snapshot) http.Handler { return metrics.Handler(snap) }

// NewMetricsMux returns an http.ServeMux serving /metrics (Prometheus
// text format from snap) and the net/http/pprof profile endpoints.
func NewMetricsMux(snap func() Snapshot) *http.ServeMux { return metrics.NewMux(snap) }

// Errors surfaced by index operations.
var (
	// ErrKeyNotFound reports an exact-match query or deletion for an
	// unindexed key.
	ErrKeyNotFound = ilht.ErrKeyNotFound
	// ErrEmpty reports a min/max query against an empty index.
	ErrEmpty = ilht.ErrEmpty
	// ErrBadRange reports a malformed range query.
	ErrBadRange = ilht.ErrBadRange
	// ErrNotFound is the substrate-level "no value under this key".
	ErrNotFound = dht.ErrNotFound
	// ErrNotEmpty reports a BulkLoad into a non-empty index.
	ErrNotEmpty = ilht.ErrNotEmpty
	// ErrPartialLoad reports a BulkLoad that failed after shipping some
	// leaves: the tree is partially populated, not absent. The error is
	// always a *PartialLoadError carrying ship counts and the root cause.
	ErrPartialLoad = ilht.ErrPartialLoad
	// ErrNoCluster reports a cluster operation (ClusterStatus) against a
	// substrate without a membership plane.
	ErrNoCluster = ilht.ErrNoCluster
)

// PartialLoadError is the error type behind ErrPartialLoad: how many
// leaves shipped before the failure, out of how many planned, and the
// first real cause (cancellations yield to substrate faults).
type PartialLoadError = ilht.PartialLoadError

// DefaultConfig returns the paper's experiment defaults: theta_split =
// 100, D = 20, merging enabled.
func DefaultConfig() Config { return ilht.DefaultConfig() }

// WithLeafCache enables the client-side leaf cache with the given
// capacity (0 means DefaultLeafCacheSize).
func WithLeafCache(size int) Option { return ilht.WithLeafCache(size) }

// WithPolicy interposes a retry/backoff layer absorbing transient
// substrate faults; every retry is charged as a DHT-lookup.
func WithPolicy(p Policy) Option { return ilht.WithPolicy(p) }

// WithBatchSize caps the keys per batched DHT operation (bulk-load
// rounds, and the range sweep's multi-gets).
func WithBatchSize(n int) Option { return ilht.WithBatchSize(n) }

// WithTraceSink attaches a structured op-event sink; see TraceSink and
// NewTraceRing.
func WithTraceSink(s TraceSink) Option { return ilht.WithTraceSink(s) }

// WithDepth sets D, the a-priori maximum tree depth.
func WithDepth(d int) Option { return ilht.WithDepth(d) }

// WithThresholds sets theta_split and the merge hysteresis threshold.
func WithThresholds(split, merge int) Option { return ilht.WithThresholds(split, merge) }

// WithRereplication extends Scrub with a replica-repair pass over
// substrates with a membership plane (the tcpnet cluster client): after
// the structural walk, every live storage key is probed on all of its
// ring owners and missing or older copies are restored from the
// highest-epoch survivor. A no-op on other substrates; off by default.
func WithRereplication(on bool) Option { return ilht.WithRereplication(on) }

// WithHedgedGets enables quantile-triggered hedged reads: an idempotent
// DHT-get still unanswered after the trigger delay (observed p95,
// floored at after) races a duplicate, first answer wins. Over a
// replicated TCP substrate the duplicate probes a different holder, so
// one slow or partitioned node stops defining the read tail. Hedges are
// physical round trips, never DHT-lookups; see Config.HedgeAfter.
func WithHedgedGets(after time.Duration) Option { return ilht.WithHedgedGets(after) }

// Index is an LHT index over a DHT substrate. Create one with New.
//
// Concurrency contract: every operation is safe to call concurrently
// from any number of goroutines and any number of Index handles over the
// same substrate — readers, writers (Insert, Delete), and a repairing
// Scrub included. Mutations are optimistic: each one rebuilds the target
// bucket from a fresh read and commits it with an epoch-guarded
// compare-and-swap on the storing peer (the substrate's Conditional
// capability), retrying from a fresh read whenever a concurrent writer
// won the bucket first; over tcpnet a one-record write is instead a patch
// the storing peer applies only to a leaf it is meant for, and one that
// no longer is sends the writer back to its search. Splits and merges
// yield silently to a concurrent
// winner and are retried by whichever writer next visits the overweight
// (or underweight) leaf, so structural maintenance needs no coordination
// either. Lost CAS rounds are visible in Snapshot.Write (CASConflicts,
// WriterRetries). BulkLoad remains an empty-index construction pass, not
// a concurrent mutation.
type Index struct {
	inner *ilht.Index
}

// New creates an index client over a substrate, bootstrapping the empty
// tree if the substrate holds none. With no options the index uses
// DefaultConfig; pass options (or a whole Config, which is an Option) to
// tune it:
//
//	ix, err := lht.New(d, lht.WithLeafCache(1024), lht.WithPolicy(lht.DefaultPolicy()))
func New(d DHT, opts ...Option) (*Index, error) {
	inner, err := ilht.New(d, ilht.BuildConfig(opts...))
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// InsertContext adds a record, replacing any record with the same key.
func (ix *Index) InsertContext(ctx context.Context, r Record) (Cost, error) {
	return ix.inner.InsertContext(ctx, r)
}

// BulkLoadContext populates an empty index with a whole dataset in one
// pass (about one DHT-put per resulting leaf), the standard construction
// optimization; ErrNotEmpty if the index already holds data. Leaves ship
// in batched parallel put rounds (WithBatchSize keys per batch); a
// failure mid-load surfaces as a *PartialLoadError once any leaf has
// landed.
func (ix *Index) BulkLoadContext(ctx context.Context, recs []Record) (Cost, error) {
	return ix.inner.BulkLoadContext(ctx, recs)
}

// DeleteContext removes the record with the given key, or returns
// ErrKeyNotFound.
func (ix *Index) DeleteContext(ctx context.Context, key float64) (Cost, error) {
	return ix.inner.DeleteContext(ctx, key)
}

// GetContext answers an exact-match query for one key. The record's
// Value is read-only and may share its bucket's memory (see Record).
func (ix *Index) GetContext(ctx context.Context, key float64) (Record, Cost, error) {
	return ix.inner.SearchContext(ctx, key)
}

// RangeContext returns every record with key in [lo, hi). A deadline
// bounds the whole forwarding recursion, and cancellation stops the
// parallel branch goroutines promptly. The records' Values are read-only
// and share their buckets' memory (see Record).
func (ix *Index) RangeContext(ctx context.Context, lo, hi float64) ([]Record, Cost, error) {
	return ix.inner.RangeContext(ctx, lo, hi)
}

// MinContext returns the record with the smallest key (one DHT-lookup).
func (ix *Index) MinContext(ctx context.Context) (Record, Cost, error) {
	return ix.inner.MinContext(ctx)
}

// MaxContext returns the record with the largest key (one DHT-lookup).
func (ix *Index) MaxContext(ctx context.Context) (Record, Cost, error) {
	return ix.inner.MaxContext(ctx)
}

// ScanContext returns up to limit records with keys >= from in ascending
// order - the pagination primitive (resume with from = last returned
// key).
func (ix *Index) ScanContext(ctx context.Context, from float64, limit int) ([]Record, Cost, error) {
	return ix.inner.ScanContext(ctx, from, limit)
}

// ScrubReport is the typed outcome of a Scrub pass: leaves and records
// visited, DHT cost, repairs applied and invariant violations observed.
type ScrubReport = ilht.ScrubReport

// ScrubContext walks the reachable label space, verifying the tree's
// structural invariants and repairing torn splits/merges, orphaned
// buckets and misplaced records. A scrub of a consistent tree performs
// no writes; a repairing scrub counts as a writer for the concurrency
// contract.
func (ix *Index) ScrubContext(ctx context.Context) (*ScrubReport, error) {
	return ix.inner.Scrub(ctx)
}

// ClusterStatus is the membership view of a self-healing cluster
// substrate: per member its gossip state and incarnation, and known
// replica debt.
type ClusterStatus = dht.ClusterStatus

// MemberStatus is one member's row in a ClusterStatus.
type MemberStatus = dht.MemberStatus

// ClusterStatus reports the substrate cluster's membership view. It
// fails with ErrNoCluster when the substrate has no membership plane
// (anything but the tcpnet cluster client). Status traffic is free in
// the paper's cost model.
func (ix *Index) ClusterStatus(ctx context.Context) (ClusterStatus, error) {
	return ix.inner.ClusterStatus(ctx)
}

// Count returns the number of indexed records by walking all leaves (an
// inspection helper, not a constant-cost query).
func (ix *Index) Count() (int, error) { return ix.inner.Count() }

// Leaves returns the leaf buckets in key order (inspection helper).
func (ix *Index) Leaves() ([]*Bucket, error) { return ix.inner.Leaves() }

// CheckInvariants verifies the structural invariants of the stored tree;
// useful in tests of applications embedding LHT.
func (ix *Index) CheckInvariants() error { return ix.inner.CheckInvariants() }

// Metrics returns this client's cumulative counters: the paper's cost
// counters under Snapshot.Lookup, plus the cache, retry, batch, repair,
// write, load, health, membership and per-operation-class latency
// groups.
func (ix *Index) Metrics() Snapshot { return ix.inner.Metrics() }

// AlphaMean returns the measured average alpha over all splits (paper
// section 8.2) and the split count.
func (ix *Index) AlphaMean() (float64, int64) { return ix.inner.AlphaMean() }

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.inner.Config() }

// Background-context compatibility methods.
//
// Each method below is exactly its Context counterpart under
// context.Background(), kept so casual and historical callers stay
// source-compatible; the Context methods above are the canonical,
// documented API.

// Insert is InsertContext under context.Background().
func (ix *Index) Insert(r Record) (Cost, error) { return ix.InsertContext(context.Background(), r) }

// BulkLoad is BulkLoadContext under context.Background().
func (ix *Index) BulkLoad(recs []Record) (Cost, error) {
	return ix.BulkLoadContext(context.Background(), recs)
}

// Delete is DeleteContext under context.Background().
func (ix *Index) Delete(key float64) (Cost, error) {
	return ix.DeleteContext(context.Background(), key)
}

// Get is GetContext under context.Background().
func (ix *Index) Get(key float64) (Record, Cost, error) {
	return ix.GetContext(context.Background(), key)
}

// Range is RangeContext under context.Background().
func (ix *Index) Range(lo, hi float64) ([]Record, Cost, error) {
	return ix.RangeContext(context.Background(), lo, hi)
}

// Min is MinContext under context.Background().
func (ix *Index) Min() (Record, Cost, error) { return ix.MinContext(context.Background()) }

// Max is MaxContext under context.Background().
func (ix *Index) Max() (Record, Cost, error) { return ix.MaxContext(context.Background()) }

// Scan is ScanContext under context.Background().
func (ix *Index) Scan(from float64, limit int) ([]Record, Cost, error) {
	return ix.ScanContext(context.Background(), from, limit)
}

// Scrub is ScrubContext under context.Background().
func (ix *Index) Scrub() (*ScrubReport, error) { return ix.ScrubContext(context.Background()) }
