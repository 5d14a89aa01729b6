package metrics

// Counter names one flat cost counter. Counters.Add takes it; counterTable
// holds its exported name, help text and Snapshot field.
type Counter int

const (
	// Lookups counts DHT-lookups: every routed Get/Put/Remove and
	// conditional write, the paper's bandwidth measure (section 8.1).
	Lookups Counter = iota
	// FailedGets counts DHT-gets that found no value (already counted as
	// lookups).
	FailedGets
	// MovedRecords counts records moved between peers, label slots included.
	MovedRecords
	Splits // leaf splits performed
	Merges // leaf merges performed
	// MaintLookups attributes already-counted lookups to structure
	// maintenance (splits and merges), the traffic Fig. 7b isolates.
	MaintLookups
	// CacheHits counts exact-match lookups resolved by probing a cached
	// leaf name with a single DHT-get.
	CacheHits
	// CacheMisses counts lookups for keys with no cached covering leaf,
	// answered by the full binary search.
	CacheMisses
	// CacheStale counts cache probes whose leaf had split or merged away,
	// so the client repaired and fell back.
	CacheStale
	// Retries counts repeated attempts after a transient substrate fault.
	// Each retry is also charged as a DHT-lookup by the instrumentation
	// layer beneath the policy wrapper.
	Retries
	Cancellations    // operations ended by the caller's context being cancelled
	DeadlineExceeded // operations ended by the caller's context deadline expiring
	// BatchOps counts native batched round trips. Only batches served by a
	// substrate's own Batcher implementation count; per-op fallbacks charge
	// nothing here because they save no round trips.
	BatchOps
	// BatchedKeys counts keys carried inside native batches. Every such key
	// is also charged as a DHT-lookup, keeping the bandwidth measure
	// identical whether or not batching is available.
	BatchedKeys
	// TornSplits counts buckets fetched with a pending split marker left
	// behind by a writer that crashed mid-mutation.
	TornSplits
	TornMerges // torn merge intents detected (lookup or scrub)
	// Repairs counts torn states idempotently completed or rolled back by
	// lookup read-repair or by Scrub.
	Repairs
	// ScrubLookups attributes already-counted lookups to Scrub walks, the
	// cost of verifying and repairing the tree's structural invariants.
	ScrubLookups
	// CASConflicts counts conditional writes that found the stored epoch
	// moved by a concurrent winner.
	CASConflicts
	// WriterRetries counts whole read-modify-write cycles the index layer
	// re-ran after losing a CAS.
	WriterRetries
	// CASFallbacks counts conditional operations served by the non-atomic
	// fetch-verify-write fallback because the substrate has no native CAS.
	CASFallbacks
	// RidesApplied counts one-record writes whose patch rode a probe of
	// their search and was applied by it: each is a write done without
	// the round trip of a patch of its own.
	RidesApplied
	// RidesRefused counts patches that rode a probe and were not applied,
	// so the probe was answered as a probe: patch bytes shipped for
	// nothing. A substrate that does not patch refuses every ride.
	RidesRefused
	// HedgedGets counts duplicate reads launched against another replica
	// holder after the original attempt outlived the hedge delay. Hedges
	// are physical round trips, not logical DHT-lookups — the paper's cost
	// model is unchanged; this counts the extra load spent buying tail
	// latency.
	HedgedGets
	HedgeWins // hedged gets whose duplicate answered before the original
	// Failovers counts reads that moved off an unhealthy holder (one that
	// failed, or whose redial gate was backing off) to another replica.
	Failovers
	// GossipRounds counts gossip round trips between two nodes, successful
	// or not.
	GossipRounds
	// ViewRefreshes counts membership views a client pulled from the
	// cluster and applied to its routing ring.
	ViewRefreshes
	// ReplicaProbes counts per-holder existence checks EnsureReplicated
	// issued while auditing a key's replica set.
	ReplicaProbes
	// ReplicaRepairs counts missing or older copies re-stored on their
	// ring owners by re-replication.
	ReplicaRepairs
	NumCounters // count sentinel, keep last
)

// counterRow is what the package knows about one Counter beyond its
// constant: the name it is exported under, its help text, and the
// Snapshot field that carries it.
type counterRow struct {
	// name is the key in the lht-bench report's counters block and, as
	// lht_<name>_total, the Prometheus series.
	name string
	// stem, when set, replaces name in the Prometheus series: the two
	// counters that predate the report kept a dht_ prefix there.
	stem  string
	help  string
	field func(*Snapshot) *int64
}

func (r *counterRow) series() string {
	if r.stem != "" {
		return "lht_" + r.stem + "_total"
	}
	return "lht_" + r.name + "_total"
}

// counterTable is the one place a counter's exported names and Snapshot
// field are declared, indexed by Counter. Snapshot, Sub, WritePrometheus
// and Counts loop over it; row order is the exposition order.
var counterTable = [NumCounters]counterRow{
	Lookups:          {"lookups", "dht_lookups", "DHT-lookups issued (paper section 8.1 bandwidth measure).", func(s *Snapshot) *int64 { return &s.Lookup.Total }},
	FailedGets:       {"failed_gets", "dht_failed_gets", "DHT-gets that returned not-found.", func(s *Snapshot) *int64 { return &s.Lookup.FailedGets }},
	MovedRecords:     {"moved_records", "", "Record slots moved between peers.", func(s *Snapshot) *int64 { return &s.Lookup.MovedRecords }},
	Splits:           {"splits", "", "Leaf splits performed.", func(s *Snapshot) *int64 { return &s.Lookup.Splits }},
	Merges:           {"merges", "", "Leaf merges performed.", func(s *Snapshot) *int64 { return &s.Lookup.Merges }},
	MaintLookups:     {"maint_lookups", "", "Lookups spent on splits and merges.", func(s *Snapshot) *int64 { return &s.Lookup.Maintenance }},
	CacheHits:        {"cache_hits", "", "Leaf-cache probes resolved in one DHT-get.", func(s *Snapshot) *int64 { return &s.Cache.Hits }},
	CacheMisses:      {"cache_misses", "", "Lookups with no leaf-cache entry.", func(s *Snapshot) *int64 { return &s.Cache.Misses }},
	CacheStale:       {"cache_stale", "", "Leaf-cache probes that detected a stale entry.", func(s *Snapshot) *int64 { return &s.Cache.Stale }},
	Retries:          {"retries", "", "Policy-layer retries after transient faults.", func(s *Snapshot) *int64 { return &s.Retry.Retries }},
	Cancellations:    {"cancellations", "", "Operations ended by context cancellation.", func(s *Snapshot) *int64 { return &s.Retry.Cancellations }},
	DeadlineExceeded: {"deadline_exceeded", "", "Operations ended by context deadline expiry.", func(s *Snapshot) *int64 { return &s.Retry.DeadlineExceeded }},
	BatchOps:         {"batch_ops", "", "Native batched round trips issued.", func(s *Snapshot) *int64 { return &s.Batch.Ops }},
	BatchedKeys:      {"batched_keys", "", "Keys carried inside native batches.", func(s *Snapshot) *int64 { return &s.Batch.Keys }},
	TornSplits:       {"torn_splits", "", "Torn split intents detected.", func(s *Snapshot) *int64 { return &s.Repair.TornSplits }},
	TornMerges:       {"torn_merges", "", "Torn merge intents detected.", func(s *Snapshot) *int64 { return &s.Repair.TornMerges }},
	Repairs:          {"repairs", "", "Torn states completed or rolled back.", func(s *Snapshot) *int64 { return &s.Repair.Repairs }},
	ScrubLookups:     {"scrub_lookups", "", "Lookups issued by Scrub walks.", func(s *Snapshot) *int64 { return &s.Repair.ScrubLookups }},
	CASConflicts:     {"cas_conflicts", "", "Conditional writes that lost their compare-and-swap.", func(s *Snapshot) *int64 { return &s.Write.CASConflicts }},
	WriterRetries:    {"writer_retries", "", "Index mutation rounds re-run after a CAS conflict.", func(s *Snapshot) *int64 { return &s.Write.WriterRetries }},
	CASFallbacks:     {"cas_fallbacks", "", "Conditional ops emulated by fetch-verify-write.", func(s *Snapshot) *int64 { return &s.Write.CASFallbacks }},
	RidesApplied:     {"write_rides_applied", "", "Write patches applied by the search probe they rode.", func(s *Snapshot) *int64 { return &s.Write.RidesApplied }},
	RidesRefused:     {"write_rides_refused", "", "Write patches that rode a search probe answered as a probe.", func(s *Snapshot) *int64 { return &s.Write.RidesRefused }},
	HedgedGets:       {"hedged_gets", "", "Duplicate reads launched after the hedge delay.", func(s *Snapshot) *int64 { return &s.Health.HedgedGets }},
	HedgeWins:        {"hedge_wins", "", "Hedges that answered before the original attempt.", func(s *Snapshot) *int64 { return &s.Health.HedgeWins }},
	Failovers:        {"failovers", "", "Reads rerouted off an unhealthy holder.", func(s *Snapshot) *int64 { return &s.Health.Failovers }},
	GossipRounds:     {"gossip_rounds", "", "Anti-entropy membership exchanges performed.", func(s *Snapshot) *int64 { return &s.Membership.GossipRounds }},
	ViewRefreshes:    {"view_refreshes", "", "Membership views applied to a client routing ring.", func(s *Snapshot) *int64 { return &s.Membership.ViewRefreshes }},
	ReplicaProbes:    {"replica_probes", "", "Per-holder existence probes issued by re-replication.", func(s *Snapshot) *int64 { return &s.Membership.ReplicaProbes }},
	ReplicaRepairs:   {"replica_repairs", "", "Missing replica copies restored on their owners.", func(s *Snapshot) *int64 { return &s.Membership.ReplicaRepairs }},
}

// Counts returns every flat counter under its report name (lookups,
// failed_gets, ...), the form the lht-bench report's counters block takes.
// Latency histograms and the phase matrix have no flat form; use s.Latency.
func (s Snapshot) Counts() map[string]int64 {
	m := make(map[string]int64, NumCounters)
	for k := range counterTable {
		m[counterTable[k].name] = *counterTable[k].field(&s)
	}
	return m
}
