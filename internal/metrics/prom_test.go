package metrics

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// goldenCounters populates a Counters deterministically: fixed counter
// increments and fixed observation durations, so the exposition below is
// pinned byte-for-byte.
func goldenCounters() *Counters {
	var c Counters
	c.Add(Lookups, 12)
	c.Add(FailedGets, 2)
	c.Add(MovedRecords, 30)
	c.Add(Splits, 3)
	c.Add(Merges, 1)
	c.Add(MaintLookups, 5)
	c.Add(CacheHits, 4)
	c.Add(CacheMisses, 6)
	c.Add(CacheStale, 1)
	c.Add(Retries, 2)
	c.Add(Cancellations, 1)
	c.Add(DeadlineExceeded, 1)
	c.Add(BatchOps, 2)
	c.Add(BatchedKeys, 8)
	c.Add(TornSplits, 1)
	c.Add(Repairs, 1)
	c.Add(ScrubLookups, 4)
	c.Add(CASConflicts, 3)
	c.Add(WriterRetries, 2)
	c.Add(CASFallbacks, 1)
	c.Add(RidesApplied, 7)
	c.Add(RidesRefused, 3)
	c.Add(HedgedGets, 3)
	c.Add(HedgeWins, 1)
	c.Add(Failovers, 2)
	c.Add(GossipRounds, 5)
	c.Add(ViewRefreshes, 2)
	c.Add(ReplicaProbes, 9)
	c.Add(ReplicaRepairs, 1)
	c.AddPhaseLookups(OpGet, PhaseProbe, 7)
	c.AddPhaseLookups(OpGet, PhaseRetry, 1)
	c.AddPhaseLookups(OpRange, PhaseForward, 4)
	c.ObserveOp(OpGet, 2*time.Microsecond, false)
	c.ObserveOp(OpGet, 3*time.Microsecond, true)
	c.ObserveOp(OpRange, time.Millisecond, false)
	return &c
}

const goldenExposition = `# HELP lht_dht_lookups_total DHT-lookups issued (paper section 8.1 bandwidth measure).
# TYPE lht_dht_lookups_total counter
lht_dht_lookups_total 12
# HELP lht_dht_failed_gets_total DHT-gets that returned not-found.
# TYPE lht_dht_failed_gets_total counter
lht_dht_failed_gets_total 2
# HELP lht_moved_records_total Record slots moved between peers.
# TYPE lht_moved_records_total counter
lht_moved_records_total 30
# HELP lht_splits_total Leaf splits performed.
# TYPE lht_splits_total counter
lht_splits_total 3
# HELP lht_merges_total Leaf merges performed.
# TYPE lht_merges_total counter
lht_merges_total 1
# HELP lht_maint_lookups_total Lookups spent on splits and merges.
# TYPE lht_maint_lookups_total counter
lht_maint_lookups_total 5
# HELP lht_cache_hits_total Leaf-cache probes resolved in one DHT-get.
# TYPE lht_cache_hits_total counter
lht_cache_hits_total 4
# HELP lht_cache_misses_total Lookups with no leaf-cache entry.
# TYPE lht_cache_misses_total counter
lht_cache_misses_total 6
# HELP lht_cache_stale_total Leaf-cache probes that detected a stale entry.
# TYPE lht_cache_stale_total counter
lht_cache_stale_total 1
# HELP lht_retries_total Policy-layer retries after transient faults.
# TYPE lht_retries_total counter
lht_retries_total 2
# HELP lht_cancellations_total Operations ended by context cancellation.
# TYPE lht_cancellations_total counter
lht_cancellations_total 1
# HELP lht_deadline_exceeded_total Operations ended by context deadline expiry.
# TYPE lht_deadline_exceeded_total counter
lht_deadline_exceeded_total 1
# HELP lht_batch_ops_total Native batched round trips issued.
# TYPE lht_batch_ops_total counter
lht_batch_ops_total 2
# HELP lht_batched_keys_total Keys carried inside native batches.
# TYPE lht_batched_keys_total counter
lht_batched_keys_total 8
# HELP lht_torn_splits_total Torn split intents detected.
# TYPE lht_torn_splits_total counter
lht_torn_splits_total 1
# HELP lht_torn_merges_total Torn merge intents detected.
# TYPE lht_torn_merges_total counter
lht_torn_merges_total 0
# HELP lht_repairs_total Torn states completed or rolled back.
# TYPE lht_repairs_total counter
lht_repairs_total 1
# HELP lht_scrub_lookups_total Lookups issued by Scrub walks.
# TYPE lht_scrub_lookups_total counter
lht_scrub_lookups_total 4
# HELP lht_cas_conflicts_total Conditional writes that lost their compare-and-swap.
# TYPE lht_cas_conflicts_total counter
lht_cas_conflicts_total 3
# HELP lht_writer_retries_total Index mutation rounds re-run after a CAS conflict.
# TYPE lht_writer_retries_total counter
lht_writer_retries_total 2
# HELP lht_cas_fallbacks_total Conditional ops emulated by fetch-verify-write.
# TYPE lht_cas_fallbacks_total counter
lht_cas_fallbacks_total 1
# HELP lht_write_rides_applied_total Write patches applied by the search probe they rode.
# TYPE lht_write_rides_applied_total counter
lht_write_rides_applied_total 7
# HELP lht_write_rides_refused_total Write patches that rode a search probe answered as a probe.
# TYPE lht_write_rides_refused_total counter
lht_write_rides_refused_total 3
# HELP lht_hedged_gets_total Duplicate reads launched after the hedge delay.
# TYPE lht_hedged_gets_total counter
lht_hedged_gets_total 3
# HELP lht_hedge_wins_total Hedges that answered before the original attempt.
# TYPE lht_hedge_wins_total counter
lht_hedge_wins_total 1
# HELP lht_failovers_total Reads rerouted off an unhealthy holder.
# TYPE lht_failovers_total counter
lht_failovers_total 2
# HELP lht_gossip_rounds_total Anti-entropy membership exchanges performed.
# TYPE lht_gossip_rounds_total counter
lht_gossip_rounds_total 5
# HELP lht_view_refreshes_total Membership views applied to a client routing ring.
# TYPE lht_view_refreshes_total counter
lht_view_refreshes_total 2
# HELP lht_replica_probes_total Per-holder existence probes issued by re-replication.
# TYPE lht_replica_probes_total counter
lht_replica_probes_total 9
# HELP lht_replica_repairs_total Missing replica copies restored on their owners.
# TYPE lht_replica_repairs_total counter
lht_replica_repairs_total 1
# HELP lht_op_total Completed index operations per class.
# TYPE lht_op_total counter
lht_op_total{op="get"} 2
lht_op_total{op="range"} 1
# HELP lht_op_errors_total Index operations per class that returned an error.
# TYPE lht_op_errors_total counter
lht_op_errors_total{op="get"} 1
lht_op_errors_total{op="range"} 0
# HELP lht_phase_lookups_total DHT-lookups attributed to an operation class and algorithm phase.
# TYPE lht_phase_lookups_total counter
lht_phase_lookups_total{op="get",phase="probe"} 7
lht_phase_lookups_total{op="get",phase="retry"} 1
lht_phase_lookups_total{op="range",phase="forward"} 4
# HELP lht_op_latency_seconds End-to-end index operation latency per class.
# TYPE lht_op_latency_seconds histogram
lht_op_latency_seconds_bucket{op="get",le="2.048e-06"} 1
lht_op_latency_seconds_bucket{op="get",le="4.096e-06"} 2
lht_op_latency_seconds_bucket{op="get",le="+Inf"} 2
lht_op_latency_seconds_sum{op="get"} 5e-06
lht_op_latency_seconds_count{op="get"} 2
lht_op_latency_seconds_bucket{op="range",le="0.001048576"} 1
lht_op_latency_seconds_bucket{op="range",le="+Inf"} 1
lht_op_latency_seconds_sum{op="range"} 0.001
lht_op_latency_seconds_count{op="range"} 1
`

// TestWritePrometheusGolden pins the full exposition for a deterministic
// workload: any change to metric names, label sets, or bucket rendering
// must update the golden text consciously.
func TestWritePrometheusGolden(t *testing.T) {
	// Every flat counter has one unlabelled lht_*_total series, named from
	// the same table row as its Snapshot.Counts key, so pinning the series
	// here pins the lht-bench report's counter keys too.
	series := 0
	for _, line := range strings.Split(goldenExposition, "\n") {
		name, _, _ := strings.Cut(line, " ")
		if strings.HasPrefix(name, "lht_") && strings.HasSuffix(name, "_total") {
			series++
		}
	}
	if series != int(NumCounters) {
		t.Errorf("golden holds %d unlabelled lht_*_total series, want NumCounters = %d", series, NumCounters)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, goldenCounters().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, want := b.String(), goldenExposition
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("exposition line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatal("exposition differs in trailing whitespace")
}

func TestHandler(t *testing.T) {
	c := goldenCounters()
	srv := httptest.NewServer(NewMux(c.Snapshot))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, res.Body); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenExposition {
		t.Fatal("handler body differs from WritePrometheus output")
	}
	// pprof index must be mounted on the same mux.
	res2, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != 200 {
		t.Fatalf("pprof status = %d", res2.StatusCode)
	}
}
