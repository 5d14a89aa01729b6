package main

import (
	"cmp"
	"fmt"
	"slices"

	"lht/internal/metrics"
)

// metricDef names one metric; the lists below must equal BENCHMARK.json's
// (the smoke test compares them).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"lookups_per_op", "count", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"io_syscalls_per_op", "count", "lower"},
}

var perLayer = []metricDef{
	{"facade.ops_per_s", "1/s", "higher"},
	{"facade.p50_us", "us", "lower"},
	{"facade.p99_us", "us", "lower"},
	{"facade.cpu_us_per_op", "us", "lower"},

	{"lht.probe_lookups_per_op", "count", "lower"},
	{"lht.forward_lookups_per_op", "count", "lower"},
	{"lht.split_lookups_per_op", "count", "lower"},
	{"lht.failed_gets_per_op", "count", "lower"},
	{"lht.cache_hit_ratio", "ratio", "higher"},
	{"lht.cas_conflicts_per_kop", "count", "lower"},
	{"lht.splits_per_kop", "count", "lower"},
	{"lht.moved_records_per_split", "count", "lower"},
	{"lht.seq_steps_per_op", "count", "lower"},
	{"lht.self_us_per_op", "us", "lower"},

	{"dht.calls_per_op", "count", "lower"},
	{"dht.batch_keys_per_call", "count", "higher"},
	{"dht.retries_per_kop", "count", "lower"},
	{"dht.stack_ns_per_get", "ns", "lower"},
	{"dht.stack_allocs_per_get", "count", "lower"},
	{"dht.get_us_p50", "us", "lower"},
	{"dht.get_batch_us_p50", "us", "lower"},
	{"dht.cond_us_p50", "us", "lower"},
	{"dht.self_us_per_op", "us", "lower"},

	{"codec.encode_us", "us", "lower"},
	{"codec.decode_us", "us", "lower"},
	{"codec.encode_allocs", "count", "lower"},
	{"codec.decode_allocs", "count", "lower"},
	{"codec.bytes_per_record", "B", "lower"},
	{"codec.get_overhead_us", "us", "lower"},
	{"codec.get_overhead_allocs", "count", "lower"},

	{"tcpnet.get_raw_us_p50", "us", "lower"},
	{"tcpnet.put_raw_us_p50", "us", "lower"},
	{"tcpnet.putif_raw_us_p50", "us", "lower"},
	{"tcpnet.getbatch16_raw_us_p50", "us", "lower"},
	{"tcpnet.get_raw_allocs", "count", "lower"},
	{"tcpnet.put_raw_allocs", "count", "lower"},
	{"tcpnet.io_syscalls_per_call", "count", "lower"},
	{"tcpnet.wire_bytes_per_call", "B", "lower"},
	{"tcpnet.span_us_per_op", "us", "lower"},

	{"node.allocs_per_op", "count", "lower"},
	{"node.cpu_us_per_op", "us", "lower"},
	{"node.served_lookups_per_op", "count", "lower"},
	{"node.load_imbalance", "ratio", "lower"},
	{"node.rss_mb_max", "MiB", "lower"},

	{"client.allocs_per_op", "count", "lower"},
	{"client.cpu_us_per_op", "us", "lower"},
	{"client.gc_cycles", "count", "lower"},
	{"client.gc_pause_ms", "ms", "lower"},

	{"harness.trace_overhead_ratio", "ratio", "higher"},
	{"harness.samples", "count", "higher"},
	{"harness.wall_s", "s", "lower"},
}

// metricValue is one entry of a result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object from measured values, insisting that
// every metric of the list, and nothing else, was measured.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d metrics", len(values), len(defs))
	}
	return out, nil
}

// quantile returns the q-quantile of sorted xs (nearest rank), 0 of none.
func quantile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func median[T cmp.Ordered](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// ratio is a/b, and 0 when nothing was counted below the line: a workload
// that makes no batch call has no keys per batch call.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// facadeTimings are the ungated wall-clock readings of a pass. The op
// sequence of every client is cut into slices of equal op count, each
// slice is summarised on its own, and the median over the slices is
// reported, so a slow spell of the box moves a few slices and not the
// reading. There are ten slices, fewer when that would leave a slice
// under a thousand samples and its p99 fewer than ten samples beyond it.
type facadeTimings struct {
	opsPerS, p50us, p99us float64
	samples               int
}

func (p *pass) facade() facadeTimings {
	slicesN := min(max(p.ops/1000, 1), 10)
	var rate, p50, p99 []float64
	for k := 0; k < slicesN; k++ {
		var pooled []int64
		var opsPerS float64
		for _, durs := range p.durNs {
			part := durs[k*len(durs)/slicesN : (k+1)*len(durs)/slicesN]
			var busy int64
			for _, d := range part {
				busy += d
			}
			pooled = append(pooled, part...)
			// A closed-loop client's rate is its ops over the time it spent
			// inside calls; the clients' rates add.
			opsPerS += ratio(float64(len(part)), float64(busy)/1e9)
		}
		slices.Sort(pooled)
		rate = append(rate, opsPerS)
		p50 = append(p50, float64(quantile(pooled, 0.50))/1e3)
		p99 = append(p99, float64(quantile(pooled, 0.99))/1e3)
	}
	return facadeTimings{median(rate), median(p50), median(p99), p.ops}
}

// phaseLookups sums one algorithm phase over every operation class.
func phaseLookups(s metrics.Snapshot, ph metrics.Phase) float64 {
	var n int64
	for op := range s.Latency.Ops {
		n += s.Latency.Ops[op].Phases[ph]
	}
	return float64(n)
}
