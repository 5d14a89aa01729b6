package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// samples builds a side's runs of one metric.
func samples(metric string, xs ...float64) []sample {
	out := make([]sample, len(xs))
	for i, x := range xs {
		out[i] = sample{Metrics: map[string]float64{metric: x}}
	}
	return out
}

func TestSpreadOf(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want spread
	}{
		{[]float64{3}, spread{3, 3, 3}},
		{[]float64{4, 1, 3, 2}, spread{1.75, 2.5, 3.25}},
		{[]float64{5, 1, 2, 4, 3}, spread{2, 3, 4}},
	} {
		if got := spreadOf(tc.xs); got != tc.want {
			t.Errorf("spreadOf(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		want float64
	}{
		{0, 0, 1},
		{1, 1, 0.5},
		{10, 10, 1.0 / 1024},
		{9, 10, 11.0 / 1024},
		{5, 10, 638.0 / 1024},
	} {
		if got := signTest(tc.k, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", tc.k, tc.n, got, tc.want)
		}
	}
}

// The verdict rules, one case each: a claim needs nine pairs in ten and a
// median gap wider than the base's quartiles; a count is out of bound past
// its bound; a spread wider than the bound is unresolved unless the change
// beats every base run; setup_s needs its pairs lost as well.
func TestJudge(t *testing.T) {
	ten := func(x float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = x + float64(i)/1000
		}
		return xs
	}
	for name, tc := range map[string]struct {
		metric, role, better string
		bound                float64
		base, head           []float64
		want                 string
	}{
		"claim shown":              {"wire_bytes_per_op", "claim", "lower", 0.05, ten(411), ten(364), "shown"},
		"claim, pairs split":       {"wire_bytes_per_op", "claim", "lower", 0.05, []float64{10, 10, 10}, []float64{9, 11, 9}, "not shown"},
		"claim inside the spread":  {"wire_bytes_per_op", "claim", "lower", 0.05, []float64{10, 20, 30, 40}, []float64{9, 19, 29, 39}, "not shown"},
		"claim, higher is better":  {"ok_ratio", "claim", "higher", 0.001, ten(0.5), ten(0.9), "shown"},
		"count within bound":       {"allocs_per_op", "must-not-move", "lower", 0.02, ten(13), ten(13.2), "ok"},
		"count out of bound":       {"allocs_per_op", "must-not-move", "lower", 0.02, ten(13), ten(13.5), "out of bound"},
		"ratio out of bound":       {"ok_ratio", "must-not-move", "higher", 0.001, ten(1), ten(0.9), "out of bound"},
		"spread wider than bound":  {"io_syscalls_per_op", "must-not-move", "lower", 0.06, []float64{10, 15, 20}, []float64{14, 15.5, 18}, "unresolved"},
		"wide, every run better":   {"io_syscalls_per_op", "must-not-move", "lower", 0.06, []float64{10, 15, 20}, []float64{5, 6, 7}, "ok"},
		"setup_s, pairs lost":      {"setup_s", "must-not-move", "lower", 0.25, ten(0.3), ten(0.5), "out of bound"},
		"setup_s, one pair":        {"setup_s", "must-not-move", "lower", 0.25, []float64{0.3}, []float64{0.5}, "unresolved"},
		"setup_s, pairs split":     {"setup_s", "must-not-move", "lower", 0.25, []float64{0.3, 0.9, 0.3, 0.9}, []float64{0.9, 0.3, 0.9, 0.8}, "unresolved"},
		"reported, out of bound":   {"allocs_per_op", "report", "lower", 0.02, ten(13), ten(14), "out of bound (reported only)"},
		"equal, nothing won":       {"lookups_per_op", "must-not-move", "lower", 0.03, ten(3), ten(3), "ok"},
		"claim of an equal metric": {"lookups_per_op", "claim", "lower", 0.03, ten(3), ten(3), "not shown"},
		"timing, pairs won":        {"facade.cpu_us_per_op", "timing", "lower", 0, ten(120), ten(100), "better (reported only)"},
		"timing, pairs lost":       {"facade.ops_per_s", "timing", "higher", 0, ten(13000), ten(12000), "worse (reported only)"},
		"timing, 8 of 10 lost":     {"facade.p50_us", "timing", "lower", 0, ten(60), append(ten(70)[:8], 50, 50), "unresolved (reported only)"},
		"timing, nothing moved":    {"node.cpu_us_per_op", "timing", "lower", 0, ten(40), ten(40), "unresolved (reported only)"},
		"timing, raw get faster":   {"tcpnet.get_raw_us_p50", "timing", "lower", 0, ten(28), ten(21), "better (reported only)"},
		"timing, stack slower":     {"dht.stack_ns_per_get", "timing", "lower", 0, ten(60), ten(70), "worse (reported only)"},
		"claimed timing shown":     {"tcpnet.get_raw_us_p50", "claim", "lower", 0, ten(28), ten(21), "shown"},
		"claimed timing, 8 of 10":  {"tcpnet.span_us_per_op", "claim", "lower", 0, ten(170), append(ten(150)[:8], 190, 190), "not shown"},
		"claimed timing in spread": {"lht.self_us_per_op", "claim", "lower", 0, []float64{4, 5, 6, 7}, []float64{3.9, 4.9, 5.9, 6.9}, "not shown"},
	} {
		unit := "count"
		if tc.metric == "setup_s" {
			unit = "s"
		}
		def := metricDef{Name: tc.metric, Unit: unit, Better: tc.better, Bound: tc.bound}
		v := &verdict{Metric: tc.metric, Role: tc.role, Bound: tc.bound}
		if err := v.judge([2][]sample{samples(tc.metric, tc.base...), samples(tc.metric, tc.head...)}, def); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Verdict != tc.want {
			t.Errorf("%s: verdict %q (worse by %.4f, won %d, lost %d), want %q", name, v.Verdict, v.Worse, v.Won, v.Lost, tc.want)
		}
	}
	v := &verdict{Metric: "setup_s"}
	if err := v.judge([2][]sample{samples("setup_s", 1), samples("ok_ratio", 1)}, metricDef{Name: "setup_s", Better: "lower"}); err == nil {
		t.Error("a run without the metric was judged")
	}
}

func TestCellSetAndRole(t *testing.T) {
	workloads, metrics := []string{"get-probe", "insert-grow"}, []string{"setup_s", "wire_bytes_per_op"}
	for _, bad := range []string{"wire_bytes_per_op", "scan:wire_bytes_per_op", "insert-grow:p99"} {
		if _, err := cellSet(bad, workloads, metrics, true); err == nil {
			t.Errorf("claim %q accepted", bad)
		}
	}
	claims, err := cellSet("insert-grow:wire_bytes_per_op", workloads, metrics, true)
	if err != nil {
		t.Fatal(err)
	}
	still, err := cellSet("setup_s,get-probe:wire_bytes_per_op", workloads, metrics, false)
	if err != nil {
		t.Fatal(err)
	}
	every := options{claims: claims}
	listed := options{claims: claims, still: still}
	for _, tc := range []struct {
		o                options
		workload, metric string
		want             string
	}{
		{every, "insert-grow", "wire_bytes_per_op", "claim"},
		{every, "insert-grow", "setup_s", "must-not-move"},
		{every, "get-probe", "wire_bytes_per_op", "must-not-move"},
		{listed, "insert-grow", "setup_s", "must-not-move"},
		{listed, "get-probe", "wire_bytes_per_op", "must-not-move"},
		{listed, "insert-grow", "wire_bytes_per_op", "claim"},
		{listed, "get-probe", "setup_s", "must-not-move"},
		{options{still: map[string]bool{"setup_s": true}}, "get-probe", "wire_bytes_per_op", "report"},
	} {
		if got := tc.o.role(tc.workload, tc.metric); got != tc.want {
			t.Errorf("role(%s, %s) = %s, want %s", tc.workload, tc.metric, got, tc.want)
		}
	}

	// A claim may name a timing, of a workload that runs a traced cell.
	m := manifest{EndToEnd: []metricDef{{Name: "setup_s"}}, RunSecs: 20}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
		}{w})
	}
	flags := func(extra ...string) []string {
		return append([]string{"-base", "HEAD", "-out", "x.json"}, extra...)
	}
	var discard strings.Builder
	o, err := parseFlags(flags("-traced", "get-probe", "-claim", "get-probe:tcpnet.get_raw_us_p50,get-probe:setup_s"), m, &discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.role("get-probe", "tcpnet.get_raw_us_p50"); got != "claim" {
		t.Errorf("a claimed timing's role = %s, want claim", got)
	}
	for _, bad := range [][]string{
		{"-claim", "get-probe:tcpnet.get_raw_us_p50"},
		{"-traced", "insert-grow", "-claim", "get-probe:tcpnet.get_raw_us_p50"},
		{"-traced", "get-probe", "-claim", "get-probe:tcpnet.no_such_us"},
	} {
		if _, err := parseFlags(flags(bad...), m, &discard); err == nil {
			t.Errorf("flags %q accepted", bad)
		}
	}
}

// A traced run's result is parsed off its last line like an untraced
// one's, whatever its harness printed before it, and BENCHMARK.json
// defines every timing a traced cell is judged on.
func TestParseTracedResult(t *testing.T) {
	out := []byte(`{"not": "the result"}
{"correct":true,"attempted":45001,"failed":0,"metrics":{"client.cpu_us_per_op":{"value":61.2,"unit":"us"},"facade.cpu_us_per_op":{"value":104.5,"unit":"us"},"facade.ops_per_s":{"value":13951.3,"unit":"1/s"},"facade.p50_us":{"value":138.1,"unit":"us"},"node.cpu_us_per_op":{"value":43.3,"unit":"us"},"tcpnet.wire_bytes_per_call":{"value":6188,"unit":"B"}}}
`)
	r, err := parseResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 45001 || r.Failed != 0 {
		t.Errorf("parsed %+v", r)
	}
	want := map[string]float64{"client.cpu_us_per_op": 61.2, "facade.cpu_us_per_op": 104.5, "facade.ops_per_s": 13951.3, "facade.p50_us": 138.1, "node.cpu_us_per_op": 43.3, "tcpnet.wire_bytes_per_call": 6188}
	if len(r.Metrics) != len(want) {
		t.Errorf("metrics %v, want %v", r.Metrics, want)
	}
	for name, x := range want {
		if r.Metrics[name] != x {
			t.Errorf("%s = %v, want %v", name, r.Metrics[name], x)
		}
	}
	if _, err := parseResult([]byte("bench: set-up failed\n")); err == nil {
		t.Error("a run without a result was parsed")
	}

	m, err := loadManifest(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defs, err := m.timingDefs()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range defs {
		if d.Name != timings[i] || d.Better != "higher" && d.Better != "lower" {
			t.Errorf("timing %d: %+v", i, d)
		}
	}
	if _, err := (manifest{}).timingDefs(); err == nil {
		t.Error("a manifest without per-layer metrics gave timings")
	}
}
