package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lht/internal/metrics"
)

func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	base := []string{"-trials", "1", "-queries", "20", "-minexp", "8", "-maxexp", "10"}
	if err := run(context.Background(), append(base, args...), &out); err != nil {
		t.Fatalf("run(context.Background(), %v): %v", args, err)
	}
	return out.String()
}

func TestRunSingleExperiment(t *testing.T) {
	out := runBench(t, "-experiments", "thm3")
	for _, want := range []string{"Thm 3", "min query", "max query", "2^8", "2^10"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	out := runBench(t, "-experiments", "all")
	for _, want := range []string{"Fig 6a", "Fig 6b", "Fig 7a", "Fig 7b", "Fig 8a", "Fig 8b",
		"Fig 9a", "Fig 9b", "Fig 10a", "Fig 10b", "Eq 3", "Thm 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunCacheAblation(t *testing.T) {
	out := runBench(t, "-experiments", "a4")
	for _, want := range []string{"Ablation A4", "cached lookups/query", "uncached lookups/query", "cache hit rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Under -csv a run prints its counted results only: the sweep's round
// trips, not its measured throughputs, which the tables and the JSON
// report still carry.
func TestRunCSVLeavesMeasuredResultsOut(t *testing.T) {
	out := runBench(t, "-experiments", "sweep", "-maxexp", "8", "-csv")
	for _, name := range []string{"Sweep", "Sweepd", "Sweepe"} {
		if !strings.Contains(out, "# "+name+": ") {
			t.Errorf("CSV missing counted result %s:\n%s", name, out)
		}
	}
	for _, name := range []string{"Sweepb", "Sweepc"} {
		if strings.Contains(out, "# "+name+": ") {
			t.Errorf("CSV holds measured result %s:\n%s", name, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	out := runBench(t, "-experiments", "thm3", "-csv")
	if !strings.Contains(out, `x,"min query","max query"`) {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "256,1,1") {
		t.Errorf("CSV row missing:\n%s", out)
	}
}

// The JSON report carries per-operation-class latency percentiles and
// run-level counters under the lht-bench/2 schema.
func TestRunJSONLatencySchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	out := runBench(t, "-experiments", "a1", "-json-out", path)
	if !strings.Contains(out, "latency percentiles") {
		t.Errorf("text output missing latency table:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var report struct {
		Schema   string           `json:"schema"`
		Counters map[string]int64 `json:"counters"`
		Results  []struct {
			Latency []struct {
				Op    string  `json:"op"`
				Count int64   `json:"count"`
				P50Us float64 `json:"p50_us"`
				P95Us float64 `json:"p95_us"`
				P99Us float64 `json:"p99_us"`
			} `json:"latency"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if report.Schema != "lht-bench/2" {
		t.Errorf("schema = %q, want lht-bench/2", report.Schema)
	}
	if report.Counters["lookups"] == 0 {
		t.Errorf("run-level counters missing or empty: %+v", report.Counters)
	}
	if len(report.Counters) != int(metrics.NumCounters) {
		t.Errorf("counters block has %d keys, want %d", len(report.Counters), metrics.NumCounters)
	}
	var ops []string
	for _, res := range report.Results {
		for _, l := range res.Latency {
			ops = append(ops, l.Op)
			if l.Count == 0 {
				t.Errorf("op %q: zero count in latency block", l.Op)
			}
			if l.P50Us <= 0 || l.P95Us < l.P50Us || l.P99Us < l.P95Us {
				t.Errorf("op %q: non-monotone percentiles p50=%g p95=%g p99=%g",
					l.Op, l.P50Us, l.P95Us, l.P99Us)
			}
		}
	}
	if len(ops) == 0 {
		t.Error("no latency blocks in report")
	}
	for _, want := range []string{"get", "insert"} {
		if !slices.Contains(ops, want) {
			t.Errorf("latency blocks %v missing op %q", ops, want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-experiments", "nope"}, &out); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run(context.Background(), []string{"-experiments", ""}, &out); err == nil {
		t.Error("empty selection should fail")
	}
	if err := run(context.Background(), []string{"-minexp", "12", "-maxexp", "8"}, &out); err == nil {
		t.Error("inverted size range should fail")
	}
	if err := run(context.Background(), []string{"-badflag"}, &out); err == nil {
		t.Error("bad flag should fail")
	}
}
