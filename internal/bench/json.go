package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ReportSchema versions the machine-readable report format; bump it when
// the shape of Report changes incompatibly. lht-bench/2 added the
// per-experiment latency percentile blocks and the run-level counter
// totals.
const ReportSchema = "lht-bench/2"

// TimedResult is one experiment's figure plus the wall time it took to
// produce and the latency distribution of the operations it issued.
type TimedResult struct {
	Result
	WallMillis int64       `json:"wall_millis"`
	Latency    []OpLatency `json:"latency,omitempty"`
}

// Report is the machine-readable output of a bench run: every result with
// its series data (the op counts behind each figure), wall times, latency
// percentiles, and the run's aggregate DHT counters, for CI trend
// tracking and external plotting.
type Report struct {
	Schema     string        `json:"schema"`
	Options    Options       `json:"options"`
	WallMillis int64         `json:"wall_millis"`
	Results    []TimedResult `json:"results"`
	// Counters is the run-wide counter total (Options.Agg at the end of
	// the run) as metrics.Snapshot.Counts names it, present when the run
	// aggregated its indexes' counters.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// NewReport starts a report for one run.
func NewReport(o Options) *Report {
	return &Report{Schema: ReportSchema, Options: o}
}

// AddTimed appends one fully populated result (wall time plus latency).
func (r *Report) AddTimed(tr TimedResult) {
	r.Results = append(r.Results, tr)
	r.WallMillis += tr.WallMillis
}

// WriteFile writes the report as indented JSON, creating the target
// directory if needed.
func (r *Report) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("bench: report dir: %w", err)
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	return nil
}
