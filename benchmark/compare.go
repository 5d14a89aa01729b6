package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	Command  []string `json:"command"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	RunSeconds int `json:"run_seconds"`
}

func loadManifest() (manifest, error) {
	var m manifest
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}

func loadDocument(path string) (document, error) {
	var d document
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// gatedRun returns the document's --trace 0 run of a workload at the given
// repeat.
func (d document) gatedRun(workload string, repeat int) (runRecord, bool) {
	for _, r := range d.Runs {
		if r.Workload == workload && r.Trace == 0 && r.Repeat == repeat {
			return r, true
		}
	}
	return runRecord{}, false
}

// compareRuns prints, per workload and end-to-end metric, both values, by
// how much b is worse than a as a share of a, the bound and the verdict.
// It reports whether every pair was within its bound. A pair taken on
// different seeds, or one that lacks a metric or holds one that is not a
// positive number, cannot be judged and is an error.
func compareRuns(w io.Writer, pairs [][2]runRecord) (bool, error) {
	m, err := loadManifest()
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	within := true
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a.Seed != b.Seed {
			return false, fmt.Errorf("%s: seed %d against seed %d: not the same inputs", a.Workload, a.Seed, b.Seed)
		}
		for _, def := range m.EndToEnd {
			ma, okA := a.Metrics[def.Name]
			mb, okB := b.Metrics[def.Name]
			va, vb := ma.Value, mb.Value
			if !okA || !okB || !(va > 0) || !(vb > 0) {
				return false, fmt.Errorf("%s: %s reads %v (present %v) and %v (present %v); every end-to-end metric is a positive number", a.Workload, def.Name, va, okA, vb, okB)
			}
			worse := (vb - va) / va
			if def.Better == "higher" {
				worse = -worse
			}
			worse += 0 // no "-0.0000%"
			verdict := "ok"
			if worse > def.Bound {
				verdict, within = "OUT OF BOUND", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.4f%%\t%.1f%%\t%s\n", a.Workload, def.Name, va, vb, 100*worse, 100*def.Bound, verdict)
		}
	}
	return within, tw.Flush()
}

func verdictCode(within bool, err error, stderr io.Writer) int {
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "bench:", err)
		return exitHarness
	case !within:
		return exitWrong
	}
	return exitOK
}

// compareFiles is -compare a.json b.json: the first --trace 0 run of every
// workload both documents hold.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadDocument(pathA)
	b, errB := loadDocument(pathB)
	if err := errors.Join(errA, errB); err != nil {
		return verdictCode(false, err, stderr)
	}
	var pairs [][2]runRecord
	for _, w := range workloads {
		ra, okA := a.gatedRun(w.name, 1)
		rb, okB := b.gatedRun(w.name, 1)
		if okA && okB {
			pairs = append(pairs, [2]runRecord{ra, rb})
		}
	}
	if len(pairs) == 0 {
		return verdictCode(false, fmt.Errorf("%s and %s share no --trace 0 run", pathA, pathB), stderr)
	}
	within, err := compareRuns(stdout, pairs)
	return verdictCode(within, err, stderr)
}

// compareRepeats compares, inside one document, every later repeat of a
// workload with its first: the same code on the same seed, back to back.
func compareRepeats(d document, stderr io.Writer) int {
	var pairs [][2]runRecord
	for _, w := range workloads {
		first, ok := d.gatedRun(w.name, 1)
		for rep := 2; ok; rep++ {
			var next runRecord
			if next, ok = d.gatedRun(w.name, rep); ok {
				pairs = append(pairs, [2]runRecord{first, next})
			}
		}
	}
	if len(pairs) == 0 {
		return exitOK // only --trace 1 runs were repeated
	}
	within, err := compareRuns(stderr, pairs)
	return verdictCode(within, err, stderr)
}
