// Command lht-bench regenerates the paper's evaluation figures (section
// 9) at configurable scale and prints each as an aligned table (or CSV).
//
// Reduced-scale smoke run (seconds):
//
//	lht-bench -experiments all
//
// Paper-scale run (2^20 records, 100 datasets per point; minutes):
//
//	lht-bench -experiments all -paper
//
// Individual figures: -experiments fig6a,fig7,fig9a ...
//
// Every run reports per-experiment latency percentiles (p50/p95/p99 per
// operation class, from the indexes' log-bucketed histograms); -json
// persists them in results/bench.json under schema lht-bench/2. With
// -metrics ADDR the run's aggregate counters are served live on
// http://ADDR/metrics (Prometheus text format, plus net/http/pprof).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lht/internal/bench"
	"lht/internal/metrics"
	"lht/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lht-bench:", err)
		os.Exit(1)
	}
}

type config struct {
	opts     bench.Options
	minExp   int
	maxExp   int
	span     float64
	csv      bool
	jsonPath string // non-empty: also write a machine-readable report here
	selected map[string]bool
}

// experimentNames lists every figure in presentation order, followed by
// the ablation studies (a1: lookup strategy, a2: merge hysteresis, a3:
// theta sweep, a4: client leaf cache, a5: retry policy under faults,
// a6: batched operation plane, a7: recovery under churn + torn
// mutations, a8: frame codec cost (allocs/op), a9: multi-writer
// concurrency, a11: degradation plane — hedged reads — under scripted
// network chaos, a12: self-healing membership — gossip view, write failover,
// scrub re-replication — under permanent and rejoin churn) and the
// wire-protocol parameter sweep (substrate x batch size x leaf cache
// x value size x cache capacity x query skew).
var experimentNames = []string{"fig6a", "fig6b", "fig7", "fig8a", "fig8b", "fig9a", "fig9b", "eq3", "thm3", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a11", "a12", "sweep", "s1", "rw1", "x1"}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lht-bench", flag.ContinueOnError)
	var (
		experiments = fs.String("experiments", "all", "comma-separated figures to run ("+strings.Join(experimentNames, ",")+") or 'all'")
		theta       = fs.Int("theta", 100, "theta_split, the leaf bucket capacity")
		depth       = fs.Int("depth", 20, "D, the maximum tree depth")
		trials      = fs.Int("trials", 10, "independently generated datasets per data point")
		queries     = fs.Int("queries", 300, "queries per trial for query experiments")
		seed        = fs.Int64("seed", 1, "base random seed")
		minExp      = fs.Int("minexp", 10, "smallest data size as a power of two")
		maxExp      = fs.Int("maxexp", 16, "largest data size as a power of two")
		span        = fs.Float64("span", 0.1, "range span for the vs-size experiments")
		csv         = fs.Bool("csv", false, "emit CSV instead of tables")
		jsonOut     = fs.Bool("json", false, "also write a machine-readable report to results/bench.json")
		jsonPath    = fs.String("json-out", "", "write the machine-readable report to this path (implies -json)")
		metricsAddr = fs.String("metrics", "", "serve the run's live counters as Prometheus /metrics (plus pprof) on this address")
		paper       = fs.Bool("paper", false, "paper scale: 100 trials, 1000 queries, sizes up to 2^20")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{
		opts: bench.Options{
			Theta: *theta, Depth: *depth, Trials: *trials, Queries: *queries, Seed: *seed,
			Agg: &metrics.Counters{},
		},
		minExp: *minExp, maxExp: *maxExp, span: *span, csv: *csv,
		selected: map[string]bool{},
	}
	if *jsonOut {
		cfg.jsonPath = "results/bench.json"
	}
	if *jsonPath != "" {
		cfg.jsonPath = *jsonPath
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: metrics.NewMux(cfg.opts.Agg.Snapshot)}
		defer func() { _ = msrv.Close() }()
		go func() {
			if err := msrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", ln.Addr())
	}
	if *paper {
		cfg.opts.Trials = 100
		cfg.opts.Queries = 1000
		cfg.maxExp = 20
	}
	if cfg.minExp < 4 || cfg.maxExp > 24 || cfg.minExp > cfg.maxExp {
		return fmt.Errorf("invalid size range 2^%d..2^%d", cfg.minExp, cfg.maxExp)
	}

	if *experiments == "all" {
		for _, n := range experimentNames {
			cfg.selected[n] = true
		}
	} else {
		for _, n := range strings.Split(*experiments, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if !contains(experimentNames, n) {
				return fmt.Errorf("unknown experiment %q (have %s)", n, strings.Join(experimentNames, ", "))
			}
			cfg.selected[n] = true
		}
	}
	if len(cfg.selected) == 0 {
		return fmt.Errorf("no experiments selected")
	}
	return runExperiments(ctx, cfg, out)
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func runExperiments(ctx context.Context, cfg config, out io.Writer) error {
	// want re-checks the signal context before each experiment, so an
	// interrupt stops the run after the experiment in flight while keeping
	// everything already emitted.
	want := func(name string) bool { return cfg.selected[name] && ctx.Err() == nil }
	report := bench.NewReport(cfg.opts.WithDefaults())
	// Each experiment calls emit exactly once, so the time since the
	// previous emit is that experiment's wall time (skipped experiments
	// cost nothing in between), and the aggregate-counter diff since the
	// previous emit is that experiment's traffic — which yields its
	// per-operation-class latency percentiles.
	lastEmit := time.Now()
	lastSnap := cfg.opts.Agg.Snapshot()
	emit := func(results ...bench.Result) {
		wall := time.Since(lastEmit)
		snap := cfg.opts.Agg.Snapshot()
		lat := bench.LatencySummary(snap.Sub(lastSnap))
		for i, r := range results {
			if cfg.csv {
				// CSV is the pinned form (results/counted-costs.csv), so
				// it holds the counts alone; a measured result is in the
				// tables and the JSON report only.
				if !r.Measured {
					fmt.Fprintf(out, "# %s: %s\n%s\n", r.Name, r.Title, bench.FormatCSV(r))
				}
			} else {
				fmt.Fprintln(out, bench.FormatTable(r))
			}
			tr := bench.TimedResult{Result: r, WallMillis: (wall / time.Duration(len(results))).Milliseconds()}
			if i == 0 {
				// The latency block covers the whole experiment; attach it
				// to its first result rather than duplicating it.
				tr.Latency = lat
			}
			report.AddTimed(tr)
		}
		if !cfg.csv && len(lat) > 0 {
			fmt.Fprintf(out, "latency percentiles (%s):\n%s\n", results[0].Name, bench.FormatLatency(lat))
		}
		lastEmit = time.Now()
		lastSnap = snap
	}
	both := []workload.Dist{workload.Uniform, workload.Gaussian}
	sizes := bench.Sizes(cfg.minExp, cfg.maxExp)

	if want("fig6a") {
		res, err := bench.RunAvgAlphaVsSize(cfg.opts, both, []int{40, 160}, sizes)
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("fig6b") {
		res, err := bench.RunAvgAlphaVsTheta(cfg.opts, both,
			[]int{20, 40, 80, 160, 320}, sizes[len(sizes)-1])
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("fig7") {
		moved, lookups, err := bench.RunMaintenance(cfg.opts, both, sizes)
		if err != nil {
			return err
		}
		emit(moved, lookups)
	}
	if want("fig8a") {
		res, err := bench.RunLookup(cfg.opts, workload.Uniform, sizes)
		if err != nil {
			return err
		}
		res.Name = "Fig 8a"
		emit(res)
	}
	if want("fig8b") {
		res, err := bench.RunLookup(cfg.opts, workload.Gaussian, sizes)
		if err != nil {
			return err
		}
		res.Name = "Fig 8b"
		emit(res)
	}
	if want("fig9a") {
		bw, lat, err := bench.RunRangeVsSize(cfg.opts, workload.Uniform, sizes, cfg.span)
		if err != nil {
			return err
		}
		emit(bw, lat)
	}
	if want("fig9b") {
		bw, lat, err := bench.RunRangeVsSpan(cfg.opts, workload.Uniform, sizes[len(sizes)-1],
			[]float64{0.025, 0.05, 0.1, 0.2, 0.4})
		if err != nil {
			return err
		}
		emit(bw, lat)
	}
	if want("eq3") {
		res, err := bench.RunSavingRatio(cfg.opts, workload.Uniform, sizes[len(sizes)-1],
			[]float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256})
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("thm3") {
		res, err := bench.RunMinMax(cfg.opts, workload.Uniform, sizes)
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("a1") {
		res, err := bench.RunLookupAblation(cfg.opts, workload.Uniform, sizes)
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("a2") {
		res, err := bench.RunMergeAblation(cfg.opts, workload.Uniform, sizes[len(sizes)-1], 4*sizes[len(sizes)-1])
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("a3") {
		res, err := bench.RunThetaSweep(cfg.opts, workload.Uniform, sizes[len(sizes)-1],
			[]int{25, 50, 100, 200, 400}, cfg.span)
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("a4") {
		res, err := bench.RunCacheAblation(cfg.opts, workload.Uniform, sizes)
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("a5") {
		succ, cost, err := bench.RunFaultAblation(cfg.opts, workload.Uniform, sizes[len(sizes)-1],
			[]float64{0, 0.01, 0.02, 0.05, 0.1, 0.2})
		if err != nil {
			return err
		}
		emit(succ, cost)
	}
	if want("a6") {
		load, query, err := bench.RunBatchAblation(cfg.opts, workload.Uniform, sizes)
		if err != nil {
			return err
		}
		emit(load, query)
	}
	if want("a7") {
		// Churn stresses the substrate, not the tree: a modest record
		// count exercises every recovery path while the node count and
		// churn fractions carry the experiment.
		succ, cost, err := bench.RunChurnAblation(cfg.opts, workload.Uniform, 32, sizes[0],
			[]float64{0, 0.05, 0.1, 0.2})
		if err != nil {
			return err
		}
		emit(succ, cost)
	}
	if want("a8") {
		allocs, thru, tail, err := bench.RunWireAblation(cfg.opts)
		if err != nil {
			return err
		}
		emit(allocs, thru, tail)
	}
	if want("a9") {
		thru, rounds, cont, err := bench.RunWriterAblation(cfg.opts, workload.Uniform,
			sizes[len(sizes)-1], []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		emit(thru, rounds, cont)
	}
	if want("a11") {
		lat, rt, err := bench.RunChaosAblation(cfg.opts, sizes[0])
		if err != nil {
			return err
		}
		emit(lat, rt)
	}
	if want("a12") {
		lat, rt, err := bench.RunMembershipAblation(cfg.opts, sizes[0])
		if err != nil {
			return err
		}
		emit(lat, rt)
	}
	if want("sweep") {
		results, err := bench.RunSweep(cfg.opts, sizes[0])
		if err != nil {
			return err
		}
		emit(results...)
	}
	if want("s1") {
		res, err := bench.RunHopsVsNodes(cfg.opts, []int{4, 8, 16, 32, 64, 128})
		if err != nil {
			return err
		}
		emit(res)
	}
	if want("rw1") {
		results, err := bench.RunRelatedWork(cfg.opts, workload.Uniform, sizes[len(sizes)-1], cfg.span)
		if err != nil {
			return err
		}
		emit(results...)
	}
	if want("x1") {
		res, err := bench.RunSkewRobustness(cfg.opts, sizes)
		if err != nil {
			return err
		}
		emit(res)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	if cfg.jsonPath != "" {
		report.Counters = cfg.opts.Agg.Snapshot().Counts()
		if err := report.WriteFile(cfg.jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d results)\n", cfg.jsonPath, len(report.Results))
	}
	return nil
}
