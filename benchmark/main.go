// Command benchmark is the repository's end-to-end ledger: it boots a
// three-process lht-node cluster on loopback, drives the public lht facade
// over it with closed-loop clients on fixed seeded schedules, checks every
// result against a model, and reports counted costs per operation
// (--trace 0) or a per-layer breakdown with a span trace (--trace 1).
// See README.md.
//
//	go run -C benchmark . --workload get-probe --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -repeat 2 -seed 1
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lht"
	"lht/internal/metrics"
)

// The main goroutine stays on the main thread, which lives as long as the
// process: nodes are spawned from it with Pdeathsig, see startCluster.
func init() { runtime.LockOSThread() }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Exit statuses.
const (
	exitOK      = 0
	exitWrong   = 1 // a result was incorrect, or a comparison out of bound
	exitHarness = 2 // the harness could not produce a result
)

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o := defaultOptions()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all four, --trace 0 and 1 each, and prints one document")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and out/trace-<workload>.json")
	repeat := fs.Int("repeat", 1, "run each selected workload this many times back to back and compare the repeats")
	compare := fs.Bool("compare", false, "compare the --trace 0 runs of two saved documents: -compare a.json b.json")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the key set and of every client's op stream")
	fs.IntVar(&o.seconds, "seconds", o.seconds, "run length; schedules hold ops_at_20 x seconds / 20 ops")
	if err := fs.Parse(args); err != nil {
		return exitHarness
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return exitHarness
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two documents"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return exitHarness
	}
	if *name != "" {
		var err error
		if o.workload, err = findWorkload(*name); err != nil {
			return fail(err)
		}
		o.trace = *trace == 1
	}
	return execute(ctx, o, *name == "", *repeat, stdout, stderr)
}

// execute runs o's workload at o's trace level, or with all set every
// workload at both levels, each repeat times back to back. One run prints
// its result object; several print one document.
func execute(ctx context.Context, o options, all bool, repeat int, stdout, stderr io.Writer) int {
	lht.RegisterGobTypes()
	if err := buildNode(ctx); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return exitHarness
	}
	plan := []options{o}
	if all {
		plan = nil
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				o.workload, o.trace = w, traced
				plan = append(plan, o)
			}
		}
	}
	var doc document
	for _, o := range plan {
		for rep := 1; rep <= repeat; rep++ {
			res, err := runOne(ctx, o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s --trace %d: %v\n", o.workload.name, b2i(o.trace), err)
				return exitHarness
			}
			doc.Runs = append(doc.Runs, runRecord{Workload: o.workload.name, Seed: o.seed, Trace: b2i(o.trace), Repeat: rep, result: res})
		}
	}

	code := exitOK
	enc := json.NewEncoder(stdout)
	if len(doc.Runs) == 1 {
		_ = enc.Encode(doc.Runs[0].result)
	} else {
		_ = enc.Encode(doc)
	}
	for _, r := range doc.Runs {
		if !r.Correct {
			code = exitWrong
		}
	}
	if repeat > 1 {
		if c := compareRepeats(doc, stderr); c != exitOK {
			code = c
		}
	}
	return code
}

func warn(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runRecord is one run inside a document.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Repeat   int    `json:"repeat"`
	result
}

// document is what a multi-run invocation prints and -compare reads.
type document struct {
	Runs []runRecord `json:"runs"`
}

// runOne performs one run as the driver sees it: inputs from the seed,
// set-up, timed pass(es), checks, teardown, one result.
func runOne(ctx context.Context, o options) (result, error) {
	began := time.Now()
	data := newDataset(o.records, o.seed)
	ck := checker{data: data, skew: o.skew}
	recs, warm := data.records(), data.warmup(o.seed)
	defs, runLevel := endToEnd, runGated
	if o.trace {
		defs, runLevel = perLayer, runTraced
	}
	values, n, err := runLevel(ctx, o, ck, recs, warm)
	if err != nil {
		return result{}, err
	}
	if o.trace {
		values["harness.wall_s"] = time.Since(began).Seconds()
	}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", k, v)
		}
	}
	ms, err := fill(defs, values)
	if err != nil {
		return result{}, err
	}
	warn("%s --trace %d seed %d: %d ops checked, %d failed, %.1fs", o.workload.name, b2i(o.trace), o.seed, n.attempted, n.failed, time.Since(began).Seconds())
	return result{Correct: n.failed == 0, Attempted: n.attempted, Failed: n.failed, Metrics: ms}, nil
}

// runGated is a --trace 0 run: set-ups on fresh clusters before and after
// the timed pass, which runs over the full schedule on the last cluster
// set up before it; the end-to-end metrics.
func runGated(ctx context.Context, o options, ck checker, recs []lht.Record, warm []op) (map[string]float64, checked, error) {
	sched := o.workload.gen(ck.data, o.clients, o.ops()/o.clients, o.seed)
	var b *bench
	var setups []float64
	// timeSetUps replaces b by a fresh cluster n times. Set-up time drifts
	// with the box over tens of seconds, so the run samples it on both
	// sides of the pass rather than in one burst.
	timeSetUps := func(n int) error {
		for ; n > 0; n-- {
			if b != nil {
				b.stop()
			}
			var d time.Duration
			var err error
			if b, d, err = setUp(ctx, o, ck, recs, warm); err != nil {
				return fmt.Errorf("set-up %d: %w", len(setups)+1, err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	defer func() {
		if b != nil {
			b.stop()
		}
	}()
	if err := timeSetUps((o.setups + 1) / 2); err != nil {
		return nil, checked{}, err
	}
	p, err := b.runPass(ctx, ck, sched, false)
	if err != nil {
		return nil, checked{}, err
	}
	n := checked{p.ops, p.failed}
	checksBegan := time.Now()
	if o.workload.writes {
		n.add(b.endChecks(ctx, ck, sched))
	}
	checks := time.Since(checksBegan)
	if err := timeSetUps(o.setups / 2); err != nil {
		return nil, checked{}, err
	}
	warn("set-ups %.3fs (median of %.3f), timed pass %.1fs, end checks %.1fs", median(setups), setups, p.wall.Seconds(), checks.Seconds())
	ops, u := float64(p.ops), p.use
	return map[string]float64{
		"setup_s":            median(setups),
		"ok_ratio":           1 - float64(n.failed)/float64(n.attempted),
		"lookups_per_op":     float64(p.lookups) / ops,
		"allocs_per_op":      float64(u.clientMallocs+u.nodeMallocs) / ops,
		"alloc_bytes_per_op": float64(u.clientAllocBytes+u.nodeAllocBytes) / ops,
		"wire_bytes_per_op":  float64(u.nodeBytes) / ops,
		"io_syscalls_per_op": float64(u.clientSyscalls+u.nodeSyscalls) / ops,
	}, n, nil
}

// runTraced is a --trace 1 run: counters from an untraced pass over half
// the schedule, probes against that cluster once it is idle, then span
// times from a traced replay of exactly the same ops on a fresh cluster.
func runTraced(ctx context.Context, o options, ck checker, recs []lht.Record, warm []op) (map[string]float64, checked, error) {
	perClient := max(o.ops()/2/o.clients, 1)
	sched := o.workload.gen(ck.data, o.clients, perClient, o.seed)
	m := map[string]float64{}

	// Pass A: untraced. The tap is in place but only counts.
	a, _, err := setUp(ctx, o, ck, recs, warm)
	if err != nil {
		return nil, checked{}, err
	}
	defer a.stop()
	pa, err := a.runPass(ctx, ck, sched, false)
	if err != nil {
		return nil, checked{}, err
	}
	n := checked{pa.ops, pa.failed}
	if o.workload.writes {
		n.add(a.endChecks(ctx, ck, sched))
	}
	encodedLen, err := probeCodec(m)
	if err != nil {
		return nil, checked{}, err
	}
	if err := probeStack(ctx, m); err != nil {
		return nil, checked{}, err
	}
	if err := a.probeTcpnet(ctx, encodedLen, m); err != nil {
		return nil, checked{}, err
	}
	if m["node.rss_mb_max"], err = a.nodePeakRSS(); err != nil {
		return nil, checked{}, err
	}
	a.stop() // frees the ports for pass B's cluster

	// Pass B: the same ops per client, traced, on a fresh cluster.
	b, _, err := setUp(ctx, o, ck, recs, warm)
	if err != nil {
		return nil, checked{}, err
	}
	defer b.stop()
	pb, err := b.runPass(ctx, ck, sched, true)
	if err != nil {
		return nil, checked{}, err
	}
	n.add(pb.ops, pb.failed)
	if o.workload.writes {
		// How two writers interleave decides who splits a leaf and who
		// retries, so the passes' lookups may differ; print, do not assert.
		warn("%s lookups: untraced pass %d, traced pass %d", o.workload.name, pa.lookups, pb.lookups)
	} else if n.attempted++; pa.lookups != pb.lookups {
		n.failed++
		warn("%s is read-only, yet the untraced pass made %d lookups and the traced replay %d", o.workload.name, pa.lookups, pb.lookups)
	}

	opSpans := make([][]span, o.clients)
	dhtSpans := make([][]span, o.clients)
	tcpSpans := make([][]span, o.clients)
	for c, h := range b.handles {
		for i, op := range sched[c] {
			opSpans[c] = append(opSpans[c], span{start: pb.startNs[c][i], end: pb.startNs[c][i] + pb.durNs[c][i], name: opNames[op.kind]})
		}
		dhtSpans[c], tcpSpans[c] = h.dhtLog.spans, h.tap.log.spans
	}
	st := analyse(opSpans, dhtSpans, tcpSpans)
	if err := writeTrace(fmt.Sprintf("%s/trace-%s.json", outDir, o.workload.name), st); err != nil {
		return nil, checked{}, err
	}
	// Facade calls run their DHT calls one after another (parallel range
	// forwarding is off in the default config), so the three layers' times
	// must add up to the op spans; anything else is a harness bug.
	if gap := math.Abs(float64(st.lhtSelfNs+st.dhtSelfNs+st.tcpnetNs-st.opNs)) / float64(st.opNs); st.orphans > 0 || gap > 0.02 {
		return nil, checked{}, fmt.Errorf("trace does not close: %d orphan spans, layers sum to %.4f of the op spans", st.orphans, 1+gap)
	}

	ops, u, fa, fb := float64(pa.ops), pa.use, pa.facade(), pb.facade()
	kop := ops / 1000
	sn := pa.lht
	nodeLookups := float64(sum(u.nodeLookups))
	var busiest int64
	for _, n := range u.nodeLookups {
		busiest = max(busiest, n)
	}
	tracedOps := float64(st.ops)
	for k, v := range map[string]float64{
		"facade.ops_per_s":     fa.opsPerS,
		"facade.p50_us":        fa.p50us,
		"facade.p99_us":        fa.p99us,
		"facade.cpu_us_per_op": float64(u.clientCPUus+u.nodeCPUus) / ops,

		"lht.probe_lookups_per_op":    phaseLookups(sn, metrics.PhaseProbe) / ops,
		"lht.forward_lookups_per_op":  phaseLookups(sn, metrics.PhaseForward) / ops,
		"lht.split_lookups_per_op":    phaseLookups(sn, metrics.PhaseSplit) / ops,
		"lht.failed_gets_per_op":      float64(sn.Lookup.FailedGets) / ops,
		"lht.cache_hit_ratio":         ratio(float64(sn.Cache.Hits), float64(sn.Cache.Hits+sn.Cache.Misses+sn.Cache.Stale)),
		"lht.cas_conflicts_per_kop":   float64(sn.Write.CASConflicts) / kop,
		"lht.splits_per_kop":          float64(sn.Lookup.Splits) / kop,
		"lht.moved_records_per_split": ratio(float64(sn.Lookup.MovedRecords), float64(sn.Lookup.Splits)),
		"lht.seq_steps_per_op":        float64(st.seqSteps) / tracedOps,
		"lht.self_us_per_op":          float64(st.lhtSelfNs) / 1e3 / tracedOps,

		"dht.calls_per_op":        float64(pa.calls.calls) / ops,
		"dht.batch_keys_per_call": ratio(float64(pa.calls.batchKeys), float64(pa.calls.batchCalls)),
		"dht.retries_per_kop":     float64(sn.Retry.Retries) / kop,
		"dht.get_us_p50":          float64(median(st.dhtGetNs)) / 1e3,
		"dht.get_batch_us_p50":    float64(median(st.dhtBatchNs)) / 1e3,
		"dht.cond_us_p50":         float64(median(st.dhtCondNs)) / 1e3,
		"dht.self_us_per_op":      float64(st.dhtSelfNs) / 1e3 / tracedOps,

		"tcpnet.span_us_per_op": float64(st.tcpnetNs) / 1e3 / tracedOps,

		"node.allocs_per_op":         float64(u.nodeMallocs) / ops,
		"node.cpu_us_per_op":         float64(u.nodeCPUus) / ops,
		"node.served_lookups_per_op": nodeLookups / ops,
		"node.load_imbalance":        float64(busiest) / (nodeLookups / nodeCount),

		"client.allocs_per_op": float64(u.clientMallocs) / ops,
		"client.cpu_us_per_op": float64(u.clientCPUus) / ops,
		"client.gc_cycles":     float64(u.clientGCs),
		"client.gc_pause_ms":   float64(u.clientGCPauseNs) / 1e6,

		"harness.trace_overhead_ratio": ratio(fb.opsPerS, fa.opsPerS),
		"harness.samples":              float64(fa.samples),
	} {
		m[k] = v
	}
	return m, n, nil
}
