// Command lht-cli operates an LHT index over a cluster of lht-node
// processes. Every invocation connects to the member list, runs one
// command against the shared index, and prints the result together with
// the DHT-lookup cost of the operation.
//
//	lht-cli -nodes host1:7001,host2:7001 put 0.42 "some value"
//	lht-cli -nodes ... get 0.42
//	lht-cli -nodes ... del 0.42
//	lht-cli -nodes ... range 0.2 0.6
//	lht-cli -nodes ... scan 0.5 20
//	lht-cli -nodes ... min | max | count
//	lht-cli -nodes ... fill 10000        # seeded uniform bulk load
//	lht-cli -nodes ... -scrub            # verify + repair tree invariants
//	lht-cli -nodes ... -status           # cluster membership report
//
// Against a replicated, self-healing cluster (lht-node -gossip-peers),
// pass -replicas so reads fail over and -scrub -rereplicate restores
// lost replica copies:
//
//	lht-cli -nodes ... -replicas 3 -scrub -rereplicate
//
// -degraded connects even while part of the cluster is down (-status
// always does: the membership report must work precisely then), and
// -failover-writes lets writes succeed while a holder is down, leaving
// the copy it missed to the next -scrub -rereplicate.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"lht"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

func main() {
	// Ctrl-C cancels the context, which aborts the in-flight operation
	// down to its socket I/O.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lht-cli:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lht-cli", flag.ContinueOnError)
	var (
		nodes   = fs.String("nodes", "127.0.0.1:7001", "comma-separated lht-node addresses")
		theta   = fs.Int("theta", 100, "theta_split used by the index")
		depth   = fs.Int("depth", 20, "maximum tree depth D")
		seed    = fs.Int64("seed", 1, "seed for the fill command")
		timeout = fs.Duration("timeout", 0, "deadline for the whole command (0 = none); becomes socket deadlines on every request")
		retry   = fs.Bool("retry", true, "retry transient node faults with backoff (each retry costs one DHT-lookup)")
		scrub   = fs.Bool("scrub", false, "verify and repair the tree's structural invariants, print the report, and exit")
		trace   = fs.Int("trace", 0, "after the command, print its last N DHT operations (kind, key, phase, duration, outcome)")
		conns   = fs.Int("conns", 0, "pipelined connections per node (0 = default)")
		reps    = fs.Int("replicas", 1, "store each key on this many distinct nodes")
		status  = fs.Bool("status", false, "print the cluster membership report, and exit")
		rerep   = fs.Bool("rereplicate", false, "with -scrub: restore the replica count of every bucket (needs -replicas > 1)")
		degr    = fs.Bool("degraded", false, "connect even if part of the cluster is down (dead nodes start suspect and backed off); implied by -status")
		failw   = fs.Bool("failover-writes", false, "let writes succeed while a holder is down, leaving its copy to a re-replicating scrub (needs -replicas > 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := fs.Args()
	if len(cmd) == 0 && !*scrub && !*status {
		return fmt.Errorf("missing command (put|get|del|range|scan|min|max|count|fill), or use -scrub / -status")
	}
	if *rerep && *reps < 2 {
		return fmt.Errorf("-rereplicate needs -replicas > 1")
	}
	if *failw && *reps < 2 {
		return fmt.Errorf("-failover-writes needs -replicas > 1")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -status must work precisely when part of the cluster is down, so it
	// always boots degraded: unreachable members start suspect and show
	// up in the report instead of failing the dial.
	client, err := tcpnet.Dial(ctx, tcpnet.ClusterConfig{
		Seeds:          strings.Split(*nodes, ","),
		PoolSize:       *conns,
		Replicas:       *reps,
		DegradedStart:  *degr || *status,
		FailoverWrites: *failw,
	})
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	opts := []lht.Option{
		lht.WithThresholds(*theta, *theta/2),
		lht.WithDepth(*depth),
		lht.WithRereplication(*rerep),
	}
	if *retry {
		opts = append(opts, lht.WithPolicy(lht.DefaultPolicy()))
	}
	var ring *lht.TraceRing
	if *trace > 0 {
		ring = lht.NewTraceRing(*trace)
		opts = append(opts, lht.WithTraceSink(ring))
	}
	ix, err := lht.New(client, opts...)
	if err != nil {
		return err
	}
	err = runCommand(ctx, ix, cmd, *scrub, *status, *seed, out)
	if ring != nil {
		fmt.Fprintf(out, "trace (last %d of %d DHT ops):\n", ring.Len(), ring.Total())
		for _, ev := range ring.Events() {
			fmt.Fprintf(out, "  %s\n", ev)
		}
	}
	return err
}

func runCommand(ctx context.Context, ix *lht.Index, cmd []string, scrub, status bool, seed int64, out io.Writer) error {
	if status {
		st, err := ix.ClusterStatus(ctx)
		if err != nil {
			return err
		}
		printStatus(out, st)
		return nil
	}
	if scrub {
		rep, err := ix.ScrubContext(ctx)
		if rep != nil {
			fmt.Fprintln(out, rep)
		}
		return err
	}
	return dispatch(ctx, ix, cmd, seed, out)
}

// printStatus renders the cluster membership report: one row per member
// with its gossip state, incarnation and known replica debt.
func printStatus(out io.Writer, st lht.ClusterStatus) {
	fmt.Fprintf(out, "cluster view epoch %d, %d member(s)\n", st.ViewEpoch, len(st.Members))
	fmt.Fprintf(out, "%-24s %-8s %-5s %s\n", "ADDRESS", "STATE", "INC", "DEBT")
	for _, m := range st.Members {
		fmt.Fprintf(out, "%-24s %-8s %-5d %d\n", m.Addr, m.State, m.Incarnation, m.ReplicaDebt)
	}
}

func dispatch(ctx context.Context, ix *lht.Index, cmd []string, seed int64, out io.Writer) error {
	parseKey := func(s string) (float64, error) {
		k, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("key %q: %w", s, err)
		}
		return k, nil
	}
	need := func(n int) error {
		if len(cmd)-1 != n {
			return fmt.Errorf("%s takes %d argument(s)", cmd[0], n)
		}
		return nil
	}

	switch cmd[0] {
	case "put":
		if err := need(2); err != nil {
			return err
		}
		k, err := parseKey(cmd[1])
		if err != nil {
			return err
		}
		cost, err := ix.InsertContext(ctx, lht.Record{Key: k, Value: []byte(cmd[2])})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ok (%d DHT-lookups)\n", cost.Lookups)
	case "get":
		if err := need(1); err != nil {
			return err
		}
		k, err := parseKey(cmd[1])
		if err != nil {
			return err
		}
		rec, cost, err := ix.GetContext(ctx, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s (%d DHT-lookups)\n", rec.Value, cost.Lookups)
	case "del":
		if err := need(1); err != nil {
			return err
		}
		k, err := parseKey(cmd[1])
		if err != nil {
			return err
		}
		cost, err := ix.DeleteContext(ctx, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ok (%d DHT-lookups)\n", cost.Lookups)
	case "range":
		if err := need(2); err != nil {
			return err
		}
		lo, err := parseKey(cmd[1])
		if err != nil {
			return err
		}
		hi, err := parseKey(cmd[2])
		if err != nil {
			return err
		}
		recs, cost, err := ix.RangeContext(ctx, lo, hi)
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Fprintf(out, "%-12g %s\n", r.Key, r.Value)
		}
		fmt.Fprintf(out, "%d records (%d DHT-lookups, %d parallel steps)\n",
			len(recs), cost.Lookups, cost.Steps)
	case "min", "max":
		if err := need(0); err != nil {
			return err
		}
		query := ix.MinContext
		if cmd[0] == "max" {
			query = ix.MaxContext
		}
		rec, cost, err := query(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%g %s (%d DHT-lookups)\n", rec.Key, rec.Value, cost.Lookups)
	case "scan":
		if err := need(2); err != nil {
			return err
		}
		from, err := parseKey(cmd[1])
		if err != nil {
			return err
		}
		limit, err := strconv.Atoi(cmd[2])
		if err != nil || limit < 1 {
			return fmt.Errorf("scan limit %q", cmd[2])
		}
		recs, cost, err := ix.ScanContext(ctx, from, limit)
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Fprintf(out, "%-12g %s\n", r.Key, r.Value)
		}
		fmt.Fprintf(out, "%d records (%d DHT-lookups)\n", len(recs), cost.Lookups)
	case "count":
		if err := need(0); err != nil {
			return err
		}
		n, err := ix.Count()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d records\n", n)
	case "fill":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(cmd[1])
		if err != nil || n < 1 {
			return fmt.Errorf("fill count %q", cmd[1])
		}
		gen := workload.NewGenerator(workload.Uniform, seed)
		for _, r := range gen.Records(n) {
			if _, err := ix.InsertContext(ctx, r); err != nil {
				return err
			}
		}
		s := ix.Metrics()
		fmt.Fprintf(out, "inserted %d records: %d DHT-lookups, %d splits, %d record slots moved; %d written by the probe their patch rode, %d rides refused\n",
			n, s.Lookup.Total, s.Lookup.Splits, s.Lookup.MovedRecords, s.Write.RidesApplied, s.Write.RidesRefused)
	default:
		return fmt.Errorf("unknown command %q", cmd[0])
	}
	return nil
}
