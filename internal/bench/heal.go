package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/record"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

// Ablation A12: the self-healing membership plane — gossip cluster view,
// view refresh, write failover and scrub-driven re-replication — under
// permanent and transient node loss, end to end over real sockets. Each
// cell boots a fresh 4-node cluster with the server-side membership plane
// enabled, loads the tree over 3 replicas, then applies one churn
// scenario:
//
//   - kill: one storage node dies permanently — its replica copies are
//     gone and writes during the outage cannot reach their full holder
//     set;
//   - rejoin: the node dies and later returns EMPTY at the same address
//     (disk lost) — the worst non-graceful restart.
//
// During the outage both arms keep writing; the self-healing arm's write
// failover lets a write return with the down holder's copy missing. It
// then recovers: anti-entropy gossip declares the node dead (kill) or
// adopts its refuted rejoin, the client refreshes its routing ring from
// the gossip view, and a bounded number of re-replicating scrub passes
// restores the replica count on the current ring owners, the returned
// holder's missed copies included. The static arm is yesterday's
// cluster API: a fixed member list with holder failover only — reads
// keep succeeding off the survivors, but nothing ever repairs, so the
// index stays one failure away from data loss.
//
// Two results: A12, the measured outage-write success, post-recovery
// query success, and replica coverage per scenario (wall-clock
// dependent), and A12b, the identical logical workload replayed serially
// over the instrumented local substrate — deterministic round trips
// results/counted-costs.csv pins, holding that the membership plane is
// free in the cost model when off.
const (
	// healNodes/healReplicas shape the cluster: 4 nodes, 3-way
	// replication, so one loss leaves every key readable and repairable.
	healNodes    = 4
	healReplicas = 3
	// healChurnDiv sizes the outage write phase: size/healChurnDiv fresh
	// records inserted while the victim is down.
	healChurnDiv = 8
	// healMaxScrubRounds bounds the acceptance criterion: the replica
	// count must be fully restored within this many scrub passes.
	healMaxScrubRounds = 3
	// healConvergeBudget caps how long a cell waits for gossip to
	// converge (suspicion, death, rejoin refutation) before giving up;
	// generous because CI machines stall.
	healConvergeBudget = 30 * time.Second
)

// healScenarios name the churn schedules; the index doubles as the x
// coordinate.
var healScenarios = []string{"kill", "rejoin"}

// RunMembershipAblation is ablation A12; see the comment above.
func RunMembershipAblation(o Options, size int) (Result, Result, error) {
	o = o.WithDefaults()
	lat := Result{
		Name: "A12",
		Title: fmt.Sprintf("Self-healing membership under churn (%d records + %d outage writes, %d clients)",
			size, size/healChurnDiv, chaosWorkers),
		XLabel:   "scenario (0=kill, 1=rejoin empty)",
		YLabel:   "success % / replica coverage %",
		Measured: true,
	}
	rt := Result{
		Name: "A12b",
		Title: fmt.Sprintf("Churn workload cost, plane off (%d records + %d churn writes + %d queries, serialized)",
			size, size/healChurnDiv, o.Queries),
		XLabel: "scenario (0=kill, 1=rejoin empty)",
		YLabel: "round trips",
	}
	xs := make([]float64, len(healScenarios))
	for i := range xs {
		xs[i] = float64(i)
	}

	for _, arm := range []struct {
		name    string
		healing bool
	}{{"static view", false}, {"self-healing", true}} {
		var wr, qr, cov []float64
		for sc := range healScenarios {
			cell, err := measureHealCell(o, size, sc, arm.healing)
			if err != nil {
				return lat, rt, fmt.Errorf("bench: membership ablation %s %s: %w", arm.name, healScenarios[sc], err)
			}
			wr = append(wr, cell.writeOK)
			qr = append(qr, cell.success)
			cov = append(cov, cell.coverage)
		}
		lat.Series = append(lat.Series,
			meanSeries(arm.name+" outage write success %", xs, [][]float64{wr}),
			meanSeries(arm.name+" query success %", xs, [][]float64{qr}),
			meanSeries(arm.name+" replica coverage %", xs, [][]float64{cov}))
	}

	// The pinned rows: each scenario's logical workload (build + churn
	// writes + queries) replayed serially over the instrumented local
	// map, cache off and on. Round trips are a pure function of (seed,
	// theta, depth, size, queries) — drift means the membership plane
	// leaked into the default lookup path.
	for _, cache := range []bool{false, true} {
		var rts []float64
		for sc := range healScenarios {
			n, err := healCostCell(o, size, sc, cache)
			if err != nil {
				return lat, rt, fmt.Errorf("bench: membership cost cell %s cache=%t: %w", healScenarios[sc], cache, err)
			}
			rts = append(rts, n)
		}
		name := "cache off"
		if cache {
			name = "cache on"
		}
		rt.Series = append(rt.Series, meanSeries(name, xs, [][]float64{rts}))
	}
	return lat, rt, nil
}

// healCell is one (scenario, arm) combination's measured outcome.
type healCell struct {
	writeOK  float64 // outage-phase writes that succeeded, percent
	success  float64 // post-recovery queries answered in deadline, percent
	coverage float64 // replica copies present on live nodes / expected, percent
}

// healSchedule draws one rep's post-recovery query keys: identical for
// both arms of a scenario.
func healSchedule(o Options, keys []float64, scenario, rep int) []float64 {
	rng := rand.New(rand.NewSource(o.Seed + 23 + int64(scenario)*131 + int64(rep)))
	qs := make([]float64, 4*o.Queries)
	for i := range qs {
		qs[i] = keys[rng.Intn(len(keys))]
	}
	return qs
}

// healChurnRecords are the records written while the victim is down.
func healChurnRecords(o Options, size int) []record.Record {
	return workload.NewGenerator(workload.Uniform, o.Seed+7).Records(size / healChurnDiv)
}

// measureHealCell boots a membership-enabled 4-node cluster, loads the
// tree, kills one node per the scenario, writes through the outage, runs
// the arm's recovery protocol, then measures query success and replica
// coverage.
func measureHealCell(o Options, size, scenario int, healing bool) (healCell, error) {
	var cell healCell
	ctx := context.Background()

	// Boot the servers with the membership plane on. Gossip is driven
	// explicitly (Tick, not Run) so the cell controls its own clock.
	cl, err := startWireCluster(healNodes, nil, &gossip{seed: o.Seed + 1})
	if err != nil {
		return cell, err
	}
	defer cl.close()
	// srvs and mems alias the cluster's slices: the server that rejoins
	// below replaces the victim in them, and is closed with the rest.
	srvs, mems, addrs := cl.servers, cl.members, cl.addrs

	c, err := tcpnet.Dial(ctx, tcpnet.ClusterConfig{
		Seeds:          addrs,
		Replicas:       healReplicas,
		Counters:       o.Agg,
		FailoverWrites: healing,
	})
	if err != nil {
		return cell, err
	}
	defer func() { _ = c.Close() }()

	ix, err := lht.New(c, lht.Config{
		SplitThreshold: o.Theta,
		Depth:          o.Depth,
		LeafCache:      true,
		Aggregate:      o.Agg,
		Rereplicate:    healing,
	})
	if err != nil {
		return cell, err
	}

	recs := workload.NewGenerator(workload.Uniform, o.Seed).Records(size)
	keys := make([]float64, 0, len(recs)+size/healChurnDiv)
	for _, r := range recs {
		keys = append(keys, r.Key)
	}
	if _, err := ix.BulkLoad(recs); err != nil {
		return cell, fmt.Errorf("build: %w", err)
	}
	for _, k := range keys {
		if _, _, err := ix.Search(k); err != nil {
			return cell, fmt.Errorf("warmup search: %w", err)
		}
	}

	// Kill the victim. Both scenarios start identically; they differ in
	// whether it ever comes back.
	const victim = healNodes - 1
	_ = srvs[victim].Close()

	// The outage write phase: a write whose holder can't be reached
	// errors in the static arm; the healing arm's write failover returns
	// with that copy missing, for the scrub to restore.
	var wrOK, wrTotal int
	for _, r := range healChurnRecords(o, size) {
		keys = append(keys, r.Key)
		wctx, cancel := context.WithTimeout(ctx, chaosOpDeadline)
		_, err := ix.InsertContext(wctx, r)
		cancel()
		wrTotal++
		if err == nil {
			wrOK++
		}
	}
	cell.writeOK = 100 * float64(wrOK) / float64(wrTotal)

	if scenario == 1 {
		// Rejoin: the node returns EMPTY at its old address, with a fresh
		// incarnation-0 membership that must refute its own death.
		fresh, err := startWireCluster(1, []string{addrs[victim]}, &gossip{seeds: addrs, seed: o.Seed + 91})
		if err != nil {
			return cell, err
		}
		srvs[victim], mems[victim] = fresh.servers[0], fresh.members[0]
	}

	if healing {
		if err := healRecover(ctx, ix, c, mems, addrs, victim, scenario); err != nil {
			return cell, err
		}
	}

	// The post-recovery query phase, shared machinery with A11.
	var ok, total atomic.Int64
	for rep := 0; rep < o.Trials; rep++ {
		qs := healSchedule(o, keys, scenario, rep)
		runChaosPhase(ix, qs, &ok, &total)
	}
	cell.success = 100 * float64(ok.Load()) / float64(total.Load())

	skip := -1
	if scenario == 0 {
		skip = victim // permanently dead: not a live copy holder
	}
	cov, err := replicaCoverage(o, addrs, srvs, skip)
	if err != nil {
		return cell, err
	}
	cell.coverage = cov
	return cell, nil
}

// healRecover runs the self-healing arm's recovery protocol: drive
// gossip until the cluster view reflects the churn (victim dead, or
// rejoined), refresh the client's routing ring from the view, and
// re-replicate via bounded scrub passes.
func healRecover(ctx context.Context, ix *lht.Index, c *tcpnet.Client, mems []*tcpnet.Membership, addrs []string, victim, scenario int) error {
	deadline := time.Now().Add(healConvergeBudget)
	converged := func() bool {
		for i, m := range mems {
			if i == victim && scenario == 0 {
				continue
			}
			if scenario == 0 {
				if st, ok := m.View().Find(addrs[victim]); !ok || st.State != dht.MemberDead {
					return false
				}
			} else {
				if st, ok := m.View().Find(addrs[victim]); !ok || st.State != dht.MemberAlive {
					return false
				}
			}
		}
		// The client converges too: its suspicion must round-trip through
		// the gossip plane (kill: the victim's death reaches its view and
		// drops it from the ring; rejoin: the victim's refutation comes
		// back with a bumped incarnation, and the refresh that brings it
		// resets the victim's redial gates).
		st, ok := c.View().Find(addrs[victim])
		if scenario == 0 {
			return ok && st.State == dht.MemberDead
		}
		return ok && st.State == dht.MemberAlive
	}
	for !converged() {
		if time.Now().After(deadline) {
			return fmt.Errorf("gossip never converged for scenario %d", scenario)
		}
		for i, m := range mems {
			if i == victim && scenario == 0 {
				continue
			}
			_ = m.Tick(ctx)
		}
		// The client is one more gossip participant: each exchange pushes
		// its local evidence (a failed dial of the victim → suspect) and
		// pulls the cluster's verdict back.
		_ = c.RefreshView(ctx)
	}
	for round := 0; round < healMaxScrubRounds; round++ {
		rep, err := ix.Scrub(ctx)
		if err != nil {
			return fmt.Errorf("repair scrub round %d: %w", round+1, err)
		}
		if rep.ReplicaMissing == 0 {
			return nil
		}
	}
	// The last round still found missing copies; coverage will show it.
	return nil
}

// replicaCoverage reports the fraction of expected replica copies
// present on live servers: for every leaf storage key, healReplicas
// copies are expected; skip marks a permanently dead server. The leaf
// walk runs over a fresh client dialed against only the live members —
// the measured client's view and redial gates remember the outage, and
// the walk must count copies, not meet the client's failure memory.
func replicaCoverage(o Options, addrs []string, srvs []*tcpnet.Server, skip int) (float64, error) {
	ctx := context.Background()
	live := make([]string, 0, len(addrs))
	for i, a := range addrs {
		if i != skip {
			live = append(live, a)
		}
	}
	c, err := tcpnet.Dial(ctx, tcpnet.ClusterConfig{Seeds: live, Replicas: healReplicas})
	if err != nil {
		return 0, fmt.Errorf("coverage dial: %w", err)
	}
	defer func() { _ = c.Close() }()
	view, err := lht.New(c, lht.Config{SplitThreshold: o.Theta, Depth: o.Depth})
	if err != nil {
		return 0, fmt.Errorf("coverage index: %w", err)
	}
	leaves, err := view.Leaves()
	if err != nil {
		return 0, fmt.Errorf("coverage walk: %w", err)
	}
	if len(leaves) == 0 {
		return 0, fmt.Errorf("coverage walk found no leaves")
	}
	want, have := 0, 0
	for _, b := range leaves {
		k := b.Label.Name().Key()
		want += healReplicas
		for i, s := range srvs {
			if i == skip {
				continue
			}
			if s.Has(k) {
				have++
			}
		}
	}
	return 100 * float64(have) / float64(want), nil
}

// healCostCell replays one scenario's logical workload (build + churn
// writes + queries, sequential, no churn — the logical schedule is
// identical with or without the physical planes) over the instrumented
// local substrate and returns the client-charged round trips.
func healCostCell(o Options, size, scenario int, cache bool) (float64, error) {
	ix, err := lht.New(dht.NewLocal(), lht.Config{
		SplitThreshold: o.Theta,
		Depth:          o.Depth,
		LeafCache:      cache,
		Aggregate:      o.Agg,
	})
	if err != nil {
		return 0, err
	}
	recs := workload.NewGenerator(workload.Uniform, o.Seed).Records(size)
	var keys []float64
	for _, r := range recs {
		keys = append(keys, r.Key)
		if _, err := ix.Insert(r); err != nil {
			return 0, err
		}
	}
	for _, r := range healChurnRecords(o, size) {
		keys = append(keys, r.Key)
		if _, err := ix.Insert(r); err != nil {
			return 0, err
		}
	}
	for _, k := range healSchedule(o, keys, scenario, 0)[:o.Queries] {
		if _, _, err := ix.Search(k); err != nil {
			return 0, err
		}
	}
	return float64(ix.Metrics().RoundTrips()), nil
}
