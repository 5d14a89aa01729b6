package bench

// The membership-churn soak: every concurrent moving part of the
// self-healing plane running at once — server-side gossip loops, a
// background view refresh, write failover, re-replicating scrubs, and a
// query fleet — while one node flaps on the A11 chaos
// schedule. The assertions are deliberately light (the cluster must end
// healthy); the test earns its keep under `go test -race`, where any
// locking mistake between the planes surfaces as a report.

import (
	"context"
	"sync"
	"testing"
	"time"

	"lht/internal/lht"
	"lht/internal/netchaos"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

func TestMembershipChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second concurrency soak")
	}
	o := Options{Theta: 16, Depth: 12, Trials: 1, Queries: 40, Seed: 5}.WithDefaults()
	const size = 192
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cl, err := startWireCluster(healNodes, nil, &gossip{seed: o.Seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	mems, addrs := cl.members, cl.addrs
	for _, m := range mems {
		go m.Run(ctx, 20*time.Millisecond)
	}

	// The flap schedule from A11: the target refuses dials and severs
	// connections on a 50% duty cycle, seeded so reruns flap identically.
	chaos := netchaos.New(o.Seed)
	chaos.Add(chaosScenarios[2].rule(addrs[0]))

	c, err := tcpnet.Dial(ctx, tcpnet.ClusterConfig{
		Seeds:          addrs,
		Replicas:       healReplicas,
		Dialer:         chaos,
		FailoverWrites: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// The background view refresh: the client's routing ring follows the
	// servers' gossiped view while everything below races it.
	var refresh sync.WaitGroup
	defer func() { cancel(); refresh.Wait() }()
	refresh.Add(1)
	go func() {
		defer refresh.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				_ = c.RefreshView(ctx)
			}
		}
	}()
	ix, err := lht.New(c, lht.Config{
		SplitThreshold: o.Theta,
		Depth:          o.Depth,
		LeafCache:      true,
		HedgeAfter:     chaosHedgeAfter,
		Rereplicate:    true,
	})
	if err != nil {
		t.Fatal(err)
	}

	recs := workload.NewGenerator(workload.Uniform, o.Seed).Records(size)
	keys := make([]float64, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if _, err := ix.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, _, err := ix.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	chaos.Start()

	// Queries, writes, and re-replicating scrubs race the flapping node
	// and each other for a fixed wall-clock window. Operation errors are
	// expected (the victim is down half the time); crashes and races are
	// not.
	soakCtx, soakDone := context.WithTimeout(ctx, 2*time.Second)
	defer soakDone()
	var wg sync.WaitGroup
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := healSchedule(o, keys, w%len(healScenarios), w)
			for i := 0; soakCtx.Err() == nil; i++ {
				octx, ocancel := context.WithTimeout(soakCtx, chaosOpDeadline)
				if w == 0 && i%16 == 3 {
					_, _ = ix.InsertContext(octx, workload.NewGenerator(workload.Uniform, o.Seed+int64(i)).Records(1)[0])
				} else {
					_, _, _ = ix.SearchContext(octx, qs[i%len(qs)])
				}
				ocancel()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for soakCtx.Err() == nil {
			_, _ = ix.Scrub(soakCtx)
		}
	}()
	wg.Wait()

	// Chaos off, flap settled: the cluster must converge back to healthy —
	// a clean scrub and every original key answerable.
	chaos.Clear()
	deadline := time.Now().Add(healConvergeBudget)
	for {
		rep, err := ix.Scrub(ctx)
		if err == nil && rep.Clean() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never settled after chaos: rep=%v err=%v", rep, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, k := range keys {
		if _, _, err := ix.SearchContext(ctx, k); err != nil {
			t.Fatalf("post-soak search %v: %v", k, err)
		}
	}
}
