package lht

// Scrub-driven re-replication and the cluster-status facade, exercised
// over a real replicated tcpnet cluster: a node that comes back empty
// (the worst non-graceful churn — all its copies lost) is refilled by
// the next scrub pass, and the same pass is a strict no-op on substrates
// without a membership plane.

import (
	"context"
	"errors"
	"net"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
	"lht/internal/tcpnet"
)

// startReplicatedIndex boots n tcpnet servers, dials a cluster client
// with the given replica count, and builds an index over it.
func startReplicatedIndex(t *testing.T, n, replicas int, cfg Config) ([]*tcpnet.Server, []string, *Index) {
	t.Helper()
	srvs := make([]*tcpnet.Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srvs[i] = tcpnet.NewServer()
		go func(s *tcpnet.Server, ln net.Listener) { _ = s.Serve(ln) }(srvs[i], ln)
		t.Cleanup(func(i int) func() { return func() { _ = srvs[i].Close() } }(i))
	}
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: addrs, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ix, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srvs, addrs, ix
}

func TestScrubRereplicatesEmptiedNode(t *testing.T) {
	ctx := context.Background()
	cfg := Config{SplitThreshold: 4, Depth: 20, Rereplicate: true}
	srvs, addrs, ix := startReplicatedIndex(t, 3, 3, cfg)

	for i := 0; i < 16; i++ {
		r := record.Record{Key: (float64(i) + 0.5) / 16, Value: []byte{byte(i)}}
		if _, err := ix.InsertContext(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	// A clean pass over a healthy cluster probes every owner of every
	// visited key and restores nothing.
	rep, err := ix.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("healthy cluster scrub not clean: %s", rep)
	}
	if rep.ReplicaProbes != 3*rep.Leaves || rep.ReplicaMissing != 0 || rep.ReplicaRestored != 0 {
		t.Fatalf("healthy pass = %d probes/%d missing/%d restored over %d leaves",
			rep.ReplicaProbes, rep.ReplicaMissing, rep.ReplicaRestored, rep.Leaves)
	}
	if rep.Lookups < rep.ReplicaProbes {
		t.Fatalf("probe round trips not charged: %d lookups < %d probes", rep.Lookups, rep.ReplicaProbes)
	}

	// Kill one holder and bring it back EMPTY at the same address: every
	// bucket has lost one replica copy.
	_ = srvs[2].Close()
	ln, err := net.Listen("tcp", addrs[2])
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addrs[2], err)
	}
	fresh := tcpnet.NewServer()
	go func() { _ = fresh.Serve(ln) }()
	t.Cleanup(func() { _ = fresh.Close() })

	rep, err = ix.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicaMissing != rep.Leaves || rep.ReplicaRestored != rep.Leaves {
		t.Fatalf("repair pass = %+v: want every one of the %d leaves restored", rep, rep.Leaves)
	}
	if rep.Clean() {
		t.Fatal("a restoring pass must not report clean")
	}

	// The next pass finds full replication again.
	rep, err = ix.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.ReplicaMissing != 0 {
		t.Fatalf("post-repair scrub not clean: %s", rep)
	}
	// And every query still answers from the healed cluster.
	for i := 0; i < 16; i++ {
		if _, _, err := ix.SearchContext(ctx, (float64(i)+0.5)/16); err != nil {
			t.Fatalf("get after heal: %v", err)
		}
	}
}

// TestScrubRereplicationOffByDefault pins the cost-model guarantee: with
// Rereplicate unset a scrub over a replicated cluster issues zero
// membership probes and its report carries zero replica fields.
func TestScrubRereplicationOffByDefault(t *testing.T) {
	ctx := context.Background()
	_, _, ix := startReplicatedIndex(t, 3, 2, Config{SplitThreshold: 4, Depth: 20})
	if _, err := ix.InsertContext(ctx, record.Record{Key: 0.5, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	rep, err := ix.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicaProbes != 0 || rep.ReplicaMissing != 0 || rep.ReplicaRestored != 0 {
		t.Fatalf("re-replication ran without opt-in: %+v", rep)
	}
}

func TestClusterStatusFacade(t *testing.T) {
	ctx := context.Background()
	_, _, ix := startReplicatedIndex(t, 3, 2, Config{SplitThreshold: 4, Depth: 20})
	st, err := ix.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 {
		t.Fatalf("status members = %d, want 3", len(st.Members))
	}
	for _, m := range st.Members {
		if m.State != dht.MemberAlive {
			t.Fatalf("%s reported %s, want alive", m.Addr, m.State)
		}
	}

	// Substrates without a membership plane fail typed.
	local, err := New(dht.NewLocal(), Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.ClusterStatus(ctx); !errors.Is(err, ErrNoCluster) {
		t.Fatalf("local substrate status err = %v, want ErrNoCluster", err)
	}
}
