package chord

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"lht/internal/dht"
	"lht/internal/hashring"
	"lht/internal/metrics"
)

func newRing(t *testing.T, n int, cfg Config) *Ring {
	t.Helper()
	r, err := NewRing(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSingleNodeRing(t *testing.T) {
	r := newRing(t, 1, Config{Seed: 1})
	if err := r.Put(context.Background(), "k", 42); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get(context.Background(), "k")
	if err != nil || v.(int) != 42 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	ref, hops, err := r.Lookup(context.Background(), "k")
	if err != nil || ref.Addr != "n0" {
		t.Fatalf("Lookup = %v, %v", ref, err)
	}
	if hops != 0 {
		t.Errorf("single-node lookup hops = %d", hops)
	}
}

func TestNewRingValidates(t *testing.T) {
	if _, err := NewRing(0, Config{}); err == nil {
		t.Error("NewRing(0) should fail")
	}
}

func TestRingConsistency(t *testing.T) {
	r := newRing(t, 16, Config{Seed: 2})
	assertRingOrdered(t, r)
}

// assertRingOrdered walks successor pointers from one node and verifies
// they form a single cycle covering every live node in ID order.
func assertRingOrdered(t *testing.T, r *Ring) {
	t.Helper()
	nodes := r.liveNodes()
	if len(nodes) == 0 {
		t.Fatal("no live nodes")
	}
	start := nodes[0]
	visited := map[string]bool{}
	cur := start
	for i := 0; i <= len(nodes); i++ {
		if visited[cur.ref.Addr] {
			break
		}
		visited[cur.ref.Addr] = true
		succ := cur.rpcSuccessorList()[0]
		v, ok := r.net.Peek(succ.Addr)
		if !ok {
			t.Fatalf("successor %q of %q not registered", succ.Addr, cur.ref.Addr)
		}
		next := v.(*Node)
		// The arc (cur, succ] must contain no other live node.
		for _, other := range nodes {
			if other.ref.Addr == cur.ref.Addr || other.ref.Addr == succ.Addr {
				continue
			}
			if hashring.StrictBetween(other.ref.ID, cur.ref.ID, succ.ID) {
				t.Fatalf("node %q lies between %q and its successor %q", other.ref.Addr, cur.ref.Addr, succ.Addr)
			}
		}
		cur = next
	}
	if len(visited) != len(nodes) {
		t.Fatalf("successor cycle covers %d of %d nodes", len(visited), len(nodes))
	}
}

func TestPutGetAcrossRing(t *testing.T) {
	r := newRing(t, 20, Config{Seed: 3})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := r.Put(context.Background(), key, i); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, err := r.Get(context.Background(), key)
		if err != nil || v.(int) != i {
			t.Fatalf("Get(%s) = %v, %v", key, v, err)
		}
	}
	if _, err := r.Get(context.Background(), "absent"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Get absent = %v", err)
	}
	if r.TotalKeys() != 500 {
		t.Fatalf("TotalKeys = %d", r.TotalKeys())
	}
}

// TestRemoveWrite pins Write and Remove over a replicated ring: Write
// reaches every replica, and Remove leaves no copy on any of them.
func TestRemoveWrite(t *testing.T) {
	r := newRing(t, 8, Config{Seed: 4, Replicas: 3})
	ctx := context.Background()
	if err := r.Put(ctx, "a", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(ctx, "a", 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get(ctx, "a"); v.(int) != 2 {
		t.Fatalf("Write lost: %v", v)
	}
	if err := r.Write(ctx, "missing", 1); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Write missing = %v", err)
	}
	if err := r.Remove(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, "a"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Get after Remove = %v", err)
	}
	if n := r.TotalKeys(); n != 0 {
		t.Fatalf("Remove left %d copies behind", n)
	}
	if err := r.Remove(ctx, "a"); err != nil {
		t.Fatalf("Remove of absent key = %v, must not error", err)
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r := newRing(t, 64, Config{Seed: 5})
	var total int
	const queries = 300
	for i := 0; i < queries; i++ {
		_, hops, err := r.Lookup(context.Background(), fmt.Sprintf("q-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	mean := float64(total) / queries
	// log2(64) = 6; the classic expectation is ~(1/2)log2 N. Allow slack
	// but fail if routing degrades toward linear (32).
	if mean > 2*math.Log2(64) {
		t.Errorf("mean hops = %v for 64 nodes; routing not logarithmic", mean)
	}
	if mean == 0 {
		t.Error("mean hops = 0; counting broken")
	}
}

func TestLoadBalance(t *testing.T) {
	r := newRing(t, 16, Config{Seed: 6})
	const keys = 4000
	for i := 0; i < keys; i++ {
		if err := r.Put(context.Background(), fmt.Sprintf("lb-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	per := r.KeysPerNode()
	if len(per) != 16 {
		t.Fatalf("expected 16 nodes, got %d", len(per))
	}
	// Uniform hashing: no node should be empty or hold a majority.
	for addr, n := range per {
		if n == 0 {
			t.Errorf("node %s holds no keys", addr)
		}
		if n > keys/2 {
			t.Errorf("node %s holds %d of %d keys", addr, n, keys)
		}
	}
}

func TestJoinTransfersKeys(t *testing.T) {
	r := newRing(t, 4, Config{Seed: 7})
	for i := 0; i < 300; i++ {
		if err := r.Put(context.Background(), fmt.Sprintf("j-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i < 12; i++ {
		if err := r.AddNode(fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Stabilize(3)
	assertRingOrdered(t, r)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("j-%d", i)
		v, err := r.Get(context.Background(), key)
		if err != nil || v.(int) != i {
			t.Fatalf("after joins, Get(%s) = %v, %v", key, v, err)
		}
	}
	if err := r.AddNode("n4"); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate AddNode = %v", err)
	}
}

func TestGracefulLeavePreservesData(t *testing.T) {
	r := newRing(t, 10, Config{Seed: 8})
	for i := 0; i < 300; i++ {
		if err := r.Put(context.Background(), fmt.Sprintf("g-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range []string{"n1", "n4", "n7"} {
		if err := r.RemoveNode(addr, true); err != nil {
			t.Fatal(err)
		}
		r.Stabilize(3)
	}
	assertRingOrdered(t, r)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("g-%d", i)
		v, err := r.Get(context.Background(), key)
		if err != nil || v.(int) != i {
			t.Fatalf("after leaves, Get(%s) = %v, %v", key, v, err)
		}
	}
	if err := r.RemoveNode("n1", true); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("double remove = %v", err)
	}
}

func TestAbruptFailureHealsRing(t *testing.T) {
	r := newRing(t, 12, Config{Seed: 9})
	for i := 0; i < 200; i++ {
		if err := r.Put(context.Background(), fmt.Sprintf("f-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	r.Fail("n3")
	r.Fail("n8")
	r.Stabilize(4)
	// The ring must stay routable: every key resolves to a live node;
	// values on the failed nodes are lost (no replication configured).
	var lost int
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("f-%d", i)
		v, err := r.Get(context.Background(), key)
		switch {
		case errors.Is(err, dht.ErrNotFound):
			lost++
		case err != nil:
			t.Fatalf("Get(%s) = %v", key, err)
		case v.(int) != i:
			t.Fatalf("Get(%s) = %v", key, v)
		}
	}
	if lost == 0 {
		t.Error("expected some loss without replication")
	}
	if lost > 120 {
		t.Errorf("lost %d of 200 keys to 2/12 failures", lost)
	}
	// Recovery brings the stored keys back.
	r.Recover("n3")
	r.Recover("n8")
	r.Stabilize(4)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("f-%d", i)
		if _, err := r.Get(context.Background(), key); err != nil {
			t.Fatalf("after recovery, Get(%s) = %v", key, err)
		}
	}
}

func TestReplicationSurvivesFailure(t *testing.T) {
	r := newRing(t, 12, Config{Seed: 10, Replicas: 3})
	for i := 0; i < 200; i++ {
		if err := r.Put(context.Background(), fmt.Sprintf("r-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	r.Fail("n2")
	r.Fail("n9")
	r.Stabilize(4)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("r-%d", i)
		v, err := r.Get(context.Background(), key)
		if err != nil || v.(int) != i {
			t.Fatalf("with replication, Get(%s) = %v, %v", key, v, err)
		}
	}
}

func TestAllNodesDown(t *testing.T) {
	r := newRing(t, 2, Config{Seed: 11})
	r.Fail("n0")
	r.Fail("n1")
	if err := r.Put(context.Background(), "x", 1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Put with all down = %v", err)
	}
}

func TestMessagesAreCounted(t *testing.T) {
	r := newRing(t, 16, Config{Seed: 12})
	r.Network().ResetMessages()
	if err := r.Put(context.Background(), "counted", 1); err != nil {
		t.Fatal(err)
	}
	if r.Network().Messages() == 0 {
		t.Error("Put on a 16-node ring should cost messages")
	}
}

// TestReplicatedGetCostsOneLookup pins the Lookups accounting: the walk
// along the replica chain happens below the instrumentation layer with
// free direct calls, so a replicated Get costs exactly one DHT-lookup.
func TestReplicatedGetCostsOneLookup(t *testing.T) {
	var c metrics.Counters
	r := newRing(t, 8, Config{Seed: 23, Replicas: 3})
	d := dht.NewInstrumented(r, &c)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := d.Put(ctx, fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Snapshot().Lookup.Total
	const reads = 60
	for i := 0; i < reads; i++ {
		if _, err := d.Get(ctx, fmt.Sprintf("k-%d", i%20)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Snapshot().Lookup.Total - before; got != reads {
		t.Errorf("60 replicated Gets charged %d lookups, want exactly %d", got, reads)
	}
}

// TestStrandedCopyRetiredAfterRecovery pins the holder registry that
// scopes retireStale: a secondary that was DOWN while a write replaced
// the key's copies keeps its stale remnant (a real system cannot reach
// it), stays registered, and the first replica-set write after its
// recovery retires the remnant — so a removed key can never be
// resurrected by a read falling back to the recovered node.
func TestStrandedCopyRetiredAfterRecovery(t *testing.T) {
	r := newRing(t, 8, Config{Seed: 31, Replicas: 2})
	ctx := context.Background()
	if err := r.Put(ctx, "stranded", 1); err != nil {
		t.Fatal(err)
	}
	chain, _, _, err := r.replicaChain(ctx, "stranded")
	if err != nil {
		t.Fatal(err)
	}
	sec := chain[1]

	r.Fail(sec.ref.Addr)
	r.Stabilize(4)
	if err := r.Put(ctx, "stranded", 2); err != nil {
		t.Fatal(err) // sec misses this write: its copy of value 1 is stranded
	}
	// Recover WITHOUT a stabilization round: a maintenance sweep's
	// predecessor handoff could independently refresh the copy, and the
	// retirement contract must not depend on maintenance having run.
	r.Recover(sec.ref.Addr)
	if v, ok := sec.rpcFetch("stranded"); !ok || v.(int) != 1 {
		t.Fatalf("precondition: recovered node holds %v (found %t), want stale value 1", v, ok)
	}

	// Remove retires every REGISTERED holder, including the recovered
	// one the removal-time chain no longer contains.
	if err := r.Remove(ctx, "stranded"); err != nil {
		t.Fatal(err)
	}
	if v, ok := sec.rpcFetch("stranded"); ok {
		t.Fatalf("stranded copy survived retirement: %v", v)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Get(ctx, "stranded"); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("read %d resurrected a removed key: %v", i, err)
		}
	}
}

// TestRecoveredStaleCopyWindow pins that a stale copy on a secondary is
// never read while the primary is up. A holder that was down while the
// key was written rejoins the chain with the older value unless the
// stabilization handoff refreshes it; the test puts that value back on
// it, so the chain holds one current and one stale copy. Every read
// starts at the primary, which holds the current one, and the next write
// retires or refreshes the stale copy.
func TestRecoveredStaleCopyWindow(t *testing.T) {
	r := newRing(t, 8, Config{Seed: 33, Replicas: 2})
	ctx := context.Background()
	if err := r.Put(ctx, "win", 1); err != nil {
		t.Fatal(err)
	}
	chain, _, _, err := r.replicaChain(ctx, "win")
	if err != nil {
		t.Fatal(err)
	}
	sec := chain[1]
	r.Fail(sec.ref.Addr)
	r.Stabilize(4)
	if err := r.Put(ctx, "win", 2); err != nil {
		t.Fatal(err)
	}
	r.Recover(sec.ref.Addr)
	r.Stabilize(4)
	sec.rpcStore("win", 1)
	if chain, _, _, err = r.replicaChain(ctx, "win"); err != nil || len(chain) != 2 || chain[1] != sec {
		t.Fatalf("precondition: the recovered node is not the key's secondary again (%v)", err)
	}

	for i := 0; i < 20; i++ {
		v, err := r.Get(ctx, "win")
		if err != nil || v.(int) != 2 {
			t.Fatalf("read %d = %v, %v, want the current value 2", i, v, err)
		}
	}

	// The next write closes it: every holder is refreshed or retired.
	if err := r.Put(ctx, "win", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v, err := r.Get(ctx, "win")
		if err != nil || v.(int) != 3 {
			t.Fatalf("post-write read %d = %v, %v, want 3", i, v, err)
		}
	}
}
