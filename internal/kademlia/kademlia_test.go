package kademlia

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lht/internal/dht"
	"lht/internal/hashring"
)

func TestBucketIndex(t *testing.T) {
	if bucketIndex(0, 0) != -1 {
		t.Error("self must map to -1")
	}
	if bucketIndex(0, 1) != 0 {
		t.Error("distance 1 -> bucket 0")
	}
	if bucketIndex(0, 1<<63) != 63 {
		t.Error("top bit -> bucket 63")
	}
	if bucketIndex(0b1010, 0b1000) != 1 {
		t.Errorf("bucketIndex = %d, want 1", bucketIndex(0b1010, 0b1000))
	}
}

func TestTableObserveAndClosest(t *testing.T) {
	self := Ref{ID: 0, Addr: "self"}
	tbl := newTable(self, 2)
	refs := []Ref{
		{ID: 1, Addr: "a"}, {ID: 2, Addr: "b"}, {ID: 3, Addr: "c"},
		{ID: 1 << 40, Addr: "d"},
	}
	for _, r := range refs {
		tbl.observe(r)
	}
	// Bucket 1 holds IDs 2 and 3 (k=2 full); ID 1 is alone in bucket 0;
	// d in bucket 40.
	if tbl.size() != 4 {
		t.Fatalf("size = %d", tbl.size())
	}
	// A full bucket drops newcomers.
	tbl.observe(Ref{ID: 2 ^ 1, Addr: "e"}) // also bucket 1
	if tbl.size() != 4 {
		t.Fatalf("full bucket accepted newcomer: size = %d", tbl.size())
	}
	// Re-observing an existing contact refreshes, not duplicates.
	tbl.observe(refs[0])
	if tbl.size() != 4 {
		t.Fatalf("re-observe duplicated: size = %d", tbl.size())
	}
	got := tbl.closest(0, 3)
	if len(got) != 3 || got[0].Addr != "self" || got[1].Addr != "a" {
		t.Fatalf("closest = %v", got)
	}
	tbl.remove("a")
	if tbl.size() != 3 {
		t.Fatalf("remove failed: size = %d", tbl.size())
	}
}

func TestNetworkPutGet(t *testing.T) {
	nw, err := NewNetwork(24, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := nw.Put(context.Background(), key, i); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
	}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, err := nw.Get(context.Background(), key)
		if err != nil || v.(int) != i {
			t.Fatalf("Get(%s) = %v, %v", key, v, err)
		}
	}
	if _, err := nw.Get(context.Background(), "absent"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Get absent = %v", err)
	}
	// K-way replication: each key stored on K=8 nodes.
	if total := nw.TotalKeys(); total != 300*8 {
		t.Errorf("TotalKeys = %d, want %d", total, 300*8)
	}
}

// TestRemoveWrite pins Write and Remove over a replicated network:
// Write reaches every holder, and Remove leaves no copy on any of the K
// closest.
func TestRemoveWrite(t *testing.T) {
	nw, err := NewNetwork(10, Config{Seed: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := nw.Put(ctx, "a", 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Write(ctx, "a", 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := nw.Get(ctx, "a"); v.(int) != 2 {
		t.Fatal("Write did not propagate to replicas")
	}
	if err := nw.Write(ctx, "missing", 0); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Write missing = %v", err)
	}
	if err := nw.Remove(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Get(ctx, "a"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Get after Remove = %v", err)
	}
	if n := nw.TotalKeys(); n != 0 {
		t.Fatalf("Remove left %d copies behind", n)
	}
	if err := nw.Remove(ctx, "a"); err != nil {
		t.Fatalf("Remove of absent key = %v, must not error", err)
	}
}

func TestLookupMessagesLogarithmic(t *testing.T) {
	nw, err := NewNetwork(64, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	const queries = 100
	for i := 0; i < queries; i++ {
		refs, hops, err := nw.Lookup(context.Background(), fmt.Sprintf("q-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) == 0 {
			t.Fatal("no nodes found")
		}
		total += hops
	}
	mean := float64(total) / queries
	// Iterative lookups query O(alpha * log N) contacts; fail if this
	// degrades toward N.
	if mean > 40 {
		t.Errorf("mean messages per lookup = %v for 64 nodes", mean)
	}
}

func TestLookupFindsTrueClosest(t *testing.T) {
	nw, err := NewNetwork(32, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("c-%d", i)
		target := hashring.HashKey(key)
		refs, _, err := nw.Lookup(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		// Compute the true closest node by brute force.
		var best Ref
		bestD := ^uint64(0)
		nw.mu.Lock()
		for _, n := range nw.nodes {
			if d := xorDist(n.ref.ID, target); d < bestD {
				bestD, best = d, n.ref
			}
		}
		nw.mu.Unlock()
		if refs[0].Addr != best.Addr {
			t.Fatalf("Lookup(%s) closest = %v, want %v", key, refs[0], best)
		}
	}
}

func TestFailureTolerance(t *testing.T) {
	nw, err := NewNetwork(20, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := nw.Put(context.Background(), fmt.Sprintf("f-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	nw.Fail("k3")
	nw.Fail("k7")
	nw.Fail("k11")
	// K=8 replication: every key still readable with 3/20 nodes down.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("f-%d", i)
		v, err := nw.Get(context.Background(), key)
		if err != nil || v.(int) != i {
			t.Fatalf("Get(%s) after failures = %v, %v", key, v, err)
		}
	}
	nw.Recover("k3")
	if _, err := nw.Get(context.Background(), "f-0"); err != nil {
		t.Fatal(err)
	}
}

func TestJoinAfterData(t *testing.T) {
	nw, err := NewNetwork(8, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := nw.Put(context.Background(), fmt.Sprintf("j-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 8; i < 16; i++ {
		if err := nw.AddNode(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("j-%d", i)
		v, err := nw.Get(context.Background(), key)
		if err != nil || v.(int) != i {
			t.Fatalf("Get(%s) after joins = %v, %v", key, v, err)
		}
	}
	if err := nw.AddNode("k8"); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate AddNode = %v", err)
	}
}

func TestAllNodesDown(t *testing.T) {
	nw, err := NewNetwork(2, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nw.Fail("k0")
	nw.Fail("k1")
	if err := nw.Put(context.Background(), "x", 1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Put with all down = %v", err)
	}
}

func TestNewNetworkValidates(t *testing.T) {
	if _, err := NewNetwork(0, Config{}); err == nil {
		t.Error("NewNetwork(0) should fail")
	}
}
