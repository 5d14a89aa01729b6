package lht_test

import (
	"errors"
	"math/rand"
	"testing"

	"lht"
)

// TestChurnSurvivalWithReplication exercises the failure model end to
// end: an index over a replicated Chord ring keeps every record through a
// non-graceful node departure (a crash, not a handoff), because each
// bucket lives on Replicas consecutive successors and reads slide along
// the chain. After the churn, a Scrub pass confirms the tree's
// structural invariants survived untouched.
func TestChurnSurvivalWithReplication(t *testing.T) {
	ring, err := lht.NewChordDHT(16, lht.ChordConfig{Seed: 42, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lht.New(ring, lht.Config{SplitThreshold: 20, MergeThreshold: 10, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	keys := make([]float64, 400)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(lht.Record{Key: keys[i], Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}

	// Crash one node outright: its shard is stranded, not handed over.
	// With Replicas=2 every key keeps one live holder.
	members := ring.NodeAddrs()
	if err := ring.RemoveNode(members[len(members)/2], false); err != nil {
		t.Fatal(err)
	}
	ring.Stabilize(4)

	for i, k := range keys {
		rec, _, err := ix.Get(k)
		if err != nil {
			t.Fatalf("Get(%v) after churn: %v", k, err)
		}
		if len(rec.Value) != 1 || rec.Value[0] != byte(i) {
			t.Fatalf("Get(%v) = %v, want value [%d]", k, rec.Value, i)
		}
	}

	// The index keeps accepting writes on the healed ring.
	for i := 0; i < 100; i++ {
		k := rng.Float64()
		keys = append(keys, k)
		if _, err := ix.Insert(lht.Record{Key: k}); err != nil {
			t.Fatalf("Insert after churn: %v", err)
		}
	}

	rep, err := ix.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v\n%s", err, rep)
	}
	if !rep.Clean() {
		t.Fatalf("Scrub after churn not clean:\n%s", rep)
	}
	if rep.Records != len(keys) {
		t.Fatalf("Scrub visited %d records, want %d", rep.Records, len(keys))
	}
}

// TestTornSplitOverChordRepaired runs the torn-split regression over the
// Chord substrate through the exported API: a writer crashes between a
// split's remote put and its local write-back, and a fresh client's next
// query repairs the tear in-line.
func TestTornSplitOverChordRepaired(t *testing.T) {
	ring, err := lht.NewChordDHT(8, lht.ChordConfig{Seed: 7, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	crash := lht.WithCrashPoints(ring, lht.CrashRule{
		Op:  lht.OpCreateIf,
		Key: func(k string) bool { return k == "#0" },
		// The split pushes its remote half out to "#0" with a
		// create-if-absent; After loses only the acknowledgement, Halt
		// kills the writer.
		N: 1, After: true, Halt: true,
	})
	ix, err := lht.New(crash, lht.Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	keys := []float64{0.1, 0.3, 0.7}
	var crashed bool
	for _, k := range keys {
		if _, err := ix.Insert(lht.Record{Key: k}); errors.Is(err, lht.ErrCrashed) {
			crashed = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !crashed {
		t.Fatal("schedule never fired; the split workload regressed")
	}

	fresh, err := lht.New(ring, lht.Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, _, err := fresh.Get(k); err != nil {
			t.Fatalf("Get(%v) on torn tree: %v", k, err)
		}
	}
	s := fresh.Metrics()
	if s.Repair.TornSplits != 1 || s.Repair.Repairs != 1 {
		t.Fatalf("TornSplits=%d Repairs=%d, want 1, 1", s.Repair.TornSplits, s.Repair.Repairs)
	}
	rep, err := fresh.Scrub()
	if err != nil || !rep.Clean() {
		t.Fatalf("Scrub after repair = %v, %s; want clean", err, rep)
	}
}
