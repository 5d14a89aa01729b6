package lht

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lht/internal/chord"
	"lht/internal/dht"
	"lht/internal/record"
)

// faultDHT injects a substrate failure after a countdown of operations,
// modelling a transient network outage mid-operation. Every method ticks,
// the conditional writes too, so a cut can land on any commit.
type faultDHT struct {
	inner     dht.DHT
	remaining int
	tripped   bool
}

var errInjected = errors.New("injected substrate failure")

func (f *faultDHT) tick() error {
	if f.remaining <= 0 {
		f.tripped = true
		return errInjected
	}
	f.remaining--
	return nil
}

func (f *faultDHT) Get(ctx context.Context, key string) (dht.Value, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.inner.Get(ctx, key)
}

func (f *faultDHT) Put(ctx context.Context, key string, v dht.Value) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Put(ctx, key, v)
}

func (f *faultDHT) Remove(ctx context.Context, key string) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Remove(ctx, key)
}

func (f *faultDHT) Write(ctx context.Context, key string, v dht.Value) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Write(ctx, key, v)
}

func (f *faultDHT) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.PutIf(ctx, key, v, ifEpoch)
}

func (f *faultDHT) CreateIf(ctx context.Context, key string, v dht.Value) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.CreateIf(ctx, key, v)
}

func (f *faultDHT) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.RemoveIf(ctx, key, ifEpoch)
}

func (f *faultDHT) WriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.WriteIf(ctx, key, v, ifEpoch)
}

// TestSubstrateFailuresPropagate injects a failure at every possible
// operation offset of a write-heavy workload and checks that the engine
// surfaces the injected error (wrapped, matchable) instead of panicking
// or mislabelling it as a data condition.
func TestSubstrateFailuresPropagate(t *testing.T) {
	// Find out how many substrate ops the workload needs when healthy.
	healthyOps := func() int {
		f := &faultDHT{inner: dht.NewLocal(), remaining: 1 << 30}
		ix, err := New(f, Config{SplitThreshold: 4, MergeThreshold: 3, Depth: 16})
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, ix, false)
		return 1<<30 - f.remaining
	}()
	if healthyOps < 50 {
		t.Fatalf("workload too small: %d ops", healthyOps)
	}

	for cut := 2; cut < healthyOps; cut += 7 {
		f := &faultDHT{inner: dht.NewLocal(), remaining: cut}
		ix, err := New(f, Config{SplitThreshold: 4, MergeThreshold: 3, Depth: 16})
		if err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("cut %d: New failed with %v", cut, err)
			}
			continue
		}
		err = func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return runWorkloadErr(ix)
		}()
		if !f.tripped {
			continue // the fault never fired (workload variance)
		}
		if err == nil {
			t.Fatalf("cut %d: injected failure was swallowed", cut)
		}
		if !errors.Is(err, errInjected) {
			// The engine may legitimately wrap the failure in its own
			// error, but the chain must preserve the cause.
			t.Fatalf("cut %d: error chain lost the cause: %v", cut, err)
		}
	}
}

// TestChordFailMidRangeQuery drives a real (simulated) Chord substrate:
// after the index is built, the node holding one of the leaf buckets
// fails abruptly, and the next range query crossing that leaf must
// surface a *transient* substrate fault - retryable by a dht.Policy -
// rather than ErrKeyNotFound, a corrupt-tree report, or a panic. The
// partial cost the query did pay must remain internally consistent, and
// recovering the node must make the same query succeed again.
func TestChordFailMidRangeQuery(t *testing.T) {
	ring, err := chord.NewRing(12, chord.Config{Replicas: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(ring, Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := ix.Insert(record.Record{Key: (float64(i) + 0.5) / n}); err != nil {
			t.Fatal(err)
		}
	}
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 3 {
		t.Fatalf("want a multi-leaf tree, got %d leaves", len(leaves))
	}

	// Fail the node holding a mid-tree leaf bucket; with Replicas=1 no
	// copy survives, so the forwarding phase of a full-space range query
	// must hit the outage.
	key := leaves[len(leaves)/2].Label.Name().Key()
	ref, _, err := ring.Lookup(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	ring.Fail(ref.Addr)

	_, cost, err := ix.Range(0, 1)
	if err == nil {
		t.Fatal("range over a failed unreplicated holder succeeded")
	}
	if !dht.IsTransient(err) {
		t.Fatalf("fault not classified transient: %v", err)
	}
	if errors.Is(err, ErrKeyNotFound) || errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("node failure mislabelled as a data condition: %v", err)
	}
	if cost.Lookups < 1 {
		t.Fatalf("failed range reported no lookups: %+v", cost)
	}
	if cost.Steps > cost.Lookups {
		t.Fatalf("inconsistent cost on failure: Steps %d > Lookups %d", cost.Steps, cost.Lookups)
	}

	// The outage is transient in the full sense: recovery restores the
	// exact pre-fault result set.
	ring.Recover(ref.Addr)
	recs, _, err := ix.Range(0, 1)
	if err != nil {
		t.Fatalf("range after recovery: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("range after recovery returned %d records, want %d", len(recs), n)
	}
}

func runWorkload(t *testing.T, ix *Index, strict bool) {
	t.Helper()
	if err := runWorkloadErr(ix); err != nil && strict {
		t.Fatal(err)
	}
}

// runWorkloadErr drives a small mixed workload and returns the first
// error.
func runWorkloadErr(ix *Index) error {
	rng := rand.New(rand.NewSource(42))
	var keys []float64
	for i := 0; i < 30; i++ {
		k := rng.Float64()
		keys = append(keys, k)
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			return err
		}
	}
	if _, _, err := ix.Range(0.2, 0.8); err != nil {
		return err
	}
	if _, _, err := ix.Min(); err != nil {
		return err
	}
	if _, _, err := ix.Max(); err != nil {
		return err
	}
	if _, _, err := ix.Scan(0.1, 10); err != nil {
		return err
	}
	for _, k := range keys[:10] {
		if _, err := ix.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// TestSortedInsertion is the adversarial insertion order: fully sorted
// keys sweep through the tree's leftmost frontier, repeatedly producing
// one-sided splits (the no-cascading rule of section 5 means each insert
// splits at most once, so the shape - unlike the intervals - can differ
// from a shuffled load's). Both orders must still produce a valid tree
// holding exactly the same records.
func TestSortedInsertion(t *testing.T) {
	build := func(perm []int) *Index {
		ix, err := New(dht.NewLocal(), Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range perm {
			k := (float64(i) + 0.5) / 1000
			if _, err := ix.Insert(record.Record{Key: k}); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	sorted := make([]int, 1000)
	for i := range sorted {
		sorted[i] = i
	}
	shuffled := make([]int, 1000)
	copy(shuffled, sorted)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	a, b := build(sorted), build(shuffled)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	na, err := a.Count()
	if err != nil || na != 1000 {
		t.Fatalf("sorted Count = %d, %v", na, err)
	}
	nb, err := b.Count()
	if err != nil || nb != 1000 {
		t.Fatalf("shuffled Count = %d, %v", nb, err)
	}
	// Every record is findable in both, and the range results agree.
	for i := 0; i < 1000; i += 37 {
		k := (float64(i) + 0.5) / 1000
		if _, _, err := a.Search(k); err != nil {
			t.Fatalf("sorted Search(%v): %v", k, err)
		}
		if _, _, err := b.Search(k); err != nil {
			t.Fatalf("shuffled Search(%v): %v", k, err)
		}
	}
	ra, _, err := a.Range(0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := b.Range(0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) || len(ra) != 500 {
		t.Fatalf("range sizes differ: sorted %d, shuffled %d, want 500", len(ra), len(rb))
	}
}
