package lht

import (
	"errors"
	"math/rand"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// TestLinearLookupAgreesWithBinary checks the ablation strategy against
// Algorithm 2 on the same tree: same buckets found, never cheaper than
// one probe, no failed gets (the linear walk only touches existing
// names).
func TestLinearLookupAgreesWithBinary(t *testing.T) {
	ix, err := New(dht.NewLocal(), Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(111))
	for i := 0; i < 3000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Metrics()
	for i := 0; i < 300; i++ {
		q := rng.Float64()
		bb, _, err := ix.LookupBucket(q)
		if err != nil {
			t.Fatal(err)
		}
		lb, cost, err := ix.LookupBucketLinear(q)
		if err != nil {
			t.Fatal(err)
		}
		if bb.Label != lb.Label {
			t.Fatalf("lookup(%v): binary %s vs linear %s", q, bb.Label, lb.Label)
		}
		if cost.Lookups < 1 || cost.Steps != cost.Lookups {
			t.Fatalf("linear cost %+v", cost)
		}
	}
	diff := ix.Metrics().Sub(before)
	// The binary search misses; the linear walk never does. With 300 of
	// each, failed gets must come only from the binary side.
	if diff.Lookup.FailedGets == 0 {
		t.Error("binary search should have produced some failed gets")
	}

	// SearchLinear end to end.
	rng = rand.New(rand.NewSource(111))
	k := rng.Float64()
	rec, _, err := ix.SearchLinear(k)
	if err != nil || rec.Key != k {
		t.Fatalf("SearchLinear = %v, %v", rec, err)
	}
	if _, _, err := ix.SearchLinear(0.987654321); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("SearchLinear absent = %v", err)
	}
	if _, _, err := ix.SearchLinear(1.5); err == nil {
		t.Fatal("SearchLinear out of domain should fail")
	}
}

func TestSmallHelpers(t *testing.T) {
	ix, err := New(dht.NewLocal(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Config().SplitThreshold != 100 {
		t.Error("Config accessor broken")
	}
	b := &Bucket{Label: mustLabel(t, "#01"), Records: []record.Record{{Key: 0.6}}}
	if got := b.String(); got != "bucket(#01, 1 records)" {
		t.Errorf("String = %q", got)
	}
}
