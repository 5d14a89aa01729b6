package lht

import (
	"errors"
	"math/rand"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

func TestLeafCacheLRU(t *testing.T) {
	c := newLeafCache(2)
	a := bitlabel.MustParse("#00")
	b := bitlabel.MustParse("#01")
	d := bitlabel.MustParse("#010")
	c.note(a)
	c.note(b)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Touch a so b becomes the LRU victim.
	mu := bitlabel.MustParse("#0000")
	if got, ok := c.find(mu); !ok || got != a {
		t.Fatalf("find(%s) = %s, %v", mu, got, ok)
	}
	c.note(d) // evicts b
	if c.len() != 2 {
		t.Fatalf("len after evict = %d, want 2", c.len())
	}
	if _, ok := c.find(bitlabel.MustParse("#0111")); ok {
		t.Fatal("evicted entry still found")
	}
	// Deepest prefix wins: both #01 (gone) and #010 cover #0100...; only
	// #010 is cached now.
	if got, ok := c.find(bitlabel.MustParse("#0100")); !ok || got != d {
		t.Fatalf("find deepest = %s, %v, want %s", got, ok, d)
	}
	c.drop(d)
	if _, ok := c.find(bitlabel.MustParse("#0100")); ok {
		t.Fatal("dropped entry still found")
	}
	// The virtual root is never cached.
	c.note(bitlabel.Root)
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 (root must not be cached)", c.len())
	}
}

func TestLeafCacheFindPrefersDeepest(t *testing.T) {
	c := newLeafCache(8)
	parent := bitlabel.MustParse("#01")
	child := bitlabel.MustParse("#011")
	c.note(parent)
	c.note(child)
	// A key under #011 must resolve to the deeper (fresher) leaf even
	// though the stale parent is also cached.
	if got, ok := c.find(bitlabel.MustParse("#01100")); !ok || got != child {
		t.Fatalf("find = %s, %v, want %s", got, ok, child)
	}
	// A key under #010 is covered only by the parent.
	if got, ok := c.find(bitlabel.MustParse("#01011")); !ok || got != parent {
		t.Fatalf("find = %s, %v, want %s", got, ok, parent)
	}
}

// TestCachedLookupEquivalence drives one substrate through a cached and
// an uncached client and checks every query answer is identical — the
// soundness contract: the cache may only change cost, never results.
func TestCachedLookupEquivalence(t *testing.T) {
	d := dht.NewLocal()
	base := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20}
	cached := base
	cached.LeafCache = true
	cached.LeafCacheSize = 64
	cix, err := New(d, cached)
	if err != nil {
		t.Fatal(err)
	}
	uix, err := New(d, base)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	var keys []float64
	for i := 0; i < 1200; i++ {
		switch {
		case len(keys) > 0 && rng.Intn(4) == 0:
			j := rng.Intn(len(keys))
			k := keys[j]
			if _, err := cix.Delete(k); err != nil {
				t.Fatalf("Delete(%v): %v", k, err)
			}
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		default:
			k := rng.Float64()
			if _, err := cix.Insert(record.Record{Key: k, Value: []byte("v")}); err != nil {
				t.Fatalf("Insert(%v): %v", k, err)
			}
			keys = append(keys, k)
		}
		// Every few operations, compare answers for a present key, an
		// absent key, and a range.
		if i%7 != 0 {
			continue
		}
		probe := rng.Float64()
		if len(keys) > 0 && rng.Intn(2) == 0 {
			probe = keys[rng.Intn(len(keys))]
		}
		cr, _, cerr := cix.Search(probe)
		ur, _, uerr := uix.Search(probe)
		if (cerr == nil) != (uerr == nil) || cr.Key != ur.Key {
			t.Fatalf("Search(%v): cached (%v, %v) vs uncached (%v, %v)", probe, cr, cerr, ur, uerr)
		}
		if cerr != nil && !errors.Is(cerr, ErrKeyNotFound) {
			t.Fatalf("Search(%v): %v", probe, cerr)
		}
		lo := rng.Float64() * 0.9
		crecs, _, cerr := cix.Range(lo, lo+0.1)
		urecs, _, uerr := uix.Range(lo, lo+0.1)
		if cerr != nil || uerr != nil || len(crecs) != len(urecs) {
			t.Fatalf("Range: cached (%d, %v) vs uncached (%d, %v)", len(crecs), cerr, len(urecs), uerr)
		}
	}
	if err := cix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := cix.Metrics()
	if s.Cache.Hits == 0 {
		t.Error("no cache hits over 1200 operations")
	}
	if s.Cache.Hits+s.Cache.Misses+s.Cache.Stale == 0 {
		t.Error("cache counters never ticked")
	}
}

// TestCachedLookupHitCost pins the fast path: once a leaf is cached, an
// exact-match lookup for any key in its interval costs exactly one
// DHT-get.
func TestCachedLookupHitCost(t *testing.T) {
	cfg := Config{SplitThreshold: 8, Depth: 20, LeafCache: true}
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	keys := make([]float64, 300)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: one search per key populates every touched leaf.
	for _, k := range keys {
		if _, _, err := ix.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Metrics()
	for _, k := range keys {
		_, cost, err := ix.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Lookups != 1 || cost.Steps != 1 {
			t.Fatalf("warm Search(%v) cost %+v, want 1 lookup / 1 step", k, cost)
		}
	}
	diff := ix.Metrics().Sub(before)
	if diff.Cache.Hits != int64(len(keys)) || diff.Cache.Misses != 0 || diff.Cache.Stale != 0 {
		t.Fatalf("counters after warm reads: %+v", diff)
	}
}

// TestCacheAcceptance pins the PR's headline number: a read-heavy
// workload (theta=100, D=20, >=10k records, 95/5 read/write) must
// average at most 1.5 DHT-lookups per exact-match query with the cache
// on (the uncached binary search pays ~log2(D) ~ 4-5).
func TestCacheAcceptance(t *testing.T) {
	cfg := Config{SplitThreshold: 100, MergeThreshold: 50, Depth: 20, LeafCache: true}
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	keys := make([]float64, 0, 12000)
	for len(keys) < 12000 {
		k := rng.Float64()
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}

	var readLookups, reads int
	for op := 0; op < 8000; op++ {
		if rng.Intn(100) < 95 {
			_, cost, err := ix.Search(keys[rng.Intn(len(keys))])
			if err != nil {
				t.Fatal(err)
			}
			readLookups += cost.Lookups
			reads++
			continue
		}
		// 5% writes: alternate churn so splits and merges both happen
		// behind live cache entries.
		if op%2 == 0 {
			k := rng.Float64()
			if _, err := ix.Insert(record.Record{Key: k}); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		} else {
			j := rng.Intn(len(keys))
			if _, err := ix.Delete(keys[j]); err != nil {
				t.Fatal(err)
			}
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
	}
	mean := float64(readLookups) / float64(reads)
	if mean > 1.5 {
		t.Fatalf("mean DHT-lookups per cached exact-match query = %.3f, want <= 1.5", mean)
	}
	t.Logf("mean lookups/query = %.3f over %d reads (cache: %+v)", mean, reads, ix.Metrics().Cache)
}

// TestCacheTinyCapacity checks correctness is independent of capacity:
// with room for only two labels the cache thrashes but answers stay
// right and the entry count stays bounded.
func TestCacheTinyCapacity(t *testing.T) {
	cfg := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20, LeafCache: true, LeafCacheSize: 2}
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	oracle := map[float64]bool{}
	for i := 0; i < 600; i++ {
		k := rng.Float64()
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
		oracle[k] = true
		if ix.cache.len() > 2 {
			t.Fatalf("cache holds %d entries, capacity 2", ix.cache.len())
		}
	}
	for k := range oracle {
		if _, _, err := ix.Search(k); err != nil {
			t.Fatalf("Search(%v): %v", k, err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigLeafCacheValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafCache = true
	cfg.LeafCacheSize = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative LeafCacheSize must be rejected")
	}
	cfg.LeafCacheSize = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.leafCacheSize(); got != DefaultLeafCacheSize {
		t.Fatalf("leafCacheSize() = %d, want default %d", got, DefaultLeafCacheSize)
	}
}
