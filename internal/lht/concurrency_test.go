package lht

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// TestConcurrentReaders backs the documented concurrency contract: any
// number of query operations may run in parallel (run with -race), with
// and without the leaf cache (whose LRU is shared mutable state all
// readers touch).
func TestConcurrentReaders(t *testing.T) {
	t.Run("uncached", func(t *testing.T) {
		testConcurrentReaders(t, dht.NewLocal(), Config{SplitThreshold: 16, MergeThreshold: 8, Depth: 20})
	})
	t.Run("cached", func(t *testing.T) {
		testConcurrentReaders(t, dht.NewLocal(), Config{SplitThreshold: 16, MergeThreshold: 8, Depth: 20,
			LeafCache: true, LeafCacheSize: 32})
	})
	// Over tcpnet a range round's multi-get reaches its owners in
	// parallel round trips, on top of the inter-query concurrency; with
	// the cache on, every slot of every round notes its leaf in the
	// shared LRU.
	t.Run("cached-parallel", func(t *testing.T) {
		client, _ := startProbeCluster(t, 3)
		testConcurrentReaders(t, client, Config{SplitThreshold: 16, MergeThreshold: 8, Depth: 20,
			LeafCache: true, LeafCacheSize: 32})
	})
}

func testConcurrentReaders(t *testing.T, d dht.DHT, cfg Config) {
	ix, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	keys := make([]float64, 2000)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				switch i % 5 {
				case 0:
					k := keys[rng.Intn(len(keys))]
					if _, _, err := ix.Search(k); err != nil {
						t.Errorf("Search(%v): %v", k, err)
						return
					}
				case 1:
					lo := rng.Float64() * 0.9
					if _, _, err := ix.Range(lo, lo+0.05); err != nil {
						t.Errorf("Range: %v", err)
						return
					}
				case 2:
					if _, _, err := ix.Min(); err != nil {
						t.Errorf("Min: %v", err)
						return
					}
				case 3:
					if _, _, err := ix.Max(); err != nil {
						t.Errorf("Max: %v", err)
						return
					}
				default:
					if _, _, err := ix.Scan(rng.Float64(), 20); err != nil {
						t.Errorf("Scan: %v", err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestScrubConcurrentWithReaders backs Scrub's documented concurrency
// position: over a consistent tree it performs no writes, so it may run
// alongside any number of queries (run with -race). The cached variant
// additionally races the scrub's bucket fetches against the shared LRU.
func TestScrubConcurrentWithReaders(t *testing.T) {
	for _, cfg := range []Config{
		{SplitThreshold: 16, MergeThreshold: 8, Depth: 20},
		{SplitThreshold: 16, MergeThreshold: 8, Depth: 20, LeafCache: true, LeafCacheSize: 32},
	} {
		name := "uncached"
		if cfg.LeafCache {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			ix, err := New(dht.NewLocal(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(72))
			keys := make([]float64, 1000)
			for i := range keys {
				keys[i] = rng.Float64()
				if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 200; i++ {
						k := keys[rng.Intn(len(keys))]
						if _, _, err := ix.Search(k); err != nil {
							t.Errorf("Search(%v): %v", k, err)
							return
						}
					}
				}(int64(g))
			}
			for s := 0; s < 3; s++ {
				rep, err := ix.Scrub(context.Background())
				if err != nil {
					t.Fatalf("Scrub: %v\n%s", err, rep)
				}
				if !rep.Clean() {
					t.Fatalf("Scrub of consistent tree not clean:\n%s", rep)
				}
			}
			wg.Wait()
		})
	}
}
