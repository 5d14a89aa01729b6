package lht

import (
	"errors"
	"math/rand"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// TestMultipleClientsShareOneTree verifies the over-DHT property from the
// client side: several Index instances attached to the same substrate see
// one consistent tree, because all state lives in the DHT (the clients
// hold only configuration and counters). Writes are serialized, as the
// concurrency contract requires.
func TestMultipleClientsShareOneTree(t *testing.T) {
	d := dht.NewLocal()
	cfg := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20}
	clients := make([]*Index, 3)
	for i := range clients {
		ix, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = ix
	}

	rng := rand.New(rand.NewSource(91))
	oracle := make(map[float64]bool)
	for i := 0; i < 1500; i++ {
		writer := clients[i%len(clients)]
		k := rng.Float64()
		if rng.Intn(4) == 0 && len(oracle) > 0 {
			for dk := range oracle {
				k = dk
				break
			}
			if _, err := writer.Delete(k); err != nil {
				t.Fatalf("client %d Delete(%v): %v", i%3, k, err)
			}
			delete(oracle, k)
			continue
		}
		if _, err := writer.Insert(record.Record{Key: k}); err != nil {
			t.Fatalf("client %d Insert(%v): %v", i%3, k, err)
		}
		oracle[k] = true
	}

	// Every client answers identically.
	for ci, ix := range clients {
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("client %d: %v", ci, err)
		}
		n, err := ix.Count()
		if err != nil || n != len(oracle) {
			t.Fatalf("client %d Count = %d, %v; want %d", ci, n, err, len(oracle))
		}
		for k := range oracle {
			if _, _, err := ix.Search(k); err != nil {
				t.Fatalf("client %d Search(%v): %v", ci, k, err)
			}
		}
	}

	// Split statistics are per client: the sum of splits across clients
	// equals the tree's growth, since every split happened through
	// exactly one of them.
	var totalSplits int64
	for _, ix := range clients {
		totalSplits += ix.Metrics().Lookup.Splits
	}
	leaves, err := clients[0].Leaves()
	if err != nil {
		t.Fatal(err)
	}
	var totalMerges int64
	for _, ix := range clients {
		totalMerges += ix.Metrics().Lookup.Merges
	}
	// leaves = 1 + splits - merges (each split adds one leaf, each merge
	// removes one).
	if int64(len(leaves)) != 1+totalSplits-totalMerges {
		t.Fatalf("leaves = %d, want 1 + %d splits - %d merges", len(leaves), totalSplits, totalMerges)
	}
}

// TestLeafCacheStalenessAcrossClients churns the tree behind a cached
// client's back: client B splits and merges leaves that client A has
// cached, and A's queries must still return exactly the right answers —
// the stale entries are detected (the counter ticks) and repaired, never
// served.
func TestLeafCacheStalenessAcrossClients(t *testing.T) {
	d := dht.NewLocal()
	cfg := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20}
	cachedCfg := cfg
	cachedCfg.LeafCache = true
	a, err := New(d, cachedCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	keys := make([]float64, 400)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := b.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm A's cache over every leaf.
	for _, k := range keys {
		if _, _, err := a.Search(k); err != nil {
			t.Fatalf("warm Search(%v): %v", k, err)
		}
	}

	// B grows the tree behind A's cache: a burst of inserts forces
	// splits, so many of A's entries now name internal nodes.
	grown := make([]float64, 600)
	for i := range grown {
		grown[i] = rng.Float64()
		if _, err := b.Insert(record.Record{Key: grown[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range append(append([]float64{}, keys...), grown...) {
		if _, _, err := a.Search(k); err != nil {
			t.Fatalf("Search(%v) after B's splits: %v", k, err)
		}
	}
	afterSplits := a.Metrics()
	if afterSplits.Cache.Stale == 0 {
		t.Error("no stale probes detected although B split leaves behind A's cache")
	}

	// B shrinks the tree: deleting the grown burst (and some originals)
	// forces merges, so A's deeper entries name vanished leaves.
	for _, k := range grown {
		if _, err := b.Delete(k); err != nil {
			t.Fatalf("Delete(%v): %v", k, err)
		}
	}
	if b.Metrics().Lookup.Merges == 0 {
		t.Fatal("workload produced no merges; staleness-after-merge is untested")
	}
	for _, k := range keys {
		rec, _, err := a.Search(k)
		if err != nil || rec.Key != k {
			t.Fatalf("Search(%v) after B's merges = %v, %v", k, rec, err)
		}
	}
	for _, k := range grown {
		if _, _, err := a.Search(k); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("Search(%v) of deleted key = %v, want ErrKeyNotFound", k, err)
		}
	}
	if s := a.Metrics(); s.Cache.Stale <= afterSplits.Cache.Stale {
		t.Errorf("stale counter did not tick for merges: %d -> %d", afterSplits.Cache.Stale, s.Cache.Stale)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
