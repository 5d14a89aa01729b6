package rst

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

func intervalOf(l bitlabel.Label) keyspace.Interval { return keyspace.IntervalOf(l) }

func newTestIndex(t *testing.T, cfg Config) *Index {
	t.Helper()
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func smallConfig() Config {
	return Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20, Peers: 20}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SplitThreshold: 8, Depth: 20, Peers: 0},
		{SplitThreshold: 8, Depth: 70, Peers: 1},
		{SplitThreshold: 8, MergeThreshold: 9, Depth: 20, Peers: 1},
	}
	for _, cfg := range bad {
		if _, err := New(dht.NewLocal(), cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("New(%+v) = %v, want ErrConfig", cfg, err)
		}
	}
}

func TestOracleOps(t *testing.T) {
	ix := newTestIndex(t, smallConfig())
	oracle := make(map[float64]string)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		k := rng.Float64()
		if rng.Intn(4) == 0 && len(oracle) > 0 {
			for dk := range oracle {
				k = dk
				break
			}
			if _, err := ix.Delete(k); err != nil {
				t.Fatalf("Delete(%v): %v", k, err)
			}
			delete(oracle, k)
			continue
		}
		v := string(rune('a' + i%26))
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte(v)}); err != nil {
			t.Fatalf("Insert(%v): %v", k, err)
		}
		oracle[k] = v
		if i%1000 == 999 {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range oracle {
		rec, _, err := ix.Search(k)
		if err != nil || string(rec.Value) != v {
			t.Fatalf("Search(%v) = %v, %v; want %q", k, rec, err, v)
		}
	}
	if _, _, err := ix.Search(0.123456789); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Search absent = %v", err)
	}
	if n, err := ix.Count(); err != nil || n != len(oracle) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(oracle))
	}
	// Range against the oracle.
	var keys []float64
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64()
		hi := lo + rng.Float64()*(1-lo)
		if hi <= lo {
			continue
		}
		got, cost, err := ix.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, k := range keys {
			if k >= lo && k < hi {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("Range(%v, %v) = %d records, want %d", lo, hi, len(got), want)
		}
		if cost.Steps > 1 {
			t.Fatalf("RST range latency = %d steps, want 1 (all buckets known locally)", cost.Steps)
		}
	}
}

// TestOneHopQueries pins RST's selling point: exact-match is one lookup,
// a range of B buckets is exactly B lookups in one step.
func TestOneHopQueries(t *testing.T) {
	ix := newTestIndex(t, smallConfig())
	rng := rand.New(rand.NewSource(2))
	keys := make([]float64, 400)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:40] {
		_, cost, err := ix.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Lookups != 1 {
			t.Fatalf("Search cost = %d, want 1 (one-hop exact match)", cost.Lookups)
		}
	}
	leaves := ix.Leaves()
	_, cost, err := ix.Range(0.2, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b := 0
	for _, l := range leaves {
		iv := intervalOf(l)
		if iv.Lo < 0.7 && iv.Hi > 0.2 {
			b++
		}
	}
	if cost.Lookups != b {
		t.Fatalf("Range cost = %d lookups for B=%d buckets; RST is exactly optimal", cost.Lookups, b)
	}
}

// TestBroadcastCostScalesWithPeers pins the paper's criticism: the same
// insert workload costs more maintenance on a larger network, because
// every split broadcasts the new tree shape to every peer.
func TestBroadcastCostScalesWithPeers(t *testing.T) {
	maintAt := func(peers int) int64 {
		cfg := Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20, Peers: peers}
		ix := newTestIndex(t, cfg)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		return ix.Metrics().Lookup.Maintenance
	}
	small := maintAt(10)
	large := maintAt(1000)
	if large < 10*small {
		t.Errorf("maintenance should scale with peers: P=10 -> %d, P=1000 -> %d", small, large)
	}
}

// TestAttachRebuildsShape verifies a second client can join an existing
// tree and serve queries.
func TestAttachRebuildsShape(t *testing.T) {
	d := dht.NewLocal()
	ix, err := New(d, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	keys := make([]float64, 200)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	ix2, err := New(d, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:20] {
		if _, _, err := ix2.Search(k); err != nil {
			t.Fatalf("attached client Search(%v): %v", k, err)
		}
	}
	if len(ix2.Leaves()) != len(ix.Leaves()) {
		t.Fatalf("rebuilt shape has %d leaves, original %d", len(ix2.Leaves()), len(ix.Leaves()))
	}
}

func TestRangeRejectsBadBounds(t *testing.T) {
	ix := newTestIndex(t, smallConfig())
	for _, b := range [][2]float64{{0.5, 0.5}, {0.6, 0.5}, {-0.1, 0.5}, {0, 1.1}} {
		if _, _, err := ix.Range(b[0], b[1]); err == nil {
			t.Errorf("Range(%v) should fail", b)
		}
	}
}

func TestMergesKeepShapeConsistent(t *testing.T) {
	ix := newTestIndex(t, smallConfig())
	rng := rand.New(rand.NewSource(5))
	keys := make([]float64, 300)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if _, err := ix.Delete(k); err != nil {
			t.Fatalf("Delete(%v): %v", k, err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := ix.Metrics(); s.Lookup.Merges == 0 {
		t.Error("expected merges")
	}
	if n, _ := ix.Count(); n != 0 {
		t.Fatalf("Count = %d", n)
	}
}
