package dst

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

func newTestIndex(t *testing.T, cfg Config) *Index {
	t.Helper()
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(dht.NewLocal(), Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero config = %v", err)
	}
	if _, err := New(dht.NewLocal(), Config{SaturationThreshold: 8, Depth: 70}); !errors.Is(err, ErrConfig) {
		t.Fatalf("deep config = %v", err)
	}
}

func TestInsertSearchDelete(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 8, Depth: 20})
	keys := []float64{0.1, 0.9, 0.5, 0.25, 0.75}
	for i, k := range keys {
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		r, _, err := ix.Search(k)
		if err != nil || r.Value[0] != byte(i) {
			t.Fatalf("Search(%v) = %v, %v", k, r, err)
		}
	}
	if _, _, err := ix.Search(0.42); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Search absent = %v", err)
	}
	// Replace semantics.
	if _, err := ix.Insert(record.Record{Key: 0.5, Value: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if r, _, _ := ix.Search(0.5); string(r.Value) != "new" {
		t.Fatal("replace failed")
	}
	if n, err := ix.Count(); err != nil || n != len(keys) {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if _, err := ix.Delete(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(0.5); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Delete absent = %v", err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationInvariants(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 8, Depth: 20})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if n, err := ix.Count(); err != nil || n != 1500 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	// The root must have saturated long ago at capacity 8.
	s := ix.Metrics()
	if s.Lookup.Splits == 0 {
		t.Fatal("no saturation events")
	}
}

func TestRangeOracle(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 8, Depth: 20})
	rng := rand.New(rand.NewSource(2))
	oracle := make(map[float64]bool)
	for i := 0; i < 2000; i++ {
		k := rng.Float64()
		if rng.Intn(5) == 0 && len(oracle) > 0 {
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
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
		oracle[k] = true
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var want []float64
	for k := range oracle {
		want = append(want, k)
	}
	sort.Float64s(want)
	for trial := 0; trial < 60; trial++ {
		lo := rng.Float64()
		hi := lo + rng.Float64()*(1-lo)
		if hi <= lo {
			continue
		}
		got, cost, err := ix.Range(lo, hi)
		if err != nil {
			t.Fatalf("Range(%v, %v): %v", lo, hi, err)
		}
		gotKeys := make([]float64, len(got))
		for i, r := range got {
			gotKeys[i] = r.Key
		}
		sort.Float64s(gotKeys)
		var wantIn []float64
		for _, k := range want {
			if k >= lo && k < hi {
				wantIn = append(wantIn, k)
			}
		}
		if len(gotKeys) != len(wantIn) {
			t.Fatalf("Range(%v, %v) = %d records, want %d", lo, hi, len(gotKeys), len(wantIn))
		}
		for i := range wantIn {
			if gotKeys[i] != wantIn[i] {
				t.Fatalf("Range key %d = %v, want %v", i, gotKeys[i], wantIn[i])
			}
		}
		if cost.Steps > cost.Lookups {
			t.Fatalf("Steps %d > Lookups %d", cost.Steps, cost.Lookups)
		}
	}
	// Full-space range.
	got, _, err := ix.Range(0, 1)
	if err != nil || len(got) != len(want) {
		t.Fatalf("Range(0,1) = %d, %v; want %d", len(got), err, len(want))
	}
}

// TestInsertCostIsDepth pins the paper's criticism: DST insertion pays
// one DHT-lookup per tree level - D per insert, an order of magnitude
// above LHT's lookup + 1 at D = 24 - though in a single parallel round.
func TestInsertCostIsDepth(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 8, Depth: 24})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		c, err := ix.Insert(record.Record{Key: rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		if c.Lookups != 24 {
			t.Fatalf("insert cost = %d lookups, want D = 24", c.Lookups)
		}
		if c.Steps != 1 {
			t.Fatalf("insert steps = %d, want 1 (parallel stores)", c.Steps)
		}
	}
}

// TestSearchIsOneLookup pins the flip side: exact-match queries probe the
// depth-D ground-truth node directly.
func TestSearchIsOneLookup(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 8, Depth: 20})
	rng := rand.New(rand.NewSource(5))
	keys := make([]float64, 500)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:50] {
		_, cost, err := ix.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Lookups != 1 {
			t.Fatalf("Search cost = %d, want 1", cost.Lookups)
		}
	}
}

// TestRangeLatencyLowWhenUnsaturated: segment-aligned queries on a tree
// whose canonical nodes still hold replicas answer in few parallel steps.
func TestRangeLatencyLowWhenUnsaturated(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 100, Depth: 20})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	_, cost, err := ix.Range(0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Steps > 6 {
		t.Errorf("range steps = %d; DST's parallel segments should stay shallow", cost.Steps)
	}
}

func TestRangeRejectsBadBounds(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 8, Depth: 20})
	for _, b := range [][2]float64{{0.5, 0.5}, {0.6, 0.5}, {-0.1, 0.5}, {0, 1.1}} {
		if _, _, err := ix.Range(b[0], b[1]); err == nil {
			t.Errorf("Range(%v) should fail", b)
		}
	}
}

func TestAttachExisting(t *testing.T) {
	d := dht.NewLocal()
	ix, err := New(d, Config{SaturationThreshold: 8, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(record.Record{Key: 0.5, Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	ix2, err := New(d, Config{SaturationThreshold: 8, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r, _, err := ix2.Search(0.5); err != nil || string(r.Value) != "x" {
		t.Fatalf("attach lost data: %v, %v", r, err)
	}
}

func TestCanonicalSegments(t *testing.T) {
	ix := newTestIndex(t, Config{SaturationThreshold: 8, Depth: 20})
	_ = ix
	// [0.25, 0.75) decomposes into exactly #001 and #010.
	segs := canonicalSegments(keyspace.Interval{Lo: 0.25, Hi: 0.75}, 20)
	if len(segs) != 2 || segs[0].String() != "#001" || segs[1].String() != "#010" {
		t.Fatalf("segments = %v", segs)
	}
	// The whole space is one segment: the root.
	segs = canonicalSegments(keyspace.Interval{Lo: 0, Hi: 1}, 20)
	if len(segs) != 1 || segs[0].String() != "#0" {
		t.Fatalf("segments = %v", segs)
	}
	// Segment count stays bounded by ~2 per level.
	segs = canonicalSegments(keyspace.Interval{Lo: 0.1000001, Hi: 0.8999999}, 20)
	if len(segs) > 40 {
		t.Fatalf("%d segments for a 20-deep decomposition", len(segs))
	}
}
