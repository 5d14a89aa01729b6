package lht

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

func newTestIndex(t *testing.T, cfg Config) (*Index, *dht.Local) {
	t.Helper()
	d := dht.NewLocal()
	ix, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix, d
}

func smallConfig() Config {
	return Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(dht.NewLocal(), Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("New with zero config = %v, want ErrConfig", err)
	}
	bad := []Config{
		{SplitThreshold: 2, MergeThreshold: 1, Depth: 20},
		{SplitThreshold: 100, MergeThreshold: 200, Depth: 20},
		{SplitThreshold: 100, MergeThreshold: -1, Depth: 20},
		{SplitThreshold: 100, MergeThreshold: 50, Depth: 1},
		{SplitThreshold: 100, MergeThreshold: 50, Depth: 63},
	}
	for _, cfg := range bad {
		if _, err := New(dht.NewLocal(), cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("New(%+v) = %v, want ErrConfig", cfg, err)
		}
	}
}

func TestBootstrap(t *testing.T) {
	ix, d := newTestIndex(t, DefaultConfig())
	v, err := d.Get(context.Background(), "#")
	if err != nil {
		t.Fatalf("bootstrap bucket missing: %v", err)
	}
	b := v.(*Bucket)
	if b.Label.String() != "#0" || len(b.Records) != 0 {
		t.Fatalf("bootstrap bucket = %v", b)
	}
	if _, _, err := ix.Min(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Min on empty = %v, want ErrEmpty", err)
	}
	if _, _, err := ix.Max(); !errors.Is(err, ErrEmpty) {
		t.Errorf("Max on empty = %v, want ErrEmpty", err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A second client attaching to the same substrate must not reset it.
	if _, err := ix.Insert(record.Record{Key: 0.5}); err != nil {
		t.Fatal(err)
	}
	ix2, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix2.Search(0.5); err != nil {
		t.Fatalf("second client lost data: %v", err)
	}
}

func TestInsertSearchDelete(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	keys := []float64{0.1, 0.9, 0.5, 0.25, 0.75, 0.3333}
	for i, k := range keys {
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte{byte(i)}}); err != nil {
			t.Fatalf("Insert(%v): %v", k, err)
		}
	}
	for i, k := range keys {
		r, cost, err := ix.Search(k)
		if err != nil {
			t.Fatalf("Search(%v): %v", k, err)
		}
		if r.Key != k || r.Value[0] != byte(i) {
			t.Fatalf("Search(%v) = %v", k, r)
		}
		if cost.Lookups < 1 {
			t.Fatalf("Search cost %+v", cost)
		}
	}
	if _, _, err := ix.Search(0.123456); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Search absent = %v", err)
	}
	if _, err := ix.Delete(0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(0.5); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("deleted key still found")
	}
	if _, err := ix.Delete(0.5); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Delete absent = %v", err)
	}
	if n, err := ix.Count(); err != nil || n != len(keys)-1 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestInsertReplacesSameKey(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	if _, err := ix.Insert(record.Record{Key: 0.4, Value: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(record.Record{Key: 0.4, Value: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	r, _, err := ix.Search(0.4)
	if err != nil || string(r.Value) != "new" {
		t.Fatalf("Search = %v, %v", r, err)
	}
	if n, _ := ix.Count(); n != 1 {
		t.Fatalf("Count = %d, want 1 (replace, not duplicate)", n)
	}
}

func TestInsertRejectsBadKey(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	for _, k := range []float64{-0.5, 1.0, 2.5} {
		if _, err := ix.Insert(record.Record{Key: k}); err == nil {
			t.Errorf("Insert(%v) should fail", k)
		}
	}
}

// TestSplitKeepsOneHalfLocal verifies the engine realizes Theorem 2: after
// a split, the bucket stored under the original DHT key is one of the two
// halves (it never moved), and the other half sits under the old label.
func TestSplitKeepsOneHalfLocal(t *testing.T) {
	ix, d := newTestIndex(t, smallConfig())
	// Fill the root leaf to the threshold: weight > 8 at 8 records.
	for i := 0; i < 8; i++ {
		if _, err := ix.Insert(record.Record{Key: float64(i) / 8}); err != nil {
			t.Fatal(err)
		}
	}
	s := ix.Metrics()
	if s.Lookup.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", s.Lookup.Splits)
	}
	// The original leaf #0 was stored under "#". After splitting, #00
	// stays under "#" (f_n(#00) = #) and #01 is pushed to key "#0".
	v, err := d.Get(context.Background(), "#")
	if err != nil {
		t.Fatal(err)
	}
	local := v.(*Bucket)
	if local.Label.String() != "#00" {
		t.Fatalf("local half = %s, want #00", local.Label)
	}
	v, err = d.Get(context.Background(), "#0")
	if err != nil {
		t.Fatal(err)
	}
	remote := v.(*Bucket)
	if remote.Label.String() != "#01" {
		t.Fatalf("remote half = %s, want #01", remote.Label)
	}
	if len(local.Records)+len(remote.Records) != 8 {
		t.Fatalf("records lost in split: %d + %d", len(local.Records), len(remote.Records))
	}
	for _, r := range local.Records {
		if r.Key >= 0.5 {
			t.Errorf("record %v in left half", r.Key)
		}
	}
	for _, r := range remote.Records {
		if r.Key < 0.5 {
			t.Errorf("record %v in right half", r.Key)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthInvariants(t *testing.T) {
	for _, theta := range []int{8, 16, 40} {
		theta := theta
		t.Run(fmt.Sprintf("theta=%d", theta), func(t *testing.T) {
			ix, _ := newTestIndex(t, Config{SplitThreshold: theta, MergeThreshold: theta / 2, Depth: 24})
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 2000; i++ {
				if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
					t.Fatal(err)
				}
				if i%500 == 499 {
					if err := ix.CheckInvariants(); err != nil {
						t.Fatalf("after %d inserts: %v", i+1, err)
					}
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if n, err := ix.Count(); err != nil || n != 2000 {
				t.Fatalf("Count = %d, %v", n, err)
			}
			if ov := ix.Overflows(); ov != 0 {
				t.Fatalf("Overflows = %d", ov)
			}
		})
	}
}

func TestSkewedGrowthAndOverflow(t *testing.T) {
	// All keys in a tiny interval force the tree to its depth limit; the
	// engine must keep working (oversized boundary leaf) and report
	// overflows.
	ix, _ := newTestIndex(t, Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 6})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64() / 1024}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ix.Overflows() == 0 {
		t.Fatal("expected overflows at depth limit")
	}
	if n, err := ix.Count(); err != nil || n != 200 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	// Every record must still be findable.
	rng = rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		k := rng.Float64() / 1024
		if _, _, err := ix.Search(k); err != nil {
			t.Fatalf("Search(%v): %v", k, err)
		}
	}
}

func TestDeleteTriggersMerges(t *testing.T) {
	ix, _ := newTestIndex(t, Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	rng := rand.New(rand.NewSource(3))
	keys := make([]float64, 400)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete in random order and keep the structure consistent.
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		if _, err := ix.Delete(k); err != nil {
			t.Fatalf("Delete(%v): %v", k, err)
		}
		if i%100 == 99 {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if n, err := ix.Count(); err != nil || n != 0 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if s := ix.Metrics(); s.Lookup.Merges == 0 {
		t.Error("expected merges during mass deletion")
	}
	// The index must remain fully usable afterwards.
	if _, err := ix.Insert(record.Record{Key: 0.5}); err != nil {
		t.Fatal(err)
	}
	if r, _, err := ix.Min(); err != nil || r.Key != 0.5 {
		t.Fatalf("Min = %v, %v", r, err)
	}
}

func TestMergeDisabled(t *testing.T) {
	ix, _ := newTestIndex(t, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20})
	rng := rand.New(rand.NewSource(5))
	keys := make([]float64, 100)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, err := ix.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if s := ix.Metrics(); s.Lookup.Merges != 0 {
		t.Fatalf("Merges = %d with merging disabled", s.Lookup.Merges)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	rng := rand.New(rand.NewSource(6))
	lo, hi := 1.0, 0.0
	for i := 0; i < 300; i++ {
		k := rng.Float64()
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	r, cost, err := ix.Min()
	if err != nil || r.Key != lo {
		t.Fatalf("Min = %v, %v; want %v", r, err, lo)
	}
	if cost.Lookups != 1 {
		t.Errorf("Min cost = %+v, want 1 lookup (Theorem 3)", cost)
	}
	r, cost, err = ix.Max()
	if err != nil || r.Key != hi {
		t.Fatalf("Max = %v, %v; want %v", r, err, hi)
	}
	if cost.Lookups != 1 {
		t.Errorf("Max cost = %+v, want 1 lookup (Theorem 3)", cost)
	}
}

func TestMinMaxSingleLeafTree(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	if _, err := ix.Insert(record.Record{Key: 0.7}); err != nil {
		t.Fatal(err)
	}
	if r, _, err := ix.Min(); err != nil || r.Key != 0.7 {
		t.Fatalf("Min = %v, %v", r, err)
	}
	r, cost, err := ix.Max()
	if err != nil || r.Key != 0.7 {
		t.Fatalf("Max = %v, %v", r, err)
	}
	// "#0" misses on the single-leaf tree, falling back to "#".
	if cost.Lookups != 2 {
		t.Errorf("Max cost on single-leaf tree = %+v, want 2 lookups", cost)
	}
}

func TestMinMaxWalksEmptyBoundaryLeaves(t *testing.T) {
	ix, _ := newTestIndex(t, Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 20})
	rng := rand.New(rand.NewSource(7))
	var keys []float64
	for i := 0; i < 64; i++ {
		k := rng.Float64()
		keys = append(keys, k)
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(keys)
	// Empty the boundary leaves by deleting extreme keys; merging is
	// disabled so the empty leaves stay.
	for _, k := range keys[:10] {
		if _, err := ix.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[len(keys)-10:] {
		if _, err := ix.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if r, _, err := ix.Min(); err != nil || r.Key != keys[10] {
		t.Fatalf("Min = %v, %v; want %v", r, err, keys[10])
	}
	if r, _, err := ix.Max(); err != nil || r.Key != keys[len(keys)-11] {
		t.Fatalf("Max = %v, %v; want %v", r, err, keys[len(keys)-11])
	}
}

func TestLookupCostBound(t *testing.T) {
	// Algorithm 2 probes at most ~log2(D) names; with D = 20 the bound is
	// 5 (the candidate name space has about D/2 = 10 elements).
	ix, _ := newTestIndex(t, DefaultConfig())
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	maxCost := 0
	for i := 0; i < 1000; i++ {
		_, cost, err := ix.LookupBucket(rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if cost.Lookups > maxCost {
			maxCost = cost.Lookups
		}
	}
	if maxCost > 6 {
		t.Errorf("lookup cost reached %d DHT-lookups; want <= 6 for D=20", maxCost)
	}
}

func TestAlphaMeanUniform(t *testing.T) {
	// Section 9.2: for uniform data the average alpha is 1/2 + 1/(2*theta).
	theta := 40
	ix, _ := newTestIndex(t, Config{SplitThreshold: theta, MergeThreshold: 0, Depth: 24})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	mean, splits := ix.AlphaMean()
	if splits == 0 {
		t.Fatal("no splits")
	}
	want := 0.5 + 1/(2*float64(theta))
	if diff := mean - want; diff < -0.02 || diff > 0.02 {
		t.Errorf("alpha mean = %v, want about %v", mean, want)
	}
}

func TestCostAccountingMatchesMetrics(t *testing.T) {
	// The per-operation Cost returned by each method must agree with the
	// global instrumented counters.
	ix, _ := newTestIndex(t, smallConfig())
	rng := rand.New(rand.NewSource(10))
	var total int64
	for i := 0; i < 500; i++ {
		cost, err := ix.Insert(record.Record{Key: rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		total += int64(cost.Lookups)
	}
	for i := 0; i < 50; i++ {
		_, cost, err := ix.Range(rng.Float64()*0.5, 0.5+rng.Float64()*0.5)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(cost.Lookups)
	}
	_, cost, err := ix.Min()
	if err != nil {
		t.Fatal(err)
	}
	total += int64(cost.Lookups)
	if s := ix.Metrics(); s.Lookup.Total != total {
		t.Fatalf("metrics lookups = %d, per-op sum = %d", s.Lookup.Total, total)
	}
}

func TestBucketEncodeDecode(t *testing.T) {
	b := &Bucket{Label: mustLabel(t, "#0101")}
	for i := 0; i < 17; i++ {
		b.Records = append(b.Records, record.Record{Key: float64(i) / 32, Value: []byte{byte(i), 0xFF}})
	}
	data, err := EncodeBucket(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBucket(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != b.Label || len(got.Records) != len(b.Records) {
		t.Fatalf("round trip: %v", got)
	}
	for i := range b.Records {
		if got.Records[i].Key != b.Records[i].Key || string(got.Records[i].Value) != string(b.Records[i].Value) {
			t.Fatalf("record %d: %v != %v", i, got.Records[i], b.Records[i])
		}
	}
	if _, err := DecodeBucket([]byte("junk")); err == nil {
		t.Error("DecodeBucket(junk) should fail")
	}
}

func TestBucketClone(t *testing.T) {
	b := &Bucket{Label: mustLabel(t, "#01"), Records: []record.Record{{Key: 0.6, Value: []byte("x")}}}
	c := b.Clone()
	c.Records[0].Key = 0.7
	c.Records = append(c.Records, record.Record{Key: 0.9})
	if b.Records[0].Key != 0.6 || len(b.Records) != 1 {
		t.Fatalf("Clone aliases the original: %v", b)
	}
	if (&Bucket{Label: b.Label}).Clone().Records != nil {
		t.Error("Clone of nil records should stay nil")
	}
	// The insert path clones, then appends one record: the clone has room.
	c = b.Clone()
	first := &c.Records[0]
	c.Records = append(c.Records, record.Record{Key: 0.9})
	if &c.Records[0] != first {
		t.Error("one append after Clone reallocated the record slice")
	}
}

// Clustered keys make every split one-sided: the heavy child keeps all
// the records and gains one per insert, so it outgrows any multiple of
// theta_split — what bounds it is theta_split plus its depth, and
// CheckInvariants holds after every insert on the way down.
func TestLeafWeightBoundIsDepthLimited(t *testing.T) {
	cfg := Config{SplitThreshold: 4, Depth: 18}
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	heaviest := 0
	for i := 0; i < 14; i++ {
		if _, err := ix.Insert(record.Record{Key: float64(i) / (1 << 17)}); err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
		leaves, err := ix.Leaves()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range leaves {
			if b.Label.Len() < cfg.Depth && b.Weight() > heaviest {
				heaviest = b.Weight()
			}
		}
	}
	if heaviest <= 2*cfg.SplitThreshold {
		t.Fatalf("heaviest splittable leaf weighed %d: the run never left the old 2x theta bound (%d)", heaviest, 2*cfg.SplitThreshold)
	}
	over := &Bucket{Label: bitlabel.MustParse("#0001"), Records: make([]record.Record, cfg.SplitThreshold+4)}
	if !ix.overweight(over) {
		t.Errorf("a depth-%d leaf of weight %d passes the bound", over.Label.Len(), over.Weight())
	}
	over.Records = over.Records[:cfg.SplitThreshold+3]
	if ix.overweight(over) {
		t.Errorf("a depth-%d leaf of weight %d fails the bound", over.Label.Len(), over.Weight())
	}
}
