package lht

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

func mustLabel(t *testing.T, s string) bitlabel.Label {
	t.Helper()
	l, err := bitlabel.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// oracle is a trivially correct in-memory reference: a map of records.
type oracle struct {
	data map[float64][]byte
}

func newOracle() *oracle { return &oracle{data: make(map[float64][]byte)} }

func (o *oracle) insert(r record.Record) { o.data[r.Key] = r.Value }
func (o *oracle) remove(k float64) bool  { _, ok := o.data[k]; delete(o.data, k); return ok }
func (o *oracle) get(k float64) (rec record.Record, ok bool) {
	v, ok := o.data[k]
	return record.Record{Key: k, Value: v}, ok
}

func (o *oracle) keysIn(lo, hi float64) []float64 {
	var out []float64
	for k := range o.data {
		if k >= lo && k < hi {
			out = append(out, k)
		}
	}
	sort.Float64s(out)
	return out
}

func (o *oracle) min() (float64, bool) {
	best, ok := math.Inf(1), false
	for k := range o.data {
		ok = true
		if k < best {
			best = k
		}
	}
	return best, ok
}

func (o *oracle) max() (float64, bool) {
	best, ok := math.Inf(-1), false
	for k := range o.data {
		ok = true
		if k > best {
			best = k
		}
	}
	return best, ok
}

// drawKey returns a key from one of several distributions so the oracle
// exercise covers uniform, clustered, and discrete-duplicate-prone data.
func drawKey(rng *rand.Rand, dist int) float64 {
	switch dist {
	case 0: // uniform
		return rng.Float64()
	case 1: // gaussian around 0.5 (clipped into [0,1))
		for {
			k := 0.5 + rng.NormFloat64()/6
			if k >= 0 && k < 1 {
				return k
			}
		}
	default: // coarse grid: many exact duplicates and dyadic boundaries
		return float64(rng.Intn(64)) / 64
	}
}

// TestOracleRandomOps drives the index with a long random mix of
// operations and checks every result against the reference map, plus the
// structural invariants along the way.
func TestOracleRandomOps(t *testing.T) {
	configs := []Config{
		{SplitThreshold: 4, MergeThreshold: 0, Depth: 20},
		{SplitThreshold: 8, MergeThreshold: 6, Depth: 20},
		{SplitThreshold: 16, MergeThreshold: 8, Depth: 16},
		{SplitThreshold: 100, MergeThreshold: 50, Depth: 20},
	}
	for ci, cfg := range configs {
		for dist := 0; dist < 3; dist++ {
			cfg, ci, dist := cfg, ci, dist
			t.Run(fmt.Sprintf("cfg%d/dist%d", ci, dist), func(t *testing.T) {
				t.Parallel()
				runOracle(t, cfg, dist, 4000, rand.New(rand.NewSource(int64(ci*10+dist))))
			})
		}
	}
}

func runOracle(t *testing.T, cfg Config, dist, steps int, rng *rand.Rand) {
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	var live []float64 // keys known to be present (with duplicates possible)

	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			k := drawKey(rng, dist)
			val := []byte(fmt.Sprintf("v%d", i))
			if _, err := ix.Insert(record.Record{Key: k, Value: val}); err != nil {
				t.Fatalf("step %d: Insert(%v): %v", i, k, err)
			}
			o.insert(record.Record{Key: k, Value: val})
			live = append(live, k)

		case op < 7: // delete (a known key half the time, a random one otherwise)
			var k float64
			if len(live) > 0 && rng.Intn(2) == 0 {
				k = live[rng.Intn(len(live))]
			} else {
				k = drawKey(rng, dist)
			}
			_, err := ix.Delete(k)
			wantOK := o.remove(k)
			if wantOK && err != nil {
				t.Fatalf("step %d: Delete(%v) = %v, oracle had it", i, k, err)
			}
			if !wantOK && err == nil {
				t.Fatalf("step %d: Delete(%v) succeeded, oracle did not have it", i, k)
			}

		case op < 9: // exact-match search
			var k float64
			if len(live) > 0 && rng.Intn(2) == 0 {
				k = live[rng.Intn(len(live))]
			} else {
				k = drawKey(rng, dist)
			}
			rec, _, err := ix.Search(k)
			want, wantOK := o.get(k)
			if wantOK {
				if err != nil {
					t.Fatalf("step %d: Search(%v) = %v, oracle has %v", i, k, err, want)
				}
				if string(rec.Value) != string(want.Value) {
					t.Fatalf("step %d: Search(%v) = %q, want %q", i, k, rec.Value, want.Value)
				}
			} else if err == nil {
				t.Fatalf("step %d: Search(%v) found a phantom record", i, k)
			}

		default: // range query
			lo := rng.Float64()
			hi := lo + rng.Float64()*(1-lo)
			if hi <= lo {
				hi = math.Nextafter(lo, 2)
				if hi > 1 {
					continue
				}
			}
			got, cost, err := ix.Range(lo, hi)
			if err != nil {
				t.Fatalf("step %d: Range(%v, %v): %v", i, lo, hi, err)
			}
			checkRange(t, i, got, o.keysIn(lo, hi), lo, hi, cost)
		}

		if i%1000 == 999 {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}

	// Final full validation: every oracle key searchable, min/max agree,
	// full-space range returns everything.
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range o.data {
		rec, _, err := ix.Search(k)
		if err != nil || string(rec.Value) != string(v) {
			t.Fatalf("final Search(%v) = %v, %v; want %q", k, rec, err, v)
		}
	}
	if wantMin, ok := o.min(); ok {
		if r, _, err := ix.Min(); err != nil || r.Key != wantMin {
			t.Fatalf("Min = %v, %v; want %v", r, err, wantMin)
		}
		wantMax, _ := o.max()
		if r, _, err := ix.Max(); err != nil || r.Key != wantMax {
			t.Fatalf("Max = %v, %v; want %v", r, err, wantMax)
		}
	}
	got, cost, err := ix.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkRange(t, -1, got, o.keysIn(0, 1), 0, 1, cost)
	if n, err := ix.Count(); err != nil || n != len(o.data) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(o.data))
	}
}

func checkRange(t *testing.T, step int, got []record.Record, wantKeys []float64, lo, hi float64, cost Cost) {
	t.Helper()
	gotKeys := make([]float64, len(got))
	for i, r := range got {
		gotKeys[i] = r.Key
	}
	sort.Float64s(gotKeys)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("step %d: Range[%v,%v) returned %d records, want %d", step, lo, hi, len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("step %d: Range[%v,%v) key %d = %v, want %v", step, lo, hi, i, gotKeys[i], wantKeys[i])
		}
	}
	// No duplicates.
	for i := 1; i < len(gotKeys); i++ {
		if gotKeys[i] == gotKeys[i-1] {
			t.Fatalf("step %d: Range[%v,%v) returned duplicate key %v", step, lo, hi, gotKeys[i])
		}
	}
	if cost.Steps > cost.Lookups {
		t.Fatalf("step %d: Steps %d > Lookups %d", step, cost.Steps, cost.Lookups)
	}
}

// TestRangeCostNearOptimal checks section 6.3: a range query touching B
// leaf buckets costs at most about B+3 DHT-lookups (we allow B+4: our
// generalized simple case may pay one extra boundary fallback when the
// entry bucket covers neither range bound).
func TestRangeCostNearOptimal(t *testing.T) {
	ix, err := New(dht.NewLocal(), Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		lo := rng.Float64() * 0.9
		hi := lo + rng.Float64()*(1-lo)
		if hi <= lo {
			continue
		}
		_, cost, err := ix.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		// Count the result buckets B by the leaves overlapping the range.
		b := 0
		for _, leaf := range leaves {
			iv := leaf.Interval()
			if iv.Lo < hi && lo < iv.Hi {
				b++
			}
		}
		if cost.Lookups > b+4 {
			t.Errorf("Range[%v,%v): %d lookups for B=%d buckets (> B+4)", lo, hi, cost.Lookups, b)
		}
		if cost.Steps > cost.Lookups {
			t.Errorf("Steps %d > Lookups %d", cost.Steps, cost.Lookups)
		}
	}
}

// TestRangeLatencyBeatsSequential checks that the forwarding DAG is
// genuinely parallel: for wide ranges over many buckets, the step depth
// must be well below the bucket count.
func TestRangeLatencyBeatsSequential(t *testing.T) {
	ix, err := New(dht.NewLocal(), Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	_, cost, err := ix.Range(0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Lookups < 100 {
		t.Fatalf("expected a wide query, got %d lookups", cost.Lookups)
	}
	if cost.Steps*4 > cost.Lookups {
		t.Errorf("Steps = %d vs Lookups = %d; forwarding barely parallel", cost.Steps, cost.Lookups)
	}
}

func TestRangeRejectsBadBounds(t *testing.T) {
	ix, err := New(dht.NewLocal(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := [][2]float64{{0.5, 0.5}, {0.6, 0.5}, {-0.1, 0.5}, {0.5, 1.1}, {1.0, 1.0}}
	for _, b := range bad {
		if _, _, err := ix.Range(b[0], b[1]); err == nil {
			t.Errorf("Range(%v, %v) should fail", b[0], b[1])
		}
	}
}

// TestRangeOverSerializingDHT runs the oracle mix over a DHT that
// round-trips every value through the gob codec, proving the engine never
// depends on pointer sharing with the store (as the networked substrates
// cannot provide it).
func TestRangeOverSerializingDHT(t *testing.T) {
	cfg := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20}
	d := newCodecDHT()
	ix, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1500; i++ {
		k := drawKey(rng, i%3)
		if rng.Intn(4) == 0 {
			_, err := ix.Delete(k)
			wantOK := o.remove(k)
			if wantOK != (err == nil) {
				t.Fatalf("Delete(%v) = %v, oracle %v", k, err, wantOK)
			}
			continue
		}
		val := []byte(fmt.Sprintf("v%d", i))
		if _, err := ix.Insert(record.Record{Key: k, Value: val}); err != nil {
			t.Fatal(err)
		}
		o.insert(record.Record{Key: k, Value: val})
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, cost, err := ix.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkRange(t, -2, got, o.keysIn(0, 1), 0, 1, cost)
}

// codecDHT is a Local DHT that stores buckets serialized, decoding on
// every Get, so returned values never alias stored ones.
type codecDHT struct {
	inner *dht.Local
}

func newCodecDHT() *codecDHT { return &codecDHT{inner: dht.NewLocal()} }

func (c *codecDHT) encode(v dht.Value) dht.Value {
	b, ok := v.(*Bucket)
	if !ok {
		return v
	}
	data, err := EncodeBucket(b)
	if err != nil {
		panic(err)
	}
	return data
}

func (c *codecDHT) decode(v dht.Value, err error) (dht.Value, error) {
	if err != nil {
		return nil, err
	}
	data, ok := v.([]byte)
	if !ok {
		return v, nil
	}
	b, err := DecodeBucket(data)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (c *codecDHT) Get(ctx context.Context, key string) (dht.Value, error) {
	return c.decode(c.inner.Get(ctx, key))
}
func (c *codecDHT) Put(ctx context.Context, key string, v dht.Value) error {
	return c.inner.Put(ctx, key, c.encode(v))
}
func (c *codecDHT) Write(ctx context.Context, key string, v dht.Value) error {
	return c.inner.Write(ctx, key, c.encode(v))
}
func (c *codecDHT) Remove(ctx context.Context, key string) error { return c.inner.Remove(ctx, key) }
