package pht

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
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
}

func TestBootstrapAndAttach(t *testing.T) {
	ix, d := newTestIndex(t, smallConfig())
	if _, err := ix.Insert(record.Record{Key: 0.5, Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	ix2, err := New(d, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r, _, err := ix2.Search(0.5); err != nil || string(r.Value) != "x" {
		t.Fatalf("attach lost data: %v, %v", r, err)
	}
}

func TestInsertSearchDelete(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
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
	if _, err := ix.Delete(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(0.5); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Delete absent = %v", err)
	}
	if n, err := ix.Count(); err != nil || n != len(keys)-1 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestSplitCostProfile pins equation 2: a PHT split moves every record
// (both halves) and issues 4 DHT-lookups - 2 child puts plus 2 leaf-link
// patches - once the chain has neighbors on both sides.
func TestSplitCostProfile(t *testing.T) {
	theta := 8
	ix, _ := newTestIndex(t, Config{SplitThreshold: theta, MergeThreshold: 0, Depth: 20})
	rng := rand.New(rand.NewSource(1))
	// Grow until there are interior leaves, then measure a split whose
	// leaf has both neighbors.
	for i := 0; i < 600; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Metrics()
	for i := 0; i < 600; i++ {
		pre := ix.Metrics()
		cost, err := ix.Insert(record.Record{Key: rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		post := ix.Metrics()
		if post.Lookup.Splits == pre.Lookup.Splits {
			continue
		}
		_ = cost
		// A split normally fires with theta-1 records (moving theta+1
		// slots); a child left oversized by a skewed split can fire with
		// a few more, never fewer.
		moved := post.Lookup.MovedRecords - pre.Lookup.MovedRecords
		if moved < int64(theta+1) || moved > int64(theta+4) {
			t.Errorf("split moved %d record slots, want about theta+1 = %d", moved, theta+1)
		}
	}
	after := ix.Metrics()
	splits := after.Lookup.Splits - before.Lookup.Splits
	if splits == 0 {
		t.Fatal("no splits observed")
	}
	perSplitMoved := float64(after.Lookup.MovedRecords-before.Lookup.MovedRecords) / float64(splits)
	if perSplitMoved < float64(theta+1) || perSplitMoved > float64(theta)+1.5 {
		t.Errorf("moved per split = %v, want about %d", perSplitMoved, theta+1)
	}
}

func TestGrowthInvariants(t *testing.T) {
	ix, _ := newTestIndex(t, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 24})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, err := ix.Count(); err != nil || n != 3000 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestDeleteTriggersMerges(t *testing.T) {
	ix, _ := newTestIndex(t, Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	rng := rand.New(rand.NewSource(3))
	keys := make([]float64, 300)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		if _, err := ix.Delete(k); err != nil {
			t.Fatalf("Delete(%v): %v", k, err)
		}
		if i%75 == 74 {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if s := ix.Metrics(); s.Lookup.Merges == 0 {
		t.Error("expected merges")
	}
	if n, err := ix.Count(); err != nil || n != 0 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestOracleBothRangeAlgorithms runs a random workload and validates both
// range algorithms against a reference map.
func TestOracleBothRangeAlgorithms(t *testing.T) {
	for dist := 0; dist < 3; dist++ {
		dist := dist
		t.Run(fmt.Sprintf("dist%d", dist), func(t *testing.T) {
			t.Parallel()
			ix, _ := newTestIndex(t, Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
			oracle := make(map[float64]bool)
			rng := rand.New(rand.NewSource(int64(100 + dist)))
			draw := func() float64 {
				switch dist {
				case 0:
					return rng.Float64()
				case 1:
					for {
						k := 0.5 + rng.NormFloat64()/6
						if k >= 0 && k < 1 {
							return k
						}
					}
				default:
					return float64(rng.Intn(64)) / 64
				}
			}
			for i := 0; i < 3000; i++ {
				k := draw()
				if rng.Intn(4) == 0 {
					_, err := ix.Delete(k)
					if oracle[k] != (err == nil) {
						t.Fatalf("Delete(%v) = %v, oracle %v", k, err, oracle[k])
					}
					delete(oracle, k)
					continue
				}
				if _, err := ix.Insert(record.Record{Key: k}); err != nil {
					t.Fatal(err)
				}
				oracle[k] = true
			}
			var want []float64
			for k := range oracle {
				want = append(want, k)
			}
			sort.Float64s(want)

			for trial := 0; trial < 100; trial++ {
				lo := rng.Float64()
				hi := lo + rng.Float64()*(1-lo)
				if hi <= lo {
					continue
				}
				var wantIn []float64
				for _, k := range want {
					if k >= lo && k < hi {
						wantIn = append(wantIn, k)
					}
				}
				seq, seqCost, err := ix.RangeSequential(lo, hi)
				if err != nil {
					t.Fatalf("RangeSequential(%v, %v): %v", lo, hi, err)
				}
				par, parCost, err := ix.RangeParallel(lo, hi)
				if err != nil {
					t.Fatalf("RangeParallel(%v, %v): %v", lo, hi, err)
				}
				for name, got := range map[string][]record.Record{"seq": seq, "par": par} {
					gotKeys := make([]float64, len(got))
					for i, r := range got {
						gotKeys[i] = r.Key
					}
					sort.Float64s(gotKeys)
					if len(gotKeys) != len(wantIn) {
						t.Fatalf("%s range [%v,%v): %d records, want %d", name, lo, hi, len(gotKeys), len(wantIn))
					}
					for i := range gotKeys {
						if gotKeys[i] != wantIn[i] {
							t.Fatalf("%s range [%v,%v): key %v != %v", name, lo, hi, gotKeys[i], wantIn[i])
						}
					}
				}
				if seqCost.Steps != seqCost.Lookups {
					t.Errorf("sequential range must have Steps == Lookups, got %+v", seqCost)
				}
				if parCost.Steps > parCost.Lookups {
					t.Errorf("parallel range Steps %d > Lookups %d", parCost.Steps, parCost.Lookups)
				}
			}
		})
	}
}

// TestParallelCostShape verifies the Fig. 9/10 relationships on a sizable
// uniform tree: parallel fan-out spends more bandwidth than the chain
// walk, but far fewer steps.
func TestParallelCostShape(t *testing.T) {
	ix, _ := newTestIndex(t, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 24})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	var seqL, seqS, parL, parS int
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 0.7
		hi := lo + 0.2
		_, sc, err := ix.RangeSequential(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		_, pc, err := ix.RangeParallel(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		seqL += sc.Lookups
		seqS += sc.Steps
		parL += pc.Lookups
		parS += pc.Steps
	}
	if parL <= seqL {
		t.Errorf("parallel bandwidth %d should exceed sequential %d", parL, seqL)
	}
	if parS*3 >= seqS {
		t.Errorf("parallel steps %d should be far below sequential %d", parS, seqS)
	}
}

func TestLookupCostLogD(t *testing.T) {
	ix, _ := newTestIndex(t, DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	maxCost := 0
	for i := 0; i < 1000; i++ {
		_, cost, err := ix.LookupLeaf(rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if cost.Lookups > maxCost {
			maxCost = cost.Lookups
		}
	}
	// Binary search over 20 candidate lengths: at most ceil(log2(20))+1 = 6.
	if maxCost > 6 {
		t.Errorf("PHT lookup cost reached %d", maxCost)
	}
}

func TestRangeRejectsBadBounds(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	bad := [][2]float64{{0.5, 0.5}, {0.6, 0.5}, {-0.1, 0.5}, {0.5, 1.1}, {math.NaN(), 0.5}}
	for _, b := range bad {
		if _, _, err := ix.RangeSequential(b[0], b[1]); err == nil {
			t.Errorf("RangeSequential(%v) should fail", b)
		}
		if _, _, err := ix.RangeParallel(b[0], b[1]); err == nil {
			t.Errorf("RangeParallel(%v) should fail", b)
		}
	}
}

func TestNodeEncodeDecode(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64(), Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range leaves {
		data, err := EncodeNode(n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeNode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Label != n.Label || got.Leaf != n.Leaf || len(got.Records) != len(n.Records) ||
			got.HasPrev != n.HasPrev || got.HasNext != n.HasNext || got.Prev != n.Prev || got.Next != n.Next {
			t.Fatalf("round trip mismatch: %v vs %v", got, n)
		}
	}
	if _, err := DecodeNode([]byte("junk")); err == nil {
		t.Error("DecodeNode(junk) should fail")
	}
}

func TestAccessorsAndNodeHelpers(t *testing.T) {
	ix, _ := newTestIndex(t, smallConfig())
	if ix.Config().SplitThreshold != 8 {
		t.Error("Config accessor broken")
	}
	if ix.Overflows() != 0 {
		t.Error("fresh index should have no overflows")
	}
	n := &Node{Label: mustLabel(t, "#01"), Leaf: true}
	if !n.Contains(0.75) || n.Contains(0.25) {
		t.Error("Contains broken")
	}
	if s := n.String(); !strings.Contains(s, "leaf") || !strings.Contains(s, "#01") {
		t.Errorf("String = %q", s)
	}
	n.Leaf = false
	if s := n.String(); !strings.Contains(s, "internal") {
		t.Errorf("String = %q", s)
	}
}

func TestConfigValidationCases(t *testing.T) {
	bad := []Config{
		{SplitThreshold: 2, MergeThreshold: 0, Depth: 20},
		{SplitThreshold: 8, MergeThreshold: 9, Depth: 20},
		{SplitThreshold: 8, MergeThreshold: -1, Depth: 20},
		{SplitThreshold: 8, MergeThreshold: 0, Depth: 1},
		{SplitThreshold: 8, MergeThreshold: 0, Depth: 60},
	}
	for _, cfg := range bad {
		if _, err := New(dht.NewLocal(), cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("New(%+v) = %v, want ErrConfig", cfg, err)
		}
	}
}

func TestOverflowAtDepthLimit(t *testing.T) {
	ix, _ := newTestIndex(t, Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 6})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64() / 1024}); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Overflows() == 0 {
		t.Fatal("expected overflows at the depth limit")
	}
	// All records still findable.
	rng = rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		if _, _, err := ix.Search(rng.Float64() / 1024); err != nil {
			t.Fatalf("Search: %v", err)
		}
	}
	if n, err := ix.Count(); err != nil || n != 150 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func mustLabel(t *testing.T, s string) bitlabel.Label {
	t.Helper()
	l, err := bitlabel.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
