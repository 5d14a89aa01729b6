package lht

import (
	"context"
	"slices"
	"sync"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// This file replays the paper's worked examples against hand-built trees,
// asserting not only the results but the exact DHT probe sequences the
// paper traces.

// recordingDHT remembers the keys of all Get probes.
type recordingDHT struct {
	dht.DHT
	mu   sync.Mutex
	gets []string
}

func (r *recordingDHT) Get(ctx context.Context, key string) (dht.Value, error) {
	r.mu.Lock()
	r.gets = append(r.gets, key)
	r.mu.Unlock()
	return r.DHT.Get(ctx, key)
}

func (r *recordingDHT) reset() {
	r.mu.Lock()
	r.gets = nil
	r.mu.Unlock()
}

func (r *recordingDHT) probes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.gets))
	copy(out, r.gets)
	return out
}

// buildTree stores a hand-specified set of leaves (by label) in a fresh
// DHT, each under its name, with one record at its interval midpoint so
// "contains" checks behave.
func buildTree(t *testing.T, leaves []string) *recordingDHT {
	t.Helper()
	d := &recordingDHT{DHT: dht.NewLocal()}
	total := 0.0
	for _, ls := range leaves {
		label := bitlabel.MustParse(ls)
		iv := keyspace.IntervalOf(label)
		total += iv.Width()
		b := &Bucket{
			Label:   label,
			Records: []record.Record{{Key: iv.Lo + iv.Width()/2, Value: []byte(ls)}},
		}
		if err := d.DHT.Put(context.Background(), label.Name().Key(), b); err != nil {
			t.Fatal(err)
		}
	}
	if total != 1 {
		t.Fatalf("test tree does not tile [0,1): total width %v", total)
	}
	return d
}

func assertProbes(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("probe sequence %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe %d = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestSection5LookupTrace replays the lookup example of section 5: in the
// Fig. 2 tree, looking up 0.9 with D = 14 first tries the prefix
// #0111001 (probing its name #011100, a miss), then #011 (probing #0,
// which returns leaf #01111, not covering 0.9), then resolves at #01110
// (probing its name #0111) - three DHT-gets in all.
func TestSection5LookupTrace(t *testing.T) {
	// Fig. 2's partition tree.
	d := buildTree(t, []string{"#000", "#001", "#010", "#0110", "#01110", "#01111"})
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}
	d.reset()

	b, cost, err := ix.LookupBucket(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if b.Label.String() != "#01110" {
		t.Fatalf("lookup(0.9) = %s, want #01110", b.Label)
	}
	if cost.Lookups != 3 {
		t.Fatalf("lookup cost = %d DHT-lookups, paper's trace uses 3", cost.Lookups)
	}
	assertProbes(t, d.probes(), []string{"#011100", "#0", "#0111"})
}

// TestSection5InsertTrace replays section 5's insert cost, "an LHT
// lookup followed by one DHT-put": inserting 0.9 into the Fig. 2 tree
// makes exactly the lookup example's three gets and then commits with one
// conditional put, four DHT-lookups in all, and the index charges the four
// it reports.
func TestSection5InsertTrace(t *testing.T) {
	d := buildTree(t, []string{"#000", "#001", "#010", "#0110", "#01110", "#01111"})
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}
	d.reset()
	before := ix.Metrics().Lookup.Total

	cost, err := ix.Insert(record.Record{Key: 0.9, Value: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	assertProbes(t, d.probes(), []string{"#011100", "#0", "#0111"})
	if cost.Lookups != 4 {
		t.Errorf("insert cost = %d DHT-lookups, want the lookup's 3 and one put", cost.Lookups)
	}
	if charged := ix.Metrics().Lookup.Total - before; charged != int64(cost.Lookups) {
		t.Errorf("the index charged %d DHT-lookups for an insert that cost %d", charged, cost.Lookups)
	}
}

// TestSection5MuPrefixClaim verifies the premise of the lookup example:
// lambda(0.4) = #001 in Fig. 2, and every candidate leaf label is a
// prefix of mu(delta, D).
func TestSection5MuPrefixClaim(t *testing.T) {
	d := buildTree(t, []string{"#000", "#001", "#010", "#0110", "#01110", "#01111"})
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ix.LookupBucket(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Label.String() != "#001" {
		t.Fatalf("lambda(0.4) = %s, want #001 (Fig. 2)", b.Label)
	}
}

// TestSection62RangeTrace replays the range example of section 6.2: in
// the Fig. 5b tree, the query [0.2, 0.6) starts at the LCA #0 (one get of
// f_n(#0) = "#", reaching leaf #000), then forwards to #00 (leaf #0011)
// and #01 (leaf #0100), and #0011 forwards inward to #001 (leaf #0010).
// Four DHT-gets reach all four result buckets - optimal.
func TestSection62RangeTrace(t *testing.T) {
	// Fig. 5b's tree: six leaves.
	d := buildTree(t, []string{"#000", "#0010", "#0011", "#0100", "#0101", "#011"})
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}
	d.reset()

	recs, cost, err := ix.Range(0.2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// The records planted at bucket midpoints inside [0.2, 0.6): #000's
	// 0.125 is outside the range, #0010 (0.3125), #0011 (0.4375), #0100
	// (0.5625) inside.
	if len(recs) != 3 {
		t.Fatalf("range returned %d records: %v", len(recs), recs)
	}
	if cost.Lookups != 4 {
		t.Fatalf("range cost = %d DHT-lookups, paper's trace uses 4", cost.Lookups)
	}
	// The probe set, in round order: the sweep's branch probes {#00, #01}
	// go out as one multi-get round, then #0011 forwards inward to #001.
	assertProbes(t, d.probes(), []string{"#", "#00", "#01", "#001"})
	// Latency: the LCA get, then {#00, #01} in parallel, then #001 from
	// inside #0011: three dependent rounds.
	if cost.Steps != 3 {
		t.Fatalf("range steps = %d, want 3", cost.Steps)
	}
}

// TestTheorem3Trace: in any of the example trees, min resolves at key "#"
// and max at key "#0", each with a single probe.
func TestTheorem3Trace(t *testing.T) {
	d := buildTree(t, []string{"#000", "#001", "#010", "#0110", "#01110", "#01111"})
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}
	d.reset()
	if _, _, err := ix.Min(); err != nil {
		t.Fatal(err)
	}
	assertProbes(t, d.probes(), []string{"#"})
	d.reset()
	rec, _, err := ix.Max()
	if err != nil {
		t.Fatal(err)
	}
	assertProbes(t, d.probes(), []string{"#0"})
	// The max record lives in the rightmost leaf #01111.
	if string(rec.Value) != "#01111" {
		t.Fatalf("max came from %q, want the rightmost leaf", rec.Value)
	}
}

// TestGeneralCaseFallbacks drives Algorithm 4's case 1 (range inside one
// leaf: the f_n(LCA) get misses) and case 3 (the bucket bound to f_n(LCA)
// does not overlap the range).
func TestGeneralCaseFallbacks(t *testing.T) {
	d := buildTree(t, []string{"#000", "#0010", "#0011", "#0100", "#0101", "#011"})
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}

	// Case 1: [0.3, 0.31) lies inside leaf #0010 and its LCA #0010011 is
	// deeper than the tree, with a name (#00100) no leaf is bound to, so
	// the first get misses and an exact lookup of the lower bound
	// follows.
	d.reset()
	recs, cost, err := ix.Range(0.3, 0.31)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 { // the planted record 0.3125 is outside [0.3,0.31)
		t.Fatalf("case 1 records = %v", recs)
	}
	probes := d.probes()
	if len(probes) < 2 || probes[0] != "#00100" {
		t.Fatalf("case 1 should miss at #00100 then look up: %v", probes)
	}
	if cost.Lookups != len(probes) {
		t.Fatalf("cost %d != probes %d", cost.Lookups, len(probes))
	}

	// Case 3: [0.3, 0.6) straddles 0.5, so its LCA is the root #0 and
	// f_n(#0) = "#" leads to the leftmost leaf #000 ([0, 0.25)), which
	// does not overlap the range; the query then descends through both
	// children in one round, each under its own key: both are shallower
	// than #000 beside them. The left descent reaches leaf #0011 via
	// #00, which sweeps left into the partially covered branch #0010 in
	// the next round. #0010 is as deep as #0011, its sibling, so it is
	// tried under its name #001 first, where leaf #0010 is bound: the
	// miss at its own label, section 6.3's one failed lookup, is gone.
	d.reset()
	recs, cost, err = ix.Range(0.3, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // midpoints 0.3125, 0.4375, 0.5625
		t.Fatalf("case 3 records = %v", recs)
	}
	assertProbes(t, d.probes(), []string{"#", "#00", "#01", "#001"})
	if cost != (Cost{Lookups: 4, Steps: 3}) {
		t.Fatalf("case 3 cost = %+v, want 4 lookups = B+1 <= B+3 (B=3) in 3 steps", cost)
	}
}

// TestInternalSiblingCostsOneWastedLookup is case 3 of
// TestGeneralCaseFallbacks on a Fig. 5b-style tree whose leaf #0010 has
// split into #00100 and #00101: the branch #0010, which the left descent
// sweeps into from #0011, is as deep as #0011 but internal. Its name #001
// now holds its far-end leaf #00100, which joins nothing; the next round
// enters #0010 under its own key, at its near-end leaf #00101, which
// sweeps on into #00100, its own sibling and a leaf. That one wasted
// lookup is the whole price of the wrong guess: 6 lookups for B = 4
// result buckets, within B+3, and the result is exact.
func TestInternalSiblingCostsOneWastedLookup(t *testing.T) {
	d := buildTree(t, []string{"#000", "#00100", "#00101", "#0011", "#0100", "#0101", "#011"})
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}
	d.reset()
	recs, cost, err := ix.Range(0.3, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// Midpoints in [0.3, 0.6): #00101's 0.34375, #0011's 0.4375 and
	// #0100's 0.5625; #00100's 0.28125 is below the range.
	record.SortByKey(recs)
	var got []string
	for _, r := range recs {
		got = append(got, string(r.Value))
	}
	if want := []string{"#00101", "#0011", "#0100"}; !slices.Equal(got, want) {
		t.Fatalf("records from %v, want %v", got, want)
	}
	assertProbes(t, d.probes(), []string{"#", "#00", "#01", "#001", "#0010", "#001"})
	if cost != (Cost{Lookups: 6, Steps: 5}) {
		t.Fatalf("cost = %+v, want 6 lookups = B+2 <= B+3 (B=4) in 5 steps", cost)
	}
}
