package lht

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
	"lht/internal/tcpnet"
)

// These tests run range queries over real tcpnet servers, the one
// substrate whose peers cut runs, against the same queries over
// dht.Local, which hands out whole buckets: a run may change what crosses
// the wire and what the client allocates, and nothing else.

// rangeSpy is the client with what its probed multi-gets and its range
// probes returned on record.
type rangeSpy struct {
	*tcpnet.Client

	mu    sync.Mutex
	runs  int // slots answered with a run
	torn  int // slots answered with a whole, torn bucket
	whole int // slots answered with a whole bucket that is not torn

	probes       int // range probes
	probeRuns    int // answered with a run
	probeHeaders int // answered with a header
	probeWhole   int // answered with a whole bucket that is not torn
}

func (s *rangeSpy) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	v, err := s.Client.Probe(ctx, key, hint)
	if hint&probeRange == 0 {
		return v, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes++
	switch v := v.(type) {
	case *bucketRun:
		s.probeRuns++
	case *BucketHeader:
		s.probeHeaders++
	case *Bucket:
		if !v.Torn() {
			s.probeWhole++
		}
	}
	return v, err
}

func (s *rangeSpy) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]dht.Value, []error) {
	vals, errs := s.Client.ProbeBatch(ctx, keys, hint)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range vals {
		switch v := v.(type) {
		case *bucketRun:
			s.runs++
		case *Bucket:
			if v.Torn() {
				s.torn++
			} else {
				s.whole++
			}
		}
	}
	return vals, errs
}

// rangeCase says which case of Algorithm 4 the range [lo, hi) is over the
// tree stored in d: 1 one leaf holds it, 2 the leaf named by the LCA
// overlaps it, 3 it is entered through both children of the LCA.
func rangeCase(t *testing.T, d dht.DHT, depth int, lo, hi float64) int {
	t.Helper()
	r := keyspace.Interval{Lo: lo, Hi: hi}
	v, err := d.Get(context.Background(), keyspace.RangeLCA(r, depth).Name().Key())
	switch {
	case errors.Is(err, dht.ErrNotFound):
		return 1
	case err != nil:
		t.Fatal(err)
	case v.(*Bucket).Interval().Overlaps(r):
		return 2
	}
	return 3
}

// cachedLabels is the leaf cache's content, most recently used first.
func cachedLabels(ix *Index) []bitlabel.Label {
	var out []bitlabel.Label
	for e := ix.cache.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(bitlabel.Label))
	}
	return out
}

func TestRangeOverTheWireMatchesLocal(t *testing.T) {
	const depth = 20
	ctx := context.Background()
	local := dht.NewLocal()
	client, _ := startProbeCluster(t, 3)

	// The same inserts grow the same tree on both substrates. No key falls
	// in [0.45, 0.55), so a range inside that gap sweeps leaves and finds
	// nothing.
	var tornKey, remoteKey string
	var tornLeaf *Bucket
	for _, d := range []dht.DHT{local, client} {
		ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 6, Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 400; i++ {
			k := rng.Float64() * 0.9
			if k >= 0.45 {
				k += 0.1
			}
			if _, err := ix.Insert(record.Record{Key: k, Value: []byte{byte(i), byte(i >> 8)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The leaf covering 0.7, to be torn as a split that crashed after
		// its intent mark leaves it (see tear).
		f, _, err := ix.lookupLeaf(ctx, 0.7, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, key := f.b, f.key
		tornLeaf = b.Clone()
		tornLeaf.Pending, tornLeaf.Epoch = Pending{Kind: PendingSplit}, b.Epoch+1
		tornKey, remoteKey = key, b.Label.Key()
	}
	// tear puts the torn leaf back, and takes away the remote half that
	// the last range's repair pushed out: every run meets the same tear
	// and repairs it the same way.
	tear := func(d dht.DHT) {
		t.Helper()
		if err := d.Put(ctx, tornKey, tornLeaf); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(ctx, remoteKey); err != nil && !errors.Is(err, dht.ErrNotFound) {
			t.Fatal(err)
		}
	}

	// One range of each kind, found by looking at the tree.
	type query struct {
		name   string
		lo, hi float64
	}
	queries := []query{{"an empty result", 0.46, 0.54}, {"a torn leaf inside", 0.62, 0.78}}
	rng := rand.New(rand.NewSource(23))
	for _, want := range []int{1, 2, 3} {
		for {
			lo := rng.Float64() * 0.4
			hi := lo + rng.Float64()*0.04
			if want > 1 {
				hi = lo + 0.05 + rng.Float64()*0.3
			}
			if rangeCase(t, local, depth, lo, hi) == want {
				queries = append(queries, query{[]string{1: "case 1", 2: "case 2", 3: "case 3"}[want], lo, hi})
				break
			}
		}
	}
	for _, q := range queries[:2] {
		if c := rangeCase(t, local, depth, q.lo, q.hi); c == 1 {
			t.Fatalf("%s: [%v, %v) lies in one leaf, want a sweep", q.name, q.lo, q.hi)
		}
	}

	type answer struct {
		recs []record.Record
		cost Cost
	}
	run := func(d dht.DHT, cfg Config) ([]answer, []bitlabel.Label) {
		t.Helper()
		cfg.SplitThreshold, cfg.MergeThreshold, cfg.Depth = 8, 6, depth
		cfg.LeafCache, cfg.LeafCacheSize = true, 6
		ix, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		answers := make([]answer, len(queries))
		for i, q := range queries {
			recs, cost, err := ix.Range(q.lo, q.hi)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			answers[i] = answer{recs, cost}
		}
		return answers, cachedLabels(ix)
	}

	tear(local)
	want, wantCache := run(local, Config{})
	for i, q := range queries {
		if (len(want[i].recs) == 0) != (q.name == "an empty result") {
			t.Fatalf("%s: %d records over dht.Local", q.name, len(want[i].recs))
		}
	}
	policy := dht.DefaultPolicy()
	torn := 0
	for _, arm := range []struct {
		name        string
		crashpoints bool
		cfg         Config
	}{
		{"bare", false, Config{}},
		{"policy(instrumented(crashpoints))", true, Config{Policy: &policy}},
	} {
		name, spy := arm.name, &rangeSpy{Client: client}
		var d dht.DHT = spy
		if arm.crashpoints {
			d = dht.WithCrashPoints(spy)
		}
		tear(client)
		got, gotCache := run(d, arm.cfg)
		// Every swept slot of an untorn leaf comes back as a run.
		if spy.runs == 0 || spy.whole != 0 {
			t.Errorf("%s: %d multi-get slots came back as runs, %d as whole untorn buckets", name, spy.runs, spy.whole)
		}
		torn += spy.torn
		// Every single get of a range is a probe, and of an untorn leaf it
		// comes back as a run, or as a header when the leaf lies outside
		// the range (case 3's LCA probe): never as the bucket.
		if spy.probeRuns == 0 || spy.probeHeaders == 0 || spy.probeWhole != 0 {
			t.Errorf("%s: of %d range probes %d came back as runs, %d as headers, %d as whole untorn buckets",
				name, spy.probes, spy.probeRuns, spy.probeHeaders, spy.probeWhole)
		}
		for i, q := range queries {
			if got[i].cost != want[i].cost {
				t.Errorf("%s, %s: cost %+v, over dht.Local %+v", name, q.name, got[i].cost, want[i].cost)
			}
			g, w := got[i].recs, want[i].recs
			if !sameBucket(&Bucket{Records: g}, &Bucket{Records: w}) {
				t.Errorf("%s, %s: records\n got %v\nwant %v", name, q.name, g, w)
			}
		}
		if !slices.Equal(gotCache, wantCache) {
			t.Errorf("%s: leaf cache ends as %v, over dht.Local as %v", name, gotCache, wantCache)
		}
	}
	if torn == 0 {
		t.Error("the torn leaf never came back from a probed multi-get as a bucket")
	}
	for _, d := range []dht.DHT{local, client} {
		if v, err := d.Get(ctx, tornKey); err != nil || v.(*Bucket).Torn() {
			t.Errorf("the range did not repair the torn leaf: %v, %v", v, err)
		}
	}
}
