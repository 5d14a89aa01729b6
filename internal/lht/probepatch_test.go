package lht

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

// These tests pin the write whose patch rides a probe of its search — the
// one its leaf cache names, or the one lastProbe picks as its last: over real
// servers a cache hit is the whole write, one lookup in one round trip, and
// so is the last probe of a search left with one name; a probe that meets a
// leaf that moved since the cache noted it is answered as a probe, and the
// write still commits exactly once; writers whose patches nothing but the
// storing peer guards keep every leaf within the weight bound; and a replay
// at the ledger's shape rides exactly the probes the rule names.

// A cache-hit insert and delete over real servers are one lookup and one
// round trip each: the patch rides the probe of the cached leaf, and the
// peer's acknowledgement ends the write.
func TestCacheHitWriteIsOneRoundTrip(t *testing.T) {
	client, srvs := startProbeCluster(t, 3)
	cfg := Config{SplitThreshold: 8, MergeThreshold: 2, Depth: 20}
	builder, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		if _, err := builder.Insert(record.Record{Key: rng.Float64(), Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// A key whose leaf takes one record more without splitting, and gives
	// it back without merging.
	var k float64
	for {
		k = rng.Float64()
		if b, _, err := builder.LookupBucket(k); err != nil {
			t.Fatal(err)
		} else if b.Weight()+1 < cfg.SplitThreshold && b.Weight() > cfg.MergeThreshold {
			break
		}
	}
	spy := &probeSpy{Client: client, t: t}
	cfg.LeafCache = true
	ix, err := New(spy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(k); !errors.Is(err, ErrKeyNotFound) { // the cache learns k's leaf
		t.Fatalf("Search(%v) = %v", k, err)
	}
	for _, op := range []struct {
		name string
		do   func() (Cost, error)
	}{
		{"Insert", func() (Cost, error) { return ix.Insert(record.Record{Key: k, Value: []byte("new")}) }},
		{"Delete", func() (Cost, error) { return ix.Delete(k) }},
	} {
		probes, _, _ := spy.counts()
		patches, ridden := spy.patchCount(), spy.riddenCount()
		served0, _ := served(srvs)
		cost, err := op.do()
		served1, _ := served(srvs)
		if now, _, _ := spy.counts(); err != nil || cost != (Cost{Lookups: 1, Steps: 1}) || now != probes ||
			spy.patchCount() != patches+1 || spy.riddenCount() != ridden+1 || served1-served0 != 1 {
			t.Errorf("%s: %+v, %v: %d probes and %d patches (%d ridden) reached the client, the servers counted %d lookups; want one patch riding the one probe",
				op.name, cost, err, now-probes, spy.patchCount()-patches, spy.riddenCount()-ridden, served1-served0)
		}
	}
	if h := ix.Metrics().Cache.Hits; h != 2 {
		t.Errorf("%d cache hits, want both writes'", h)
	}
	if _, _, err := builder.Search(k); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("Search(%v) after the insert and the delete = %v", k, err)
	}
}

// A write's patch rides the probe its cache names even when that leaf has
// since moved: split by another writer, merged away, or torn by a writer
// that crashed. The peer then answers as a probe — a header, nothing, the
// torn leaf whole — and the search goes on from that answer (repairing
// the torn leaf), and the write commits exactly once, by the patch riding
// the probe that ends the search, which lastProbe picks as its last.
func TestProbePatchOfAMovedLeafIsAnsweredAsAProbe(t *testing.T) {
	// #0 splits at its fourth key into #00 = {0.1, 0.2}, stored under "#",
	// and #01 = {0.6}, stored under "#0".
	cfg := Config{SplitThreshold: 4, MergeThreshold: 3, Depth: 20}
	x := bitlabel.MustParse("#01")
	for name, tc := range map[string]struct {
		move  func(t *testing.T, other *Index, client *tcpnet.Client)
		key   float64
		torn  bool
		count int
	}{
		// Two keys more split #01: #011 keeps the name "#0" and no longer
		// covers 0.65, which went to #010, named "#01".
		"split": {func(t *testing.T, other *Index, _ *tcpnet.Client) {
			for _, k := range []float64{0.7, 0.8} {
				if _, err := other.Insert(record.Record{Key: k}); err != nil {
					t.Fatal(err)
				}
			}
		}, 0.65, false, 6},
		// Two deletes merge #01 into #0, stored under "#"; "#0" is gone.
		"merge": {func(t *testing.T, other *Index, _ *tcpnet.Client) {
			for _, k := range []float64{0.2, 0.6} {
				if _, err := other.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
		}, 0.7, false, 2},
		// A split of #01 that crashed after its intent mark.
		"torn": {func(t *testing.T, _ *Index, client *tcpnet.Client) {
			b := getLeaf(t, client, x)
			marked := markedSplit(b)
			if err := client.WriteIf(context.Background(), x.Name().Key(), marked, b.Epoch); err != nil {
				t.Fatal(err)
			}
		}, 0.7, true, 4},
	} {
		t.Run(name, func(t *testing.T) {
			client, _ := startProbeCluster(t, 3)
			other, err := New(client, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []float64{0.1, 0.2, 0.6} {
				if _, err := other.Insert(record.Record{Key: k}); err != nil {
					t.Fatal(err)
				}
			}
			if b := getLeaf(t, client, x); len(b.Records) != 1 {
				t.Fatalf("the tree is not the one this test builds: %s", b)
			}
			spy := &probeSpy{Client: client, t: t}
			wcfg := cfg
			wcfg.LeafCache = true
			ix, err := New(spy, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ix.Search(0.6); err != nil { // the cache notes #01
				t.Fatal(err)
			}
			tc.move(t, other, client)

			if _, err := ix.Insert(record.Record{Key: tc.key, Value: []byte("w")}); err != nil {
				t.Fatal(err)
			}
			applied, ridden, _ := spy.patchCounts()
			f := ix.Metrics()
			if spy.patchCount() < 2 || applied != 1 || ridden != 1 || f.Write.RidesApplied != 1 || f.Write.RidesRefused != int64(spy.patchCount()-1) {
				t.Errorf("%d patches, %d applied, %d of those riding a probe; the index counted %d applied rides and %d refused; want the cached leaf's answered as a probe, and one applied by the probe that ended the search",
					spy.patchCount(), applied, ridden, f.Write.RidesApplied, f.Write.RidesRefused)
			}
			if rec, _, err := other.Search(tc.key); err != nil || string(rec.Value) != "w" {
				t.Errorf("Search(%v) = %v, %v", tc.key, rec, err)
			}
			if n, err := other.Count(); err != nil || n != tc.count {
				t.Errorf("Count = %d, %v, want %d: the write landed once", n, err, tc.count)
			}
			if f.Cache.Stale != 1 || (f.Repair.Repairs == 1) != tc.torn {
				t.Errorf("%d stale cache entries, %d repairs", f.Cache.Stale, f.Repair.Repairs)
			}
			if err := other.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// getLeaf is the leaf labelled x as stored under its name.
func getLeaf(t *testing.T, client *tcpnet.Client, x bitlabel.Label) *Bucket {
	t.Helper()
	v, err := client.Get(context.Background(), x.Name().Key())
	b, ok := v.(*Bucket)
	if err != nil || !ok || b.Label != x {
		t.Fatalf("under %s: %v, %v; want leaf %s", x.Name(), v, err, x)
	}
	return b
}

// Eight writers race over one cluster at θ = 4, every commit a patch that
// only the storing peer guards: nothing fences a write that lands between a
// split's threshold-crossing patch and its intent mark. The peer's refusal
// of a new key at the weight bound is what holds it: after every burst no
// leaf weighs past θ + its depth (CheckInvariants, overweight), every key
// is stored exactly once, and the tree is sound. With the leaf caches on
// the patches ride the probes the caches name; off, the probes lastProbe
// picks as their searches' last.
func TestPatchedWritersKeepTheWeightBound(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			patchedWritersKeepTheWeightBound(t, cached)
		})
	}
}

func patchedWritersKeepTheWeightBound(t *testing.T, cached bool) {
	const nWriters, perWriter, bursts = 8, 12, 4
	cfg := Config{SplitThreshold: 4, Depth: 20, LeafCache: cached}
	client, _ := startProbeCluster(t, 3)
	spy := &probeSpy{Client: client, t: t}
	verify, err := New(hideProber(client), Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	writers := make([]*Index, nWriters)
	for w := range writers {
		if writers[w], err = New(spy, cfg); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(41))
	want := map[float64]bool{}
	for burst := 0; burst < bursts; burst++ {
		// Every writer's keys in one narrow band: the same few leaves fill
		// and split under all of them at once.
		centre := rng.Float64()
		keys := make([][]float64, nWriters)
		for w := range keys {
			for i := 0; i < perWriter; i++ {
				k := math.Mod(centre+rng.Float64()/256, 1)
				keys[w] = append(keys[w], k)
				want[k] = true
			}
		}
		errs := make([]error, nWriters)
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, k := range keys[w] {
					if _, err := writers[w].Insert(record.Record{Key: k, Value: []byte{byte(w)}}); err != nil {
						errs[w] = fmt.Errorf("writer %d: Insert(%v): %w", w, k, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := verify.CheckInvariants(); err != nil {
			t.Fatalf("after burst %d: %v", burst, err)
		}
		leaves, err := verify.Leaves()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[float64]int{}
		for _, b := range leaves {
			if d := b.Label.Len(); d < cfg.Depth && b.Weight() > cfg.SplitThreshold+d {
				t.Errorf("after burst %d: leaf %s weighs %d, past %d + %d", burst, b.Label, b.Weight(), cfg.SplitThreshold, d)
			}
			for _, r := range b.Records {
				if !keyspace.IntervalOf(b.Label).Contains(r.Key) {
					t.Errorf("after burst %d: %v stored in %s", burst, r.Key, b.Label)
				}
				seen[r.Key]++
			}
		}
		for k := range want {
			if seen[k] != 1 {
				t.Errorf("after burst %d: key %v stored %d times, want once", burst, k, seen[k])
			}
		}
		if len(seen) != len(want) {
			t.Errorf("after burst %d: %d keys stored, want %d", burst, len(seen), len(want))
		}
	}
	var retries int64
	for _, ix := range writers {
		retries += ix.Metrics().Write.WriterRetries
	}
	applied, ridden, _ := spy.patchCounts()
	t.Logf("%d patches applied, %d of them riding a probe; %d writer retries", applied, ridden, retries)
	if ridden == 0 {
		t.Error("no patch rode a probe")
	}
}

// replayed is one probe of a replayed search: its key, how many names its
// bounds left, and the depth of the last leaf the search had met that did
// not cover delta (0 before it met one).
type replayed struct {
	key   string
	names int
	met   int
}

// replaySearch runs Algorithm 2 for delta over d's quiet tree with plain
// gets, as a lookup with the cache off does, and returns its probes —
// their names left counted by collecting them, not with Label.Names — and
// the leaf the search ended at.
func replaySearch(t *testing.T, d dht.DHT, delta float64, depth int) (probes []replayed, leaf *Bucket) {
	t.Helper()
	mu, err := keyspace.Mu(delta, depth)
	if err != nil {
		t.Fatal(err)
	}
	met := 0
	for lo, hi := 1, depth; lo <= hi; {
		x := mu.Prefix(lo + (hi-lo)/2)
		left := map[bitlabel.Label]bool{}
		for k := lo; k <= hi; k++ {
			left[mu.Prefix(k).Name()] = true
		}
		probes = append(probes, replayed{key: x.Name().Key(), names: len(left), met: met})
		v, err := d.Get(context.Background(), x.Name().Key())
		if errors.Is(err, dht.ErrNotFound) {
			hi = x.Name().Len()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if leaf = v.(*Bucket); leaf.Contains(delta) {
			return probes, leaf
		}
		met = leaf.Label.Len()
		next, ok := x.NextName(mu)
		if !ok {
			break
		}
		lo = next.Len()
	}
	t.Fatalf("the replay of %v's search found no covering leaf", delta)
	return nil, nil
}

// An insert whose search is left with one name is done by the probe its
// patch rides: over real servers, with the cache off, it costs exactly the
// probes of its search, one round trip each, and the last of them is the
// patch the leaf's peer applied.
func TestOneNameLeftWriteCommitsInItsProbes(t *testing.T) {
	client, srvs := startProbeCluster(t, 3)
	cfg := Config{SplitThreshold: 8, Depth: 20}
	builder, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if _, err := builder.Insert(record.Record{Key: rng.Float64(), Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	spy := &probeSpy{Client: client, t: t}
	ix, err := New(spy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := hideProber(client)
	found := 0
	for tries := 0; found < 5 && tries < 2000; tries++ {
		// A key whose search takes more than one probe, the last with one
		// name left, and whose leaf takes it without splitting.
		k := rng.Float64()
		replay, leaf := replaySearch(t, plain, k, cfg.Depth)
		if len(replay) < 2 || replay[len(replay)-1].names != 1 || leaf.Weight()+1 >= cfg.SplitThreshold {
			continue
		}
		found++
		probes, _, _ := spy.counts()
		patches, ridden := spy.patchCount(), spy.riddenCount()
		served0, _ := served(srvs)
		cost, err := ix.Insert(record.Record{Key: k, Value: []byte("one name")})
		served1, _ := served(srvs)
		now, _, _ := spy.counts()
		trips := now - probes + spy.patchCount() - patches
		if n := len(replay); err != nil || cost != (Cost{Lookups: n, Steps: n}) || trips != n ||
			served1-served0 != int64(n) || spy.riddenCount() != ridden+1 {
			t.Errorf("Insert(%v), a search of probes %+v: %+v, %v; %d round trips, the servers counted %d lookups, %d patches applied by the probe they rode",
				k, replay, cost, err, trips, served1-served0, spy.riddenCount()-ridden)
		}
	}
	if found < 5 {
		t.Fatalf("%d keys found whose search ends with one name left", found)
	}
	if err := builder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ridingLocal is dht.Local with the probe and patch planes of a substrate
// that applies no patch: a probe is a plain get, a patch is refused beside
// that get's answer, and each probe is on record with whether a patch rode
// it.
type ridingLocal struct {
	*dht.Local
	probes []probed
}

// probed is one probe a ridingLocal answered.
type probed struct {
	key     string
	patched bool
}

func (r *ridingLocal) Probe(ctx context.Context, key string, _ uint64) (dht.Value, error) {
	r.probes = append(r.probes, probed{key: key})
	return r.Local.Get(ctx, key)
}

func (r *ridingLocal) ProbeBatch(ctx context.Context, keys []string, _ uint64) ([]dht.Value, []error) {
	return r.Local.GetBatch(ctx, keys)
}

func (r *ridingLocal) Patch(ctx context.Context, key string, _ uint64, _ []byte) (dht.Value, error) {
	r.probes = append(r.probes, probed{key: key, patched: true})
	v, err := r.Local.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return v, dht.ErrPatchRefused
}

func (r *ridingLocal) WritePatchIf(context.Context, string, []byte, uint64) (dht.Value, error) {
	return nil, dht.ErrPatchRefused
}

// Replayed in process at the ledger's shape with the cache off — θ = 100,
// D = 20, 2^17 Gaussian keys bulk-loaded, then 2 000 fresh ones inserted,
// at two seeds — a write's patch rides exactly the probes of its search
// that lastProbe names: one with one name left; after the search has met
// a leaf that did not cover the key, the probe of the name of mu's prefix
// at that leaf's depth; before, one with two names left. The search probes
// the names it probes without riders, in the same order. The last probe,
// the one a patching peer applies the patch at, carries it for about 0.77
// of the inserts, and about 0.015 rides an insert ride a probe that is not
// the last, where riding every probe with at most two names left carried
// it for 0.56 at 0.09 such rides an insert.
func TestRidesReplayedAtTheLedgersShape(t *testing.T) {
	for _, seed := range []int64{1, 97} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			ridesReplayedAtTheLedgersShape(t, seed)
		})
	}
}

func ridesReplayedAtTheLedgersShape(t *testing.T, seed int64) {
	local := dht.NewLocal()
	cfg := Config{SplitThreshold: 100, Depth: 20}
	builder, err := New(local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Gaussian, seed)
	if _, err := builder.BulkLoad(gen.Records(1 << 17)); err != nil {
		t.Fatal(err)
	}
	sub := &ridingLocal{Local: local}
	ix, err := New(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 2000
	var rides, applied int
	for _, rec := range gen.Records(inserts) {
		mu, err := keyspace.Mu(rec.Key, cfg.Depth)
		if err != nil {
			t.Fatal(err)
		}
		probes, _ := replaySearch(t, local, rec.Key, cfg.Depth)
		sub.probes = sub.probes[:0]
		if _, err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if len(sub.probes) != len(probes) {
			t.Fatalf("Insert(%v) made %d probes, its replayed search %d", rec.Key, len(sub.probes), len(probes))
		}
		for i, p := range sub.probes {
			r := probes[i]
			atMet := r.met > 0 && mu.Prefix(r.met).Name().Key() == r.key
			if want := r.names == 1 || r.met == 0 && r.names == 2 || atMet; p.key != r.key || p.patched != want {
				t.Fatalf("Insert(%v): probe %d of %q, patched %v; the replay probes %q with %d names left, the last leaf met at depth %d: patched %v",
					rec.Key, i, p.key, p.patched, r.key, r.names, r.met, want)
			}
			if p.patched {
				rides++
			}
		}
		if sub.probes[len(probes)-1].patched {
			applied++
		}
	}
	f := ix.Metrics().Write
	if f.RidesApplied != 0 || f.RidesRefused != int64(rides) {
		t.Errorf("the index counted %d applied rides and %d refused, want none and %d", f.RidesApplied, f.RidesRefused, rides)
	}
	per, wasted := float64(applied)/inserts, float64(rides-applied)/inserts
	t.Logf("%.3f rides per insert, %.3f on the probe that ended the search, %.3f on one that did not", float64(rides)/inserts, per, wasted)
	if per < 0.70 {
		t.Errorf("%.3f inserts in one were done by the probe their patch rode, want at least 0.70", per)
	}
	if wasted > 0.05 {
		t.Errorf("%.3f rides an insert rode a probe that did not end the search, want at most 0.05", wasted)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Four writers insert fresh Gaussian keys at once over real servers, cache
// off, into a tree deep enough — 2^14 Gaussian keys at θ = 16, 1 699 leaves
// 6 to 14 deep — that most of their searches meet a leaf before their
// last probe, so that most rides are the ones that leaf's depth picks. The
// writers' splits race those rides: every record lands exactly once
// (Count), the tree stays sound (CheckInvariants), every written value
// reads back, and the probe a patch rode does more of the inserts than
// the 0.56 it did on the ledger when a patch rode every probe with at most
// two names left (0.52 on this tree; 0.69 since).
func TestDepthChosenRidesUnderRacingWriters(t *testing.T) {
	const nWriters, perWriter = 4, 150
	cfg := Config{SplitThreshold: 16, Depth: 20}
	client, _ := startProbeCluster(t, 3)
	builder, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Gaussian, 7)
	loaded := gen.Records(1 << 14)
	if _, err := builder.BulkLoad(loaded); err != nil {
		t.Fatal(err)
	}
	stored := map[float64][]byte{}
	for _, r := range loaded {
		stored[r.Key] = r.Value
	}
	keys := make([][]float64, nWriters)
	for w := range keys {
		for len(keys[w]) < perWriter {
			if k := gen.Key(); stored[k] == nil {
				keys[w] = append(keys[w], k)
				stored[k] = []byte{byte(w), byte(len(keys[w]))}
			}
		}
	}
	writers := make([]*Index, nWriters)
	errs := make([]error, nWriters)
	var wg sync.WaitGroup
	for w := range writers {
		if writers[w], err = New(client, cfg); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, k := range keys[w] {
				if _, err := writers[w].Insert(record.Record{Key: k, Value: stored[k]}); err != nil {
					errs[w] = fmt.Errorf("writer %d: Insert(%v): %w", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n, err := builder.Count(); err != nil || n != len(stored) {
		t.Errorf("Count = %d, %v, want %d", n, err, len(stored))
	}
	if err := builder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range stored {
		if rec, _, err := builder.Search(k); err != nil || string(rec.Value) != string(v) {
			t.Fatalf("Search(%v) = %v, %v, want the value %v", k, rec, err, v)
		}
	}
	var applied, refused int64
	for _, ix := range writers {
		f := ix.Metrics().Write
		applied, refused = applied+f.RidesApplied, refused+f.RidesRefused
	}
	share := float64(applied) / (nWriters * perWriter)
	t.Logf("%.3f inserts in one done by the probe their patch rode, %.3f rides an insert refused", share, float64(refused)/(nWriters*perWriter))
	if share <= 0.56 {
		t.Errorf("%.3f inserts in one done by the probe their patch rode, want more than 0.56", share)
	}
}
