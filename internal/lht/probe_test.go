package lht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/metrics"
	"lht/internal/record"
	"lht/internal/tcpnet"
)

// These tests run the index over real tcpnet servers, whose binary wire
// is the one substrate that answers probes with headers and records,
// against the same index with the capability hidden: a short reply may
// change what crosses the wire and nothing else.

// startProbeCluster boots n servers and dials one client over them.
func startProbeCluster(t *testing.T, n int) (*tcpnet.Client, []*tcpnet.Server) {
	t.Helper()
	return startReplicatedProbeCluster(t, n, 1, nil)
}

// startReplicatedProbeCluster is startProbeCluster with each key on
// replicas of the n servers and the client's counters chained onto agg.
func startReplicatedProbeCluster(t *testing.T, n, replicas int, agg *metrics.Counters) (*tcpnet.Client, []*tcpnet.Server) {
	t.Helper()
	srvs := make([]*tcpnet.Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := tcpnet.NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		srvs[i], addrs[i] = srv, ln.Addr().String()
	}
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: addrs, Replicas: replicas, Counters: agg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, srvs
}

// wholeOnly is a substrate with its Prober hidden and its batch plane
// intact: the plain-Get arm.
type wholeOnly struct {
	dht.DHT
	dht.Batcher
}

func hideProber(c *tcpnet.Client) dht.DHT { return wholeOnly{c, c} }

// probeSpy is the client with every probe and its reply on record.
type probeSpy struct {
	*tcpnet.Client
	t *testing.T
	// verify re-reads what a header was cut from, which costs the servers
	// a lookup the plain-Get arm does not make.
	verify bool

	mu            sync.Mutex
	probes        int                // Probe calls
	recordOnly    int                // of those, asking for the record alone
	headers       int                // answered with a BucketHeader
	records       int                // answered with a BucketRecord
	tornExcluding int                // answered with a whole torn bucket that excludes the hinted key
	headerFor     map[string]float64 // DHT key -> a data key whose probe of it got a header
	patches       int                // Patch calls
	applied       int                // of those, applied
	ridden        int                // of those, applied ones that rode a search's probe
	patchRecords  int                // refused, and answered with a record reply
	inPlace       int                // WritePatchIf calls
	cuts          int                // applied patches answered with a split reply
}

func (s *probeSpy) Patch(ctx context.Context, key string, hint uint64, patch []byte) (dht.Value, error) {
	v, err := s.Client.Patch(ctx, key, hint, patch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.patches++
	if _, ok := v.(*BucketRecord); ok && errors.Is(err, dht.ErrPatchRefused) {
		s.patchRecords++
	}
	if err == nil {
		s.applied++
		if patch[0]&patchWantLabel != 0 {
			s.ridden++
		}
	}
	if _, ok := v.(*Cut); ok && err == nil {
		s.cuts++
	}
	return v, err
}

func (s *probeSpy) cutCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cuts
}

// patchCounts is how many patches were applied, how many of those rode
// a search's probe — each a lookup the whole-bucket arm pays and the
// patched arm does not — and how many were refused with a record reply.
func (s *probeSpy) patchCounts() (applied, ridden, records int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied, s.ridden, s.patchRecords
}

// riddenCount is patchCounts' second count.
func (s *probeSpy) riddenCount() int {
	_, ridden, _ := s.patchCounts()
	return ridden
}

func (s *probeSpy) WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	s.mu.Lock()
	s.inPlace++
	s.mu.Unlock()
	return s.Client.WritePatchIf(ctx, key, patch, ifEpoch)
}

func (s *probeSpy) patchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.patches
}

func (s *probeSpy) inPlaceCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inPlace
}

func (s *probeSpy) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	v, err := s.Client.Probe(ctx, key, hint)
	delta, recordOnly := parseProbeHint(hint)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes++
	if recordOnly {
		s.recordOnly++
	}
	switch r := v.(type) {
	case *BucketRecord:
		s.records++
		if !recordOnly {
			s.t.Errorf("probe of %q for the bucket covering %v answered with a record reply", key, delta)
		}
		if !s.verify {
			break
		}
		// As for a header below: what is stored now is what was projected.
		// It must be an untorn leaf with this label that covers the hinted
		// key, and the record's value the one a search of the whole bucket
		// finds (the reply carries no key: the hinted one is the record's).
		w, gerr := s.Client.Get(ctx, key)
		b, ok := w.(*Bucket)
		if gerr != nil || !ok {
			s.t.Errorf("probe of %q answered with a record, plain get with %T, %v", key, w, gerr)
			break
		}
		i := record.FindByKey(b.Records, delta)
		if b.Label != r.Label || b.Torn() || !b.Contains(delta) || r.Found != (i >= 0) ||
			r.Found && (r.Record.Key != 0 || string(r.Record.Value) != string(b.Records[i].Value)) {
			s.t.Errorf("probe of %q for %v answered with %+v; stored: %s, torn %v, record %d", key, delta, r, b.Label, b.Torn(), i)
		}
	case *BucketHeader:
		s.headers++
		if s.headerFor != nil {
			s.headerFor[key] = delta
		}
		if !s.verify {
			break
		}
		// The tests probe from one goroutine, so what is stored now is
		// what was trimmed: it must be an untorn leaf with this label
		// that excludes the hinted key.
		w, gerr := s.Client.Get(ctx, key)
		b, ok := w.(*Bucket)
		if gerr != nil || !ok {
			s.t.Errorf("probe of %q answered with a header, plain get with %T, %v", key, w, gerr)
		} else if b.Label != r.Label || b.Torn() || b.Contains(delta) {
			s.t.Errorf("probe of %q for %v answered with header %s; stored: %s, torn %v", key, delta, r.Label, b.Label, b.Torn())
		}
	case *Bucket:
		if r.Torn() && !r.Contains(delta) {
			s.tornExcluding++
		}
	}
	return v, err
}

func (s *probeSpy) counts() (probes, headers, tornExcluding int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probes, s.headers, s.tornExcluding
}

// recordCounts is how many probes asked for the record alone and how
// many were answered with one.
func (s *probeSpy) recordCounts() (recordOnly, records int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordOnly, s.records
}

// cacheLabels lists the leaf cache from most to least recently used.
func cacheLabels(ix *Index) []bitlabel.Label {
	if ix.cache == nil {
		return nil
	}
	ix.cache.mu.Lock()
	defer ix.cache.mu.Unlock()
	var out []bitlabel.Label
	for e := ix.cache.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(bitlabel.Label))
	}
	return out
}

// served sums what the servers counted.
func served(srvs []*tcpnet.Server) (lookups, failedGets int64) {
	for _, s := range srvs {
		f := s.Metrics()
		lookups += f.Lookup.Total
		failedGets += f.Lookup.FailedGets
	}
	return
}

// lookupTrace is everything one arm's pass over the query keys shows.
type lookupTrace struct {
	results            []string // per key: bucket (or record, or error) and cost
	lookups, failed    int64    // served by the servers during the pass
	cache              []bitlabel.Label
	hits, stale, miss  int64
	ixLookups, ixFails int64
}

func traceLookups(t *testing.T, ix *Index, srvs []*tcpnet.Server, keys []float64) lookupTrace {
	t.Helper()
	return trace(t, ix, srvs, keys, func(k float64) string {
		b, cost, err := ix.LookupBucket(k)
		if err != nil {
			t.Fatalf("LookupBucket(%v): %v", k, err)
		}
		if !b.Contains(k) {
			t.Fatalf("LookupBucket(%v) returned %s", k, b.Label)
		}
		enc, _ := EncodeBucket(b)
		return fmt.Sprintf("%x %+v", enc, cost)
	})
}

// traceSearches is traceLookups for the exact-match query: the record,
// bit for bit, or that there is none, and the cost.
func traceSearches(t *testing.T, ix *Index, srvs []*tcpnet.Server, keys []float64) lookupTrace {
	t.Helper()
	return trace(t, ix, srvs, keys, func(k float64) string {
		rec, cost, err := ix.Search(k)
		if err != nil && !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("Search(%v): %v", k, err)
		}
		return fmt.Sprintf("%#x %x %+v %v", math.Float64bits(rec.Key), rec.Value, cost, err)
	})
}

func trace(t *testing.T, ix *Index, srvs []*tcpnet.Server, keys []float64, query func(float64) string) lookupTrace {
	t.Helper()
	var tr lookupTrace
	l0, f0 := served(srvs)
	for _, k := range keys {
		tr.results = append(tr.results, query(k))
	}
	l1, f1 := served(srvs)
	tr.lookups, tr.failed = l1-l0, f1-f0
	tr.cache = cacheLabels(ix)
	f := ix.Metrics()
	tr.hits, tr.stale, tr.miss = f.Cache.Hits, f.Cache.Stale, f.Cache.Misses
	tr.ixLookups, tr.ixFails = f.Lookup.Total, f.Lookup.FailedGets
	return tr
}

func (a lookupTrace) diff(b lookupTrace) string {
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return fmt.Sprintf("query %d: %s\nagainst %s", i, a.results[i], b.results[i])
		}
	}
	if a.lookups != b.lookups || a.failed != b.failed {
		return fmt.Sprintf("servers counted %d lookups, %d failed gets against %d, %d", a.lookups, a.failed, b.lookups, b.failed)
	}
	if fmt.Sprint(a.cache) != fmt.Sprint(b.cache) {
		return fmt.Sprintf("leaf caches differ:\n%v\n%v", a.cache, b.cache)
	}
	if a.hits != b.hits || a.stale != b.stale || a.miss != b.miss || a.ixLookups != b.ixLookups || a.ixFails != b.ixFails {
		return fmt.Sprintf("counters differ: %+v against %+v", a, b)
	}
	return ""
}

// TestProbesMatchPlainGets is the property: over random trees that keep
// changing under the readers, an index that probes and one that fetches
// every bucket whole return the same buckets and the same records (or
// ErrKeyNotFound) at the same cost, leave the same leaf cache and
// counters behind, and put the same load on the servers — while a good
// share of the prober's replies were headers and every exact-match query
// it made ended in a record reply.
func TestProbesMatchPlainGets(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/cache=%v", seed, cached), func(t *testing.T) {
				client, srvs := startProbeCluster(t, 3)
				probesMatchPlainGets(t, seed, cached, client, srvs, nil)
			})
		}
		// Two holders a key. Once the tree stands and the caches are warm
		// (Algorithm 2's misses need every holder's word, a cache hit does
		// not), one server dies: it was the first holder tried for some
		// leaves, and those probes fail over with their hints.
		t.Run(fmt.Sprintf("seed%d/replicas=2,one dead", seed), func(t *testing.T) {
			agg := &metrics.Counters{}
			client, srvs := startReplicatedProbeCluster(t, 3, 2, agg)
			probesMatchPlainGets(t, seed, true, client, srvs, agg)
		})
	}
}

// probesMatchPlainGets runs the property over one cluster. A non-nil agg,
// the client's counters, adds a last pass with one server dead.
func probesMatchPlainGets(t *testing.T, seed int64, cached bool, client *tcpnet.Client, srvs []*tcpnet.Server, agg *metrics.Counters) {
	rng := rand.New(rand.NewSource(seed))
	theta := 4 + rng.Intn(6)
	cfg := Config{SplitThreshold: theta, MergeThreshold: rng.Intn(theta/2 + 1), Depth: 20}
	builder, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LeafCache = cached
	spy := &probeSpy{Client: client, t: t}
	prober, err := New(spy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(hideProber(client), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both arms make the same queries in the same order, bucket lookups
	// then exact-match queries, so their caches see one history.
	searches := 0
	compare := func(when string, keys []float64) {
		t.Helper()
		got := traceLookups(t, prober, srvs, keys)
		want := traceLookups(t, plain, srvs, keys)
		if d := got.diff(want); d != "" {
			t.Fatalf("%s: prober against plain gets, LookupBucket: %s", when, d)
		}
		got = traceSearches(t, prober, srvs, keys)
		want = traceSearches(t, plain, srvs, keys)
		if d := got.diff(want); d != "" {
			t.Fatalf("%s: prober against plain gets, Search: %s", when, d)
		}
		searches += len(keys)
	}

	var present, keys []float64
	for round := 0; round < 3; round++ {
		// Grow and shrink the tree behind the readers' backs:
		// uniform keys, a cluster (deep one-sided splits), and
		// deletes that merge leaves the caches still hold.
		centre := rng.Float64()
		for i := 0; i < 60; i++ {
			k := rng.Float64()
			if i%2 == 0 {
				k = math.Mod(centre+rng.Float64()/4096, 1)
			}
			if _, err := builder.Insert(record.Record{Key: k, Value: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
			present = append(present, k)
		}
		for i := 0; i < 25 && len(present) > 0; i++ {
			j := rng.Intn(len(present))
			if _, err := builder.Delete(present[j]); err != nil && !errors.Is(err, ErrKeyNotFound) {
				t.Fatal(err)
			}
			present = append(present[:j], present[j+1:]...)
		}
		keys = make([]float64, 80)
		for i := range keys {
			keys[i] = rng.Float64()
			if i%2 == 0 {
				keys[i] = present[rng.Intn(len(present))]
			}
		}
		compare(fmt.Sprintf("round %d", round), keys)
	}
	if agg != nil {
		// The victim is whoever answers most of these reads first.
		reads := make([]int64, len(srvs))
		for i, srv := range srvs {
			reads[i] = -srv.Metrics().Lookup.Total
		}
		compare("caches warm", keys)
		victim := 0
		for i, srv := range srvs {
			if reads[i] += srv.Metrics().Lookup.Total; reads[i] > reads[victim] {
				victim = i
			}
		}
		if err := srvs[victim].Close(); err != nil {
			t.Fatal(err)
		}
		before := agg.Snapshot().Health.Failovers
		compare("one server dead", keys)
		if agg.Snapshot().Health.Failovers == before {
			t.Error("no read failed over to a second holder")
		}
	}
	probes, headers, _ := spy.counts()
	if headers == 0 || headers >= probes {
		t.Errorf("%d of %d probes were answered with headers", headers, probes)
	}
	if recordOnly, records := spy.recordCounts(); records != searches || recordOnly < records || recordOnly >= probes {
		t.Errorf("%d searches: %d of %d probes asked for the record alone, %d were answered with one", searches, recordOnly, probes, records)
	}
	if agg != nil {
		return // the checker walks every name, and misses need the dead holder's word
	}
	if err := builder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A data key's sign is not part of it: -0.0 and +0.0 are one key, which
// passes keyspace.CheckKey either way, while the hint word spends the
// sign bit on the record-only wish. Insert one, get the other, on both
// arms; then insert -0.0 over the record stored as +0.0: through the
// prober it goes as a patch riding its search's probe, one lookup under
// the plain arm's cost, and leaves the record the plain arm's
// clone-and-put leaves, sign bit and all.
func TestProbeOfSignedZero(t *testing.T) {
	client, srvs := startProbeCluster(t, 3)
	cfg := Config{SplitThreshold: 5, Depth: 20} // key 0's leaf ends up one short of splitting
	spy := &probeSpy{Client: client, t: t}
	prober, err := New(spy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(hideProber(client), cfg)
	if err != nil {
		t.Fatal(err)
	}
	builder, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	for i, k := range []float64{0, 0.3, 0.6, 0.9, 0.01, 0.02} {
		if _, err := builder.Insert(record.Record{Key: k, Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	zeros := []float64{negZero, 0}
	got, want := traceSearches(t, prober, srvs, zeros), traceSearches(t, plain, srvs, zeros)
	if d := got.diff(want); d != "" {
		t.Fatalf("stored as +0: %s", d)
	}
	if !strings.HasPrefix(got.results[0], "0x0 00 ") { // +0's bits, the first record's value
		t.Fatalf("Search(-0) of the record stored as +0: %s", got.results[0])
	}

	// leftmost is the leaf of key 0 as stored, its epoch aside.
	leftmost := func() string {
		b, _, err := builder.LookupBucket(0)
		if err != nil {
			t.Fatal(err)
		}
		b = b.Clone()
		b.Epoch = 0
		return fmt.Sprintf("%x", mustEncode(t, b))
	}
	minus := record.Record{Key: negZero, Value: []byte("minus")}
	_, records := spy.recordCounts()
	cost, err := prober.Insert(minus)
	if err != nil {
		t.Fatal(err)
	}
	// Every prefix of key 0's bits is named "#", so the search's one probe
	// has one name left and carries the patch, which the leaf applies.
	if _, after := spy.recordCounts(); after != records || spy.patchCount() != 1 || spy.riddenCount() != 1 {
		t.Errorf("the insert of -0 ended in %d record replies and %d patches, %d of them ridden; want one riding its one probe",
			after-records, spy.patchCount(), spy.riddenCount())
	}
	patched := leftmost()
	if _, err := builder.Insert(record.Record{Key: 0, Value: []byte{0}}); err != nil { // back to +0
		t.Fatal(err)
	}
	wantCost, err := plain.Insert(minus)
	if err != nil || cost != (Cost{Lookups: wantCost.Lookups - 1, Steps: wantCost.Steps - 1}) {
		t.Errorf("Insert(-0) cost %+v as a ridden patch, %+v (%v) as a whole bucket", cost, wantCost, err)
	}
	if whole := leftmost(); patched != whole {
		t.Errorf("the leaf after Insert(-0) as a patch:\n%s\nas a whole bucket:\n%s", patched, whole)
	}
	got, want = traceSearches(t, prober, srvs, zeros), traceSearches(t, plain, srvs, zeros)
	got.ixLookups++ // the lookup the ridden patch saved
	if d := got.diff(want); d != "" {
		t.Fatalf("stored as -0: %s", d)
	}
	if !strings.HasPrefix(got.results[1], fmt.Sprintf("%#x %x ", uint64(1)<<63, "minus")) {
		t.Fatalf("Search(+0) of the record stored as -0: %s", got.results[1])
	}
	if n, err := prober.Count(); err != nil || n != 6 {
		t.Errorf("Count = %d, %v: -0 and +0 are one key, want 6", n, err)
	}
}

// excluded returns a data key outside b's interval.
func excluded(b *Bucket) float64 {
	iv := b.Interval()
	if iv.Lo > 0 {
		return iv.Lo / 2
	}
	return (iv.Hi + 1) / 2
}

// TestProbeOfTornLeafComesBackWholeAndIsRepaired tears a leaf deep in a
// tree both ways and probes it with keys it does not cover. The peer must
// not reduce it to a header: the whole bucket comes back, intent and all,
// the search repairs it in line, and the tree ends up sound.
func TestProbeOfTornLeafComesBackWholeAndIsRepaired(t *testing.T) {
	ctx := context.Background()
	cfg := Config{SplitThreshold: 4, MergeThreshold: 3, Depth: 20}
	grow := func(t *testing.T, client *tcpnet.Client) []float64 {
		ix, err := New(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		keys := make([]float64, 48)
		for i := range keys {
			keys[i] = rng.Float64()
			if _, err := ix.Insert(record.Record{Key: keys[i], Value: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		return keys
	}

	tears := map[string]func(t *testing.T, client *tcpnet.Client, keys []float64) (tornKey string, first float64, gone map[float64]bool){
		// A split that crashed right after its intent: the deepest leaf,
		// marked exactly as Index.split marks it.
		"split": func(t *testing.T, client *tcpnet.Client, keys []float64) (string, float64, map[float64]bool) {
			// Search first, to learn which leaves answer which keys with a
			// header, then tear the deepest of those: the same search will
			// walk the same path up to it.
			spy := &probeSpy{Client: client, t: t, headerFor: map[string]float64{}}
			ix, err := New(spy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if _, _, err := ix.Search(k); err != nil {
					t.Fatal(err)
				}
			}
			var victim *Bucket
			var first float64
			for key, k := range spy.headerFor {
				v, err := client.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				b := v.(*Bucket)
				if victim == nil || b.Label.Len() > victim.Label.Len() || b.Label.Len() == victim.Label.Len() && k < first {
					victim, first = b, k
				}
			}
			if victim == nil {
				t.Fatal("no probe was answered with a header")
			}
			marked := victim.Clone()
			marked.Pending = Pending{Kind: PendingSplit}
			marked.Epoch++
			key := victim.Label.Name().Key()
			if err := client.WriteIf(ctx, key, marked, victim.Epoch); err != nil {
				t.Fatal(err)
			}
			return key, first, nil
		},
		// A merge that crashed between making the merged bucket durable
		// and removing the obsolete child. Nothing says which search, if
		// any, probes the merged bucket for a key it excludes (first is
		// NaN), so this arm pins the peer's reply and the repair only.
		"merge": func(t *testing.T, client *tcpnet.Client, keys []float64) (string, float64, map[float64]bool) {
			crash := dht.WithCrashPoints(client, dht.CrashRule{Op: dht.OpRemoveIf, N: 1, Halt: true})
			ix, err := New(crash, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gone := map[float64]bool{}
			for _, k := range keys {
				b, _, err := ix.LookupBucket(k)
				if err != nil {
					t.Fatal(err)
				}
				// The record is gone once the delete reaches its merge.
				gone[k] = true
				if _, err := ix.Delete(k); errors.Is(err, dht.ErrCrashed) {
					return b.Label.Parent().Name().Key(), math.NaN(), gone
				} else if err != nil {
					t.Fatal(err)
				}
			}
			t.Fatal("no delete triggered a merge")
			return "", 0, nil
		},
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			client, _ := startProbeCluster(t, 3)
			keys := grow(t, client)
			tornKey, first, gone := tear(t, client, keys)

			v, err := client.Get(ctx, tornKey)
			torn, ok := v.(*Bucket)
			if err != nil || !ok || !torn.Torn() {
				t.Fatalf("bucket under %q after the tear: %v, %v", tornKey, v, err)
			}
			iv := torn.Interval()
			for name, hint := range map[string]uint64{
				"a key it excludes":                ProbeHint(excluded(torn), false),
				"a key it excludes, record wanted": ProbeHint(excluded(torn), true),
				"a key it covers, record wanted":   ProbeHint(iv.Lo, true),
				"a record it holds, record wanted": ProbeHint(torn.Records[0].Key, true),
			} {
				v, err = client.Probe(ctx, tornKey, hint)
				if b, ok := v.(*Bucket); err != nil || !ok || !sameBucket(b, torn) {
					t.Fatalf("probe of the torn bucket with %s: %#v, %v, want it whole", name, v, err)
				}
			}

			// The tear's chosen key goes first, then the others the torn
			// leaf excludes, so its first contact with a search is a probe
			// the peer could have trimmed.
			spy := &probeSpy{Client: client, t: t, verify: true}
			ix, err := New(spy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var order []float64
			if !math.IsNaN(first) {
				order = append(order, first)
			}
			for _, k := range keys {
				if !torn.Contains(k) {
					order = append(order, k)
				}
			}
			for _, k := range keys {
				if torn.Contains(k) {
					order = append(order, k)
				}
			}
			for _, k := range order {
				_, _, err := ix.Search(k)
				if gone[k] && !errors.Is(err, ErrKeyNotFound) || !gone[k] && err != nil {
					t.Fatalf("Search(%v) = %v; deleted: %v", k, err, gone[k])
				}
			}
			if _, _, tornExcluding := spy.counts(); tornExcluding == 0 && !math.IsNaN(first) {
				t.Error("no search met the torn bucket through a probe for a key it excludes")
			}
			f := ix.Metrics()
			if f.Repair.TornSplits+f.Repair.TornMerges != 1 || f.Repair.Repairs != 1 {
				t.Errorf("TornSplits=%d TornMerges=%d Repairs=%d, want one tear, one repair", f.Repair.TornSplits, f.Repair.TornMerges, f.Repair.Repairs)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// stackSpy is a probeSpy that also counts what a probing, patching index
// should never send the client: plain gets, whole-bucket PutIfs and
// unhinted multi-gets. It counts the range sweeps' hinted multi-gets too.
type stackSpy struct {
	*probeSpy

	mu           sync.Mutex
	gets         int // Get calls
	putIfs       int // PutIf calls
	plainBatches int // GetBatch calls
	hintedSweeps int // ProbeBatch calls carrying a range hint
}

func (s *stackSpy) Get(ctx context.Context, key string) (dht.Value, error) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	return s.Client.Get(ctx, key)
}

func (s *stackSpy) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	s.mu.Lock()
	s.putIfs++
	s.mu.Unlock()
	return s.Client.PutIf(ctx, key, v, ifEpoch)
}

func (s *stackSpy) GetBatch(ctx context.Context, keys []string) ([]dht.Value, []error) {
	s.mu.Lock()
	s.plainBatches++
	s.mu.Unlock()
	return s.Client.GetBatch(ctx, keys)
}

func (s *stackSpy) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]dht.Value, []error) {
	s.mu.Lock()
	if hint&probeRange != 0 {
		s.hintedSweeps++
	}
	s.mu.Unlock()
	return s.Client.ProbeBatch(ctx, keys, hint)
}

// TestNoStackTurnsTheRecordPathOff builds every decorator stack the
// index's Config can ask for — hedging, the retry policy, a trace sink
// and the leaf cache, each on and off — over one tcpnet cluster, and
// holds each to the record path: every lookup of a search reaches the
// client as a probe for the record alone, a one-record write goes out as
// a patch (one rides a probe, and no whole PutIf is sent), a range's
// sweeps carry its hint, and no plain get or multi-get is sent at all.
func TestNoStackTurnsTheRecordPathOff(t *testing.T) {
	client, _ := startProbeCluster(t, 3)
	base := Config{SplitThreshold: 4, Depth: 20}
	builder, err := New(client, base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]float64, 64)
	values := make([][]byte, len(keys))
	for i := range keys {
		keys[i], values[i] = rng.Float64(), []byte{byte(i)}
		if _, err := builder.Insert(record.Record{Key: keys[i], Value: values[i]}); err != nil {
			t.Fatal(err)
		}
	}
	policy := dht.DefaultPolicy()
	layers := []struct {
		name string
		on   func(*Config)
	}{
		{"hedged", func(c *Config) { c.HedgeAfter = time.Second }},
		{"policy", func(c *Config) { c.Policy = &policy }},
		{"traced", func(c *Config) { c.TraceSink = metrics.NewRing(64) }},
		{"cached", func(c *Config) { c.LeafCache = true }},
	}
	for stack := 0; stack < 1<<len(layers); stack++ {
		cfg, name := base, ""
		for i, l := range layers {
			if stack&(1<<i) != 0 {
				l.on(&cfg)
				name += "+" + l.name
			}
		}
		name = strings.TrimPrefix(name, "+")
		if name == "" {
			name = "bare"
		}
		t.Run(name, func(t *testing.T) {
			spy := &stackSpy{probeSpy: &probeSpy{Client: client, t: t, verify: true}}
			ix, err := New(spy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			spy.gets = 0 // New's look for the root, which no operation makes
			var lookups int
			for i, k := range keys {
				rec, cost, err := ix.Search(k)
				if err != nil || !bytes.Equal(rec.Value, values[i]) {
					t.Fatalf("Search(%v) = %v, %v; want value %v", k, rec, err, values[i])
				}
				lookups += cost.Lookups
			}
			probes, headers, _ := spy.counts()
			recordOnly, records := spy.recordCounts()
			if probes != lookups || recordOnly != probes || records != len(keys) || !cfg.LeafCache && headers == 0 {
				t.Errorf("%d lookups of %d searches reached the client as %d probes, %d for the record alone, %d answered with headers, %d with records",
					lookups, len(keys), probes, recordOnly, headers, records)
			}

			for i, k := range keys {
				values[i] = []byte{byte(i), byte(stack)}
				if _, err := ix.Insert(record.Record{Key: k, Value: values[i]}); err != nil {
					t.Fatalf("Insert(%v): %v", k, err)
				}
			}
			if rides := ix.Metrics().Write.RidesApplied; rides == 0 || spy.riddenCount() == 0 {
				t.Errorf("no update's patch rode a probe: write_rides_applied %d, %d ridden patches seen", rides, spy.riddenCount())
			}

			for _, r := range [][2]float64{{0.1, 0.9}, {0.25, 0.5}, {0, 1}} {
				if _, _, err := ix.Range(r[0], r[1]); err != nil {
					t.Fatalf("Range(%v, %v): %v", r[0], r[1], err)
				}
			}
			spy.mu.Lock()
			defer spy.mu.Unlock()
			if spy.putIfs != 0 || spy.gets != 0 || spy.plainBatches != 0 || spy.hintedSweeps == 0 {
				t.Errorf("the client was sent %d PutIfs, %d plain gets and %d plain multi-gets, and %d hinted sweeps",
					spy.putIfs, spy.gets, spy.plainBatches, spy.hintedSweeps)
			}
		})
	}
}

// rangeLiar is a peer whose honest answer to a range probe is tampered
// with on its way to the index: to a single get's, or with sweep set to
// each slot of a round's multi-get instead. lie returns what the index
// gets in place of the run, and whether the index should see through it.
type rangeLiar struct {
	*tcpnet.Client
	lie   func(key string, run *bucketRun) (v dht.Value, caught bool)
	sweep bool

	mu     sync.Mutex
	lies   int // runs tampered with
	caught int // of those, the ones the index must drop and re-fetch
}

func (p *rangeLiar) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	v, err := p.Client.Probe(ctx, key, hint)
	if err != nil || p.sweep {
		return v, err
	}
	return p.tamper(key, v), nil
}

func (p *rangeLiar) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]dht.Value, []error) {
	vals, errs := p.Client.ProbeBatch(ctx, keys, hint)
	for i := range vals {
		if errs[i] == nil && p.sweep {
			vals[i] = p.tamper(keys[i], vals[i])
		}
	}
	return vals, errs
}

// tamper returns what the index gets in place of v, a reply to a get of
// key: v itself unless it is a run.
func (p *rangeLiar) tamper(key string, v dht.Value) dht.Value {
	run, ok := v.(*bucketRun)
	if !ok {
		return v
	}
	v, caught := p.lie(key, run)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lies++
	if caught {
		p.caught++
	}
	return v
}

// A short reply to a range probe is believed no further than a whole
// bucket would be. A header is taken only from a leaf outside the range:
// one whose label overlaps it — all an overlapping leaf gets out of a node
// that predates the range hint — costs one plain get of the bucket, as
// does a record reply, which no range asks for; and a run that carries
// records the hint excludes is filtered by the join like any bucket's
// records. No answer changes, and each dropped reply is one lookup more.
// (A run reply for a torn bucket, or one whose list does not parse, never
// gets this far: TestDecodeRunReply has the decoder refuse them, and the
// query fails as it does on a bucket that does not decode.)
func TestLyingRangeReplyIsRefetchedNotTrusted(t *testing.T) { lyingRangeReplies(t, false) }

// A swept slot is taken by the rule a single get's reply is: the same
// three lies to a round's multi-get cost the same, and change nothing.
func TestLyingSweptSlotIsRefetchedNotTrusted(t *testing.T) { lyingRangeReplies(t, true) }

// lyingRangeReplies runs range queries through a rangeLiar that lies to
// the single gets, or with sweep to the rounds' multi-gets, against the
// same queries through an honest peer.
func lyingRangeReplies(t *testing.T, sweep bool) {
	ctx := context.Background()
	client, _ := startProbeCluster(t, 3)
	cfg := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20}
	honest, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 300; i++ {
		if _, err := honest.Insert(record.Record{Key: rng.Float64(), Value: []byte{byte(i), byte(i >> 8)}}); err != nil {
			t.Fatal(err)
		}
	}
	type query struct{ lo, hi float64 }
	queries := []query{{0, 1}, {0.5, 0.5 + 1.0/(1<<20)}}
	for i := 0; i < 30; i++ {
		lo := rng.Float64() * 0.9
		queries = append(queries, query{lo, lo + rng.Float64()*(1-lo)/4})
	}
	for name, lie := range map[string]func(key string, run *bucketRun) (dht.Value, bool){
		"a header for a leaf that overlaps the range": func(_ string, run *bucketRun) (dht.Value, bool) {
			return &BucketHeader{Label: run.label}, true
		},
		"a record reply nobody asked for": func(_ string, run *bucketRun) (dht.Value, bool) {
			return &BucketRecord{Label: run.label}, true
		},
		"a run with records outside the hint": func(key string, run *bucketRun) (dht.Value, bool) {
			v, err := client.Get(ctx, key)
			if err != nil {
				t.Error(err)
				return run, false
			}
			b := v.(*Bucket)
			enc, err := record.AppendRun(nil, record.AppendList(nil, b.Records), math.Inf(-1), math.Inf(1), keyBits(b.Interval()))
			if err != nil {
				t.Error(err)
				return run, false
			}
			return &bucketRun{label: b.Label, n: len(b.Records), enc: enc}, false
		},
	} {
		t.Run(name, func(t *testing.T) {
			liar := &rangeLiar{Client: client, lie: lie, sweep: sweep}
			ix, err := New(liar, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				want, wantCost, err := honest.Range(q.lo, q.hi)
				if err != nil {
					t.Fatal(err)
				}
				before := liar.caught
				got, cost, err := ix.Range(q.lo, q.hi)
				if err != nil || !sameBucket(&Bucket{Records: got}, &Bucket{Records: want}) {
					t.Fatalf("Range(%v, %v) through the lying peer: %v, %v; through the honest one: %v", q.lo, q.hi, got, err, want)
				}
				if refetched := liar.caught - before; cost.Lookups != wantCost.Lookups+refetched || cost.Steps != wantCost.Steps {
					t.Errorf("Range(%v, %v): cost %+v through the lying peer, %+v through the honest one, want %d refetches more",
						q.lo, q.hi, cost, wantCost, refetched)
				}
			}
			// A round of one key is a single get: the LCA probe of case 2,
			// and a forwarding round with one branch left.
			if liar.lies < len(queries)/2 {
				t.Errorf("%d runs tampered with over %d ranges", liar.lies, len(queries))
			}
		})
	}
}
