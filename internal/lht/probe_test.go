package lht

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
	"lht/internal/tcpnet"
)

// These tests run the index over real tcpnet servers, whose binary wire
// is the one substrate that answers probes with headers, against the
// same index with the capability hidden: a trimmed reply may change what
// crosses the wire and nothing else.

// startProbeCluster boots n servers and dials one client over them.
func startProbeCluster(t *testing.T, n int) (*tcpnet.Client, []*tcpnet.Server) {
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
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, srvs
}

// wholeOnly is a substrate with its Prober hidden and its batch and
// conditional planes intact: the plain-Get arm.
type wholeOnly struct {
	dht.DHT
	dht.Batcher
	dht.Conditional
}

func hideProber(c *tcpnet.Client) dht.DHT { return wholeOnly{c, c, c} }

// probeSpy is the client with every probe and its reply on record.
type probeSpy struct {
	*tcpnet.Client
	t *testing.T
	// verify re-reads what a header was cut from, which costs the servers
	// a lookup the plain-Get arm does not make.
	verify bool

	mu            sync.Mutex
	probes        int                // Probe calls
	headers       int                // answered with a BucketHeader
	tornExcluding int                // answered with a whole torn bucket that excludes the hinted key
	headerFor     map[string]float64 // DHT key -> a data key whose probe of it got a header
}

func (s *probeSpy) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	v, err := s.Client.Probe(ctx, key, hint)
	delta := math.Float64frombits(hint)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes++
	switch r := v.(type) {
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
	results            []string // per key: bucket and cost
	lookups, failed    int64    // served by the servers during the pass
	cache              []bitlabel.Label
	hits, stale, miss  int64
	ixLookups, ixFails int64
}

func traceLookups(t *testing.T, ix *Index, srvs []*tcpnet.Server, keys []float64) lookupTrace {
	t.Helper()
	var tr lookupTrace
	l0, f0 := served(srvs)
	for _, k := range keys {
		b, cost, err := ix.LookupBucket(k)
		if err != nil {
			t.Fatalf("LookupBucket(%v): %v", k, err)
		}
		if !b.Contains(k) {
			t.Fatalf("LookupBucket(%v) returned %s", k, b.Label)
		}
		enc, _ := EncodeBucket(b)
		tr.results = append(tr.results, fmt.Sprintf("%x %+v", enc, cost))
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
			return fmt.Sprintf("query %d: bucket or cost differs", i)
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
// every bucket whole return the same buckets at the same cost, leave the
// same leaf cache and counters behind, and put the same load on the
// servers — while a good share of the prober's replies were headers.
func TestProbesMatchPlainGets(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/cache=%v", seed, cached), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				theta := 4 + rng.Intn(6)
				cfg := Config{SplitThreshold: theta, MergeThreshold: rng.Intn(theta/2 + 1), Depth: 20}
				client, srvs := startProbeCluster(t, 3)
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

				var present []float64
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
					keys := make([]float64, 80)
					for i := range keys {
						keys[i] = rng.Float64()
						if i%2 == 0 {
							keys[i] = present[rng.Intn(len(present))]
						}
					}
					got := traceLookups(t, prober, srvs, keys)
					want := traceLookups(t, plain, srvs, keys)
					if d := got.diff(want); d != "" {
						t.Fatalf("round %d: prober against plain gets: %s", round, d)
					}
				}
				probes, headers, _ := spy.counts()
				if headers == 0 || headers >= probes {
					t.Errorf("%d of %d probes were answered with headers", headers, probes)
				}
				if err := builder.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
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
			v, err = client.Probe(ctx, tornKey, math.Float64bits(excluded(torn)))
			if b, ok := v.(*Bucket); err != nil || !ok || !sameBucket(b, torn) {
				t.Fatalf("probe of the torn bucket with a key it excludes: %#v, %v, want it whole", v, err)
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

// TestOnlyTheCoalescerStopsAProbe runs the index's own decorator stacks
// over the spy: retry, instrumentation and hedging pass probes down to
// the client; with CoalesceGets on none arrives, every fetch is a whole
// Get, and the answers are the same.
func TestOnlyTheCoalescerStopsAProbe(t *testing.T) {
	client, _ := startProbeCluster(t, 3)
	base := Config{SplitThreshold: 4, Depth: 20}
	builder, err := New(client, base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]float64, 64)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := builder.Insert(record.Record{Key: keys[i], Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	policy := dht.DefaultPolicy()
	for _, tc := range []struct {
		name   string
		mod    func(*Config)
		probes bool
	}{
		{"bare", func(*Config) {}, true},
		{"policy", func(c *Config) { c.Policy = &policy }, true},
		{"hedged", func(c *Config) { c.HedgeAfter = time.Second }, true},
		{"coalesced", func(c *Config) { c.CoalesceGets = true }, false},
		{"coalesced+hedged+policy", func(c *Config) { c.CoalesceGets, c.HedgeAfter, c.Policy = true, time.Second, &policy }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mod(&cfg)
			spy := &probeSpy{Client: client, t: t, verify: true}
			ix, err := New(spy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var lookups int
			for i, k := range keys {
				rec, cost, err := ix.Search(k)
				if err != nil || len(rec.Value) != 1 || rec.Value[0] != byte(i) {
					t.Fatalf("Search(%v) = %v, %v", k, rec, err)
				}
				lookups += cost.Lookups
			}
			probes, headers, _ := spy.counts()
			switch {
			case tc.probes && (probes != lookups || headers == 0):
				t.Errorf("%d lookups reached the client as %d probes, %d answered with headers", lookups, probes, headers)
			case !tc.probes && probes != 0:
				t.Errorf("%d probes got past the coalescer", probes)
			}
		})
	}
}
