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

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/metrics"
	"lht/internal/record"
	"lht/internal/tcpnet"
)

// These tests run writes over real tcpnet servers, the one substrate
// where a write's lookup ends in a record reply and its commit is a
// patch, against the same writes with the capability hidden, which fetch,
// clone and PutIf the whole bucket: a patch may change what crosses the
// wire and nothing else.

// nameDialer dials cluster members by fixed names, so that two clusters
// hash their members, and so place every key, alike.
type nameDialer map[string]string

func (d nameDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var nd net.Dialer
	return nd.DialContext(ctx, network, d[addr])
}

// startNamedCluster boots n servers known to the client as node0..n-1.
func startNamedCluster(t *testing.T, n, replicas int) (*tcpnet.Client, []*tcpnet.Server) {
	t.Helper()
	srvs := make([]*tcpnet.Server, n)
	names := make([]string, n)
	dialer := nameDialer{}
	for i := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := tcpnet.NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		srvs[i], names[i] = srv, fmt.Sprintf("node%d:7000", i)
		dialer[names[i]] = ln.Addr().String()
	}
	c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: names, Replicas: replicas, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, srvs
}

// writeOp is one step of a seeded write stream.
type writeOp struct {
	del bool
	rec record.Record
}

// writeStream is a stream of inserts, overwrites, deletes and deletes of
// absent keys, half of it clustered so that leaves split deep and merge
// back.
func writeStream(seed int64, n int) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	var present []float64
	ops := make([]writeOp, n)
	centre := rng.Float64()
	for i := range ops {
		if i%150 == 0 {
			centre = rng.Float64()
		}
		switch p := rng.Intn(10); {
		case p < 5 || len(present) < 8: // insert
			k := rng.Float64()
			if i%2 == 0 {
				k = math.Mod(centre+rng.Float64()/2048, 1)
			}
			ops[i] = writeOp{rec: record.Record{Key: k, Value: []byte{byte(i), byte(i >> 8)}}}
			present = append(present, k)
		case p < 6: // overwrite, with a longer value
			k := present[rng.Intn(len(present))]
			ops[i] = writeOp{rec: record.Record{Key: k, Value: []byte(fmt.Sprintf("again-%d", i))}}
		case p < 9: // delete
			j := rng.Intn(len(present))
			ops[i] = writeOp{del: true, rec: record.Record{Key: present[j]}}
			present = append(present[:j], present[j+1:]...)
		default: // delete of an absent key
			ops[i] = writeOp{del: true, rec: record.Record{Key: rng.Float64()}}
		}
	}
	return ops
}

// writeTrace is everything one arm's run of a write stream shows.
type writeTrace struct {
	results                        []string // per op: cost and error
	absent                         int      // ops that ended in ErrKeyNotFound
	leaves                         []string // the tree, leaf by leaf, as EncodeBucket writes it
	lookups, failed                int64    // served by the servers during the run
	ixLookups, ixFails             int64
	conflicts, retries             int64
	splits, merges, moved, maint   int64
	cache                          []bitlabel.Label
	cacheHits, cacheStale, cacheMs int64
	ridesApplied                   int64 // the index's count; not compared across arms
}

// runWrites runs ops through ix and returns what they showed: op by op
// the cost, the error, the index's counters and the servers' load so far;
// at the end the tree as reader finds it. With spy, the patched arm's,
// each patch that rode a search's probe and was applied is counted back
// in as the lookup of the probe the whole-bucket arm pays for, in the
// op's cost and in every lookup total, so that the arms compare op by op.
func runWrites(t *testing.T, ix *Index, reader *Index, srvs []*tcpnet.Server, ops []writeOp, spy *probeSpy) writeTrace {
	t.Helper()
	ridden := func() int {
		if spy == nil {
			return 0
		}
		return spy.riddenCount()
	}
	var tr writeTrace
	l0, f0 := served(srvs)
	for i, o := range ops {
		r0 := ridden()
		var cost Cost
		var err error
		if o.del {
			cost, err = ix.Delete(o.rec.Key)
			if errors.Is(err, ErrKeyNotFound) {
				tr.absent++
			} else if err != nil {
				t.Fatalf("op %d: Delete(%v): %v", i, o.rec.Key, err)
			}
		} else if cost, err = ix.Insert(o.rec); err != nil {
			t.Fatalf("op %d: Insert(%v): %v", i, o.rec.Key, err)
		}
		n := ridden()
		cost.Lookups += n - r0
		cost.Steps += n - r0
		f := ix.Metrics()
		f.Lookup.Total += int64(n)
		f.Write.RidesApplied, f.Write.RidesRefused = 0, 0 // a substrate that does not patch refuses every ride
		l, fg := served(srvs)
		tr.results = append(tr.results, fmt.Sprintf("%+v %v | %+v %+v %+v | served %d, %d", cost, err, f.Lookup, f.Write, f.Cache, l+int64(n)-l0, fg-f0))
	}
	l1, f1 := served(srvs)
	tr.lookups, tr.failed = l1+int64(ridden())-l0, f1-f0
	f := ix.Metrics()
	tr.ixLookups, tr.ixFails = f.Lookup.Total+int64(ridden()), f.Lookup.FailedGets
	tr.conflicts, tr.retries = f.Write.CASConflicts, f.Write.WriterRetries
	tr.ridesApplied = f.Write.RidesApplied
	tr.splits, tr.merges, tr.moved, tr.maint = f.Lookup.Splits, f.Lookup.Merges, f.Lookup.MovedRecords, f.Lookup.Maintenance
	tr.cache = cacheLabels(ix)
	tr.cacheHits, tr.cacheStale, tr.cacheMs = f.Cache.Hits, f.Cache.Stale, f.Cache.Misses
	leaves, err := reader.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range leaves {
		tr.leaves = append(tr.leaves, fmt.Sprintf("%x", mustEncode(t, b)))
	}
	return tr
}

func (a writeTrace) diff(b writeTrace) string {
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return fmt.Sprintf("op %d: %s against %s", i, a.results[i], b.results[i])
		}
	}
	if len(a.leaves) != len(b.leaves) {
		return fmt.Sprintf("%d leaves against %d", len(a.leaves), len(b.leaves))
	}
	for i := range a.leaves {
		if a.leaves[i] != b.leaves[i] {
			return fmt.Sprintf("leaf %d:\n%s\nagainst\n%s", i, a.leaves[i], b.leaves[i])
		}
	}
	if fmt.Sprint(a.cache) != fmt.Sprint(b.cache) {
		return fmt.Sprintf("leaf caches differ:\n%v\n%v", a.cache, b.cache)
	}
	a.results, a.leaves, a.cache, b.results, b.leaves, b.cache = nil, nil, nil, nil, nil, nil
	a.ridesApplied, b.ridesApplied = 0, 0
	if fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Sprintf("counters differ: %+v against %+v", a, b)
	}
	return ""
}

// TestPatchedWritesMatchWholeWrites is the property: one seeded stream of
// inserts, overwrites, deletes and deletes of absent keys, long enough to
// split and merge, leaves byte-identical trees behind, op for op with the
// same errors, index counters and load on the servers, the same splits and
// merges and the same leaf cache, whether each write commits as a patch
// or as a whole bucket — while every write of the first arm that did not
// stop at a missing key was a patch, and every split's mark and commit and
// every merge's clear an in-place one. The costs are the same too, but for
// the patches that rode a probe — the one the leaf cache names, or the
// one lastProbe guessed was its search's last — and were applied by it: each
// write costs the whole arm's lookups minus exactly its applied rides, on
// the index and on the servers, and the index counts each such ride. Every
// arm rides; with the cache on, most writes do.
func TestPatchedWritesMatchWholeWrites(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, arm := range []struct {
			name     string
			cached   bool
			replicas int
		}{{"cache=false", false, 1}, {"cache=true", true, 1}, {"replicas=2", true, 2}} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, arm.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				theta := 4 + rng.Intn(6)
				cfg := Config{SplitThreshold: theta, MergeThreshold: theta/2 + 1, Depth: 20, LeafCache: arm.cached}
				ops := writeStream(seed, 700)

				run := func(hide bool) (writeTrace, *probeSpy) {
					client, srvs := startNamedCluster(t, 3, arm.replicas)
					spy := &probeSpy{Client: client, t: t}
					var d dht.DHT = spy
					if hide {
						d = hideProber(client)
					}
					ix, err := New(d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					reader, err := New(hideProber(client), Config{SplitThreshold: theta, Depth: 20})
					if err != nil {
						t.Fatal(err)
					}
					var patched *probeSpy
					if !hide {
						patched = spy
					}
					tr := runWrites(t, ix, reader, srvs, ops, patched)
					if err := reader.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					return tr, spy
				}
				got, spy := run(false)
				want, _ := run(true)
				if d := got.diff(want); d != "" {
					t.Fatalf("patched against whole writes: %s", d)
				}
				if got.splits < 10 || got.merges < 3 {
					t.Errorf("the stream made %d splits and %d merges: too tame to prove much", got.splits, got.merges)
				}
				applied, ridden, patchRecords := spy.patchCounts()
				if applied != len(ops)-got.absent {
					t.Errorf("%d patches applied for %d writes, %d of them deletes of absent keys", applied, len(ops), got.absent)
				}
				if _, records := spy.recordCounts(); records+ridden+patchRecords != len(ops) {
					t.Errorf("%d of %d write lookups ended in a record reply, %d in a patch that rode a probe, %d in a refused one's record reply",
						records, len(ops), ridden, patchRecords)
				}
				if ridden == 0 || arm.cached && 2*ridden <= len(ops) {
					t.Errorf("cache %v: %d of %d writes were done by the probe their patch rode, want some, and most with the cache",
						arm.cached, ridden, len(ops))
				}
				if got.ridesApplied != int64(ridden) {
					t.Errorf("the index counted %d applied rides, the client saw %d", got.ridesApplied, ridden)
				}
				if n := spy.inPlaceCount(); n != int(2*got.splits+got.merges) {
					t.Errorf("%d in-place patches for %d splits and %d merges, want two a split and one a merge", n, got.splits, got.merges)
				}
			})
		}
	}
}

// Two writers racing on the same few leaves, every commit a patch: lost
// compare-and-swaps re-run from the lookup as on the whole-bucket arm,
// and the tree converges on the sequential execution's.
func TestPatchedWritersConverge(t *testing.T) {
	const nWriters = 2
	cfg := Config{SplitThreshold: 4, Depth: 20}
	recs := latticeRecords(64)
	want := sequentialFingerprint(t, recs, cfg)
	agg := &metrics.Counters{}
	client, _ := startReplicatedProbeCluster(t, 3, 2, nil)
	spy := &probeSpy{Client: client, t: t}
	verify, err := New(hideProber(client), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := cfg
	wcfg.Aggregate = agg
	writers := make([]*Index, nWriters)
	for w := range writers {
		if writers[w], err = New(spy, wcfg); err != nil {
			t.Fatal(err)
		}
	}
	race := func() {
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Neighbouring keys to each writer: every leaf is contested.
				for i := w; i < len(recs); i += nWriters {
					if _, err := writers[w].Insert(recs[i]); err != nil {
						t.Errorf("writer %d: Insert(%g): %v", w, recs[i].Key, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	race()
	if n, err := verify.Count(); err != nil || n != len(recs) {
		t.Fatalf("Count after the race = %d, %v, want %d", n, err, len(recs))
	}
	got := fingerprintTree(t, verify)
	for round := 0; got != want && round < 10; round++ {
		race()
		got = fingerprintTree(t, verify)
	}
	if got != want {
		t.Errorf("patched fixed point differs from the sequential reference:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := verify.CheckInvariants(); err != nil {
		t.Error(err)
	}
	f := agg.Snapshot()
	if spy.patchCount() == 0 {
		t.Error("no write was patched")
	}
	t.Logf("%d patches, %d CAS conflicts, %d writer retries", spy.patchCount(), f.Write.CASConflicts, f.Write.WriterRetries)
}

// A split of a patched write runs from the crossing upsert's split reply,
// which carries only the half the split moves, and crashes on real
// servers, one and two replicas each: after that reply (the writer dies
// holding only the half, before its intent mark), after the mark lands,
// after the remote half's CreateIf lands, and at the commit (applied, its
// acknowledgement lost). Where the split tore, the next lookup finds the
// tree as a split that was never interrupted leaves it, repaired from the
// stored bytes. Where it had not begun, the leaf stands whole and untorn,
// as a yielded split leaves it, and the next write splits it.
func TestPatchedSplitCrashesRepairToTheNeverCrashedTree(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		oracle, _ := startNamedCluster(t, 3, replicas)
		if err := splitWorkload(t, oracle); err != nil {
			t.Fatalf("oracle workload: %v", err)
		}
		want := leafBytes(t, oracle)
		remote := func(k string) bool { return k == "#0" } // the split's remote half; the root leaf lives under "#"
		for _, tc := range []struct {
			name    string
			rule    dht.CrashRule
			inPlace int  // in-place patches that reached the servers
			torn    bool // the crash leaves the split torn
		}{
			{"after the crossing reply", dht.CrashRule{Op: dht.OpWriteIf, N: 1, Halt: true}, 0, false},
			{"after the mark", dht.CrashRule{Op: dht.OpWriteIf, N: 1, After: true, Halt: true}, 1, true},
			{"after the remote CreateIf", dht.CrashRule{Op: dht.OpCreateIf, Key: remote, N: 1, After: true, Halt: true}, 1, true},
			{"at the commit", dht.CrashRule{Op: dht.OpWriteIf, N: 2, After: true, Halt: true}, 2, false},
		} {
			name := tc.name
			if replicas > 1 {
				name = fmt.Sprintf("%s, %d replicas", name, replicas)
			}
			t.Run(name, func(t *testing.T) {
				client, _ := startNamedCluster(t, 3, replicas)
				spy := &probeSpy{Client: client, t: t}
				if err := splitWorkload(t, dht.WithCrashPoints(spy, tc.rule)); !errors.Is(err, dht.ErrCrashed) {
					t.Fatalf("splitting insert = %v, want ErrCrashed", err)
				}
				if n, cuts := spy.inPlaceCount(), spy.cutCount(); n != tc.inPlace || cuts != 1 {
					t.Fatalf("%d in-place patches reached the servers before the crash, after %d split replies; want %d after 1", n, cuts, tc.inPlace)
				}
				ix, err := New(client, Config{SplitThreshold: 4, Depth: 20})
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range splitKeys {
					rec, _, err := ix.Search(k)
					if err != nil || len(rec.Value) != 1 || rec.Value[0] != byte(i) {
						t.Fatalf("Search(%g) after the crash = %v, %v", k, rec, err)
					}
				}
				if s := ix.Metrics(); s.Repair.TornSplits != int64(btoi(tc.torn)) || s.Repair.Repairs != int64(btoi(tc.torn)) {
					t.Errorf("TornSplits=%d Repairs=%d, want %d each", s.Repair.TornSplits, s.Repair.Repairs, btoi(tc.torn))
				}
				got := leafBytes(t, client)
				if tc.inPlace > 0 && fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("after the crash the tree is\n%v\nwant the never-crashed\n%v", got, want)
				}
				if tc.inPlace == 0 {
					// The split never began: one untorn leaf, which the next
					// write splits.
					if len(got) != 1 {
						t.Fatalf("after a crash before the mark the tree is %v, want the one leaf", got)
					}
					if _, err := ix.Insert(record.Record{Key: 0.9}); err != nil {
						t.Fatal(err)
					}
					if s := ix.Metrics(); s.Lookup.Splits != 1 || len(leafBytes(t, client)) != 2 {
						t.Errorf("the next insert made %d splits, leaving %d leaves; want 1 and 2", s.Lookup.Splits, len(leafBytes(t, client)))
					}
				}
				if err := ix.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// leafBytes is the tree on d, leaf by leaf, as EncodeBucket writes it.
func leafBytes(t *testing.T, d *tcpnet.Client) []string {
	t.Helper()
	reader, err := New(hideProber(d), Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := reader.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(leaves))
	for i, b := range leaves {
		out[i] = fmt.Sprintf("%x", mustEncode(t, b))
	}
	return out
}
