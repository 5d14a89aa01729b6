package lht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"lht/internal/chord"
	"lht/internal/dht"
	"lht/internal/record"
	"lht/internal/tcpnet"
	"lht/internal/workload"
)

// The many-writer linearizability oracle. Because LHT splits never
// cascade (section 5), the tree after a burst of inserts depends on
// arrival order — a split that dumps every record into one child leaves
// that child overweight until the next insert into it, so an execution
// can simply run out of keys before a subtree finishes refining. The
// oracle therefore drives every execution to the workload's unique fixed
// point before comparing: n keys on the lattice (i+0.5)/n with
// SplitThreshold 4, followed by "settle rounds" that re-upsert every key
// (an upsert re-triggers the split check, so any still-overweight leaf
// refines by one more level per visit). At the fixed point no interval of
// depth < log2(n/2) can be a leaf (it would hold >= 3 records and split
// on the next visit) and no deeper leaf ever splits (2 lattice keys,
// weight 3, below the trigger), so every history — sequential or N-way
// concurrent — converges to the complete depth-log2(n/2) tree with 2
// records per leaf. Concurrent executions must match it byte for byte
// (epochs excluded — they count CAS rounds, which legitimately differ
// between histories). Lost or duplicated records are asserted BEFORE the
// settle rounds, where a re-upsert could mask a lost commit.

// latticeRecords returns n records on the key lattice (i+0.5)/n, each
// value a deterministic function of the key so any two executions store
// identical bytes.
func latticeRecords(n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			Key:   (float64(i) + 0.5) / float64(n),
			Value: []byte(fmt.Sprintf("v%04d", i)),
		}
	}
	return recs
}

// fingerprintTree renders the tree's logical final state: leaves in walk
// order, records sorted by key within each leaf (concurrent committers
// append in commit order), pending-intent kind included (a quiesced tree
// must have none), epochs excluded.
func fingerprintTree(t *testing.T, ix *Index) string {
	t.Helper()
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatalf("Leaves: %v", err)
	}
	var buf bytes.Buffer
	for _, b := range leaves {
		recs := append([]record.Record(nil), b.Records...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
		fmt.Fprintf(&buf, "%s pending=%v:", b.Label, b.Pending.Kind)
		for _, r := range recs {
			fmt.Fprintf(&buf, " %g=%q", r.Key, r.Value)
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

// sequentialFingerprint runs the reference execution: one writer, one
// Local substrate, keys in ascending order, then settle rounds until the
// tree stops changing (the fixed point). It verifies the fixed point is
// the fully refined lattice tree: every leaf under the split trigger.
func sequentialFingerprint(t *testing.T, recs []record.Record, cfg Config) string {
	t.Helper()
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]record.Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for _, r := range sorted {
		if _, err := ix.Insert(r); err != nil {
			t.Fatalf("reference Insert(%g): %v", r.Key, err)
		}
	}
	prev := fingerprintTree(t, ix)
	for round := 0; ; round++ {
		if round > 10 {
			t.Fatal("reference execution did not reach a fixed point in 10 settle rounds")
		}
		for _, r := range sorted {
			if _, err := ix.Insert(r); err != nil {
				t.Fatalf("reference settle Insert(%g): %v", r.Key, err)
			}
		}
		cur := fingerprintTree(t, ix)
		if cur == prev {
			break
		}
		prev = cur
	}
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range leaves {
		if b.Weight() >= cfg.SplitThreshold {
			t.Fatalf("reference fixed point has overweight leaf %s", b)
		}
	}
	return prev
}

// startServers boots n tcpnet servers on loopback and returns their
// addresses.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := tcpnet.NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// TestMultiWriterOracle races N independent index clients — each with its
// own cache and counters, sharing only the substrate — over disjoint
// interleaved slices of the lattice workload, on every substrate class,
// and requires the final tree to be byte-identical to the sequential
// reference execution. Run under -race.
func TestMultiWriterOracle(t *testing.T) {
	const nWriters = 8
	cfg := Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 20}
	recs := latticeRecords(256)
	want := sequentialFingerprint(t, recs, cfg)

	substrates := []struct {
		name   string
		make   func(t *testing.T) dht.DHT
		policy bool // wrap writers with the retry policy (flaky arm)
	}{
		{"local", func(t *testing.T) dht.DHT { return dht.NewLocal() }, false},
		{"chord", func(t *testing.T) dht.DHT {
			ring, err := chord.NewRing(16, chord.Config{Seed: 77, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			return ring
		}, false},
		{"tcpnet-binary", func(t *testing.T) dht.DHT {
			c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: startServers(t, 3)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			return c
		}, false},
		// The flaky arm injects one-shot transient faults — including the
		// lost-acknowledgement After variant, where the conditional write
		// took effect and the policy's retry then loses the CAS to the
		// writer's own first attempt — and must still converge exactly.
		{"local-flaky", func(t *testing.T) dht.DHT {
			return dht.WithCrashPoints(dht.NewLocal(),
				dht.CrashRule{Op: dht.OpPutIf, N: 3, Transient: true},
				dht.CrashRule{Op: dht.OpPutIf, N: 9, After: true, Transient: true},
				dht.CrashRule{Op: dht.OpPutIf, N: 40, After: true, Transient: true},
				dht.CrashRule{Op: dht.OpCreateIf, N: 2, After: true, Transient: true},
				dht.CrashRule{Op: dht.OpWriteIf, N: 2, Transient: true},
			)
		}, true},
	}

	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			d := sub.make(t)
			wcfg := cfg
			if sub.policy {
				p := dht.DefaultPolicy()
				wcfg.Policy = &p
			}

			// Bootstrap once, then build every writer client up front: New
			// probes the substrate outside the policy stack, and the oracle
			// races mutations, not bootstraps (New's create-if-absent
			// convergence has its own test in the dhttest battery).
			verify, err := New(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			writers := make([]*Index, nWriters)
			for w := range writers {
				if writers[w], err = New(d, wcfg); err != nil {
					t.Fatal(err)
				}
			}

			race := func() {
				errs := make([]error, nWriters)
				var wg sync.WaitGroup
				for w := 0; w < nWriters; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < len(recs); i += nWriters {
							if _, err := writers[w].Insert(recs[i]); err != nil {
								errs[w] = fmt.Errorf("writer %d: Insert(%g): %w", w, recs[i].Key, err)
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
			}
			race()

			// Exactly-once, checked before any settle round can re-deliver
			// a lost commit: every key present once, nothing else, a valid
			// tree.
			leaves, err := verify.Leaves()
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[float64]int)
			for _, b := range leaves {
				for _, r := range b.Records {
					seen[r.Key]++
				}
			}
			for _, r := range recs {
				if seen[r.Key] != 1 {
					t.Errorf("key %g stored %d times after the race, want exactly once", r.Key, seen[r.Key])
				}
			}
			if len(seen) != len(recs) {
				t.Errorf("%d distinct keys stored, want %d", len(seen), len(recs))
			}
			if err := verify.CheckInvariants(); err != nil {
				t.Errorf("CheckInvariants after race: %v", err)
			}

			// Settle rounds, still racing, until the fixed point.
			got := fingerprintTree(t, verify)
			for round := 0; got != want && round < 10; round++ {
				race()
				got = fingerprintTree(t, verify)
			}
			if got != want {
				t.Errorf("concurrent fixed point differs from sequential reference:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if err := verify.CheckInvariants(); err != nil {
				t.Errorf("CheckInvariants at fixed point: %v", err)
			}

			var conflicts, retries int64
			for _, ix := range writers {
				f := ix.Metrics()
				conflicts += f.Write.CASConflicts
				retries += f.Write.WriterRetries
			}
			t.Logf("%d writers: %d CAS conflicts, %d writer retries", nWriters, conflicts, retries)
		})
	}
}

// TestMultiWriterHaltingCrashes kills writers mid-flight: each of the N
// writers races through its slice behind its own crash schedule that
// halts the simulated process at a different conditional-put ordinal —
// half of them with After set, the lost-acknowledgement window where the
// commit landed but the writer died unacknowledged. Survivor guarantees:
// every acknowledged insert is in the final tree exactly once, nothing is
// duplicated, and a fresh client's Scrub converges to a clean tree.
func TestMultiWriterHaltingCrashes(t *testing.T) {
	shared := dht.NewLocal()
	cfg := Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 20}
	recs := latticeRecords(256)

	if _, err := New(shared, cfg); err != nil { // bootstrap
		t.Fatal(err)
	}

	const nWriters = 8
	type outcome struct {
		committed []float64 // inserts acknowledged before the crash
		attempted []float64 // every insert tried, acknowledged or not
	}
	outs := make([]outcome, nWriters)
	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		// Writer w dies at its (5+3w)-th epoch-guarded commit; even
		// writers lose only the acknowledgement (the put landed).
		crash := dht.WithCrashPoints(shared, dht.CrashRule{
			Op: dht.OpPutIf, N: 5 + 3*w, After: w%2 == 0, Halt: true,
		})
		ix, err := New(crash, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, ix *Index) {
			defer wg.Done()
			for i := w; i < len(recs); i += nWriters {
				outs[w].attempted = append(outs[w].attempted, recs[i].Key)
				if _, err := ix.Insert(recs[i]); err != nil {
					if !errors.Is(err, dht.ErrCrashed) {
						t.Errorf("writer %d: Insert(%g): %v", w, recs[i].Key, err)
					}
					return
				}
				outs[w].committed = append(outs[w].committed, recs[i].Key)
			}
		}(w, ix)
	}
	wg.Wait()

	// A fresh client over the raw substrate inherits the wreckage; its
	// scrubber must converge (each pass repairs what the previous pass
	// exposed) and the result must satisfy exactly-once for every
	// acknowledged commit.
	fresh, err := New(shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := false
	for pass := 0; pass < 5 && !clean; pass++ {
		rep, err := fresh.Scrub(context.Background())
		if err != nil {
			t.Fatalf("Scrub pass %d: %v\n%s", pass, err, rep)
		}
		clean = rep.Clean()
	}
	if !clean {
		t.Fatal("Scrub did not converge to a clean tree in 5 passes")
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after scrub: %v", err)
	}

	leaves, err := fresh.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]int)
	for _, b := range leaves {
		for _, r := range b.Records {
			seen[r.Key]++
		}
	}
	attempted := make(map[float64]bool)
	for _, o := range outs {
		for _, k := range o.attempted {
			attempted[k] = true
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("key %g stored %d times, want exactly once", k, n)
		}
		if !attempted[k] {
			t.Errorf("key %g in the tree was never inserted", k)
		}
	}
	for w, o := range outs {
		for _, k := range o.committed {
			if seen[k] != 1 {
				t.Errorf("writer %d: acknowledged insert %g lost (stored %d times)", w, k, seen[k])
			}
		}
	}
}

// TestMultiWriterStress is the CI -race soak: 8 writers (insertions and
// deletions, merges enabled), 4 concurrent readers, a scrubber running
// against the live tree, and one writer cancelled mid-run. It asserts no
// unexpected errors while racing, exactly-once presence for every
// uncancelled writer's surviving keys afterwards, a clean final scrub,
// and that no goroutines leak.
func TestMultiWriterStress(t *testing.T) {
	before := runtime.NumGoroutine()
	shared := dht.NewLocal()
	cfg := Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20}
	if _, err := New(shared, cfg); err != nil {
		t.Fatal(err)
	}

	const (
		nWriters = 8
		nReaders = 4
		perW     = 200
	)
	// Distinct keys via one global permutation of a fine lattice, so
	// writer slices never collide.
	perm := rand.New(rand.NewSource(99)).Perm(nWriters * perW)
	keyAt := func(i int) float64 { return (float64(perm[i]) + 0.5) / float64(nWriters*perW) }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelW, cancelOnce := 0, sync.Once{} // writer 0 is cancelled mid-run
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()

	// kept[w] collects keys writer w committed and did not delete;
	// deletions drop every third inserted key.
	kept := make([]map[float64]bool, nWriters)
	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		kept[w] = make(map[float64]bool)
		ix, err := New(shared, cfg)
		if err != nil {
			t.Fatal(err)
		}
		writers.Add(1)
		go func(w int, ix *Index) {
			defer writers.Done()
			wc := context.Background()
			if w == cancelW {
				wc = wctx
			}
			for i := 0; i < perW; i++ {
				k := keyAt(w*perW + i)
				if w == cancelW && i == perW/2 {
					cancelOnce.Do(wcancel)
				}
				if _, err := ix.InsertContext(wc, record.Record{Key: k, Value: []byte{byte(w)}}); err != nil {
					if errors.Is(err, context.Canceled) {
						return
					}
					t.Errorf("writer %d: Insert(%g): %v", w, k, err)
					return
				}
				kept[w][k] = true
				if i%3 == 2 {
					del := keyAt(w*perW + i - 1)
					if _, err := ix.DeleteContext(wc, del); err != nil {
						if errors.Is(err, context.Canceled) {
							return
						}
						t.Errorf("writer %d: Delete(%g): %v", w, del, err)
						return
					}
					delete(kept[w], del)
				}
			}
		}(w, ix)
	}

	done := make(chan struct{})
	var aux sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		ix, err := New(shared, cfg)
		if err != nil {
			t.Fatal(err)
		}
		aux.Add(1)
		go func(r int, ix *Index) {
			defer aux.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				if rng.Intn(4) == 0 {
					lo := rng.Float64() * 0.9
					if _, _, err := ix.RangeContext(ctx, lo, lo+0.1); err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("reader %d: Range: %v", r, err)
						return
					}
				} else {
					_, _, err := ix.SearchContext(ctx, keyAt(rng.Intn(nWriters*perW)))
					if err != nil && !errors.Is(err, ErrKeyNotFound) && !errors.Is(err, context.Canceled) {
						t.Errorf("reader %d: Search: %v", r, err)
						return
					}
				}
			}
		}(r, ix)
	}
	scrubIx, err := New(shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Mid-run reports are allowed to be dirty (live intents look
			// like tears); the scrubber must only never corrupt or error.
			if _, err := scrubIx.Scrub(ctx); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("live Scrub: %v", err)
				return
			}
		}
	}()

	writers.Wait()
	close(done)
	aux.Wait()
	cancel()

	fresh, err := New(shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := false
	for pass := 0; pass < 5 && !clean; pass++ {
		rep, err := fresh.Scrub(context.Background())
		if err != nil {
			t.Fatalf("final Scrub: %v\n%s", err, rep)
		}
		clean = rep.Clean()
	}
	if !clean {
		t.Fatal("final Scrub did not converge in 5 passes")
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	leaves, err := fresh.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]int)
	for _, b := range leaves {
		for _, r := range b.Records {
			seen[r.Key]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("key %g stored %d times", k, n)
		}
	}
	// Every uncancelled writer's surviving keys are present; the
	// cancelled writer's state is indeterminate per key (a cancelled
	// commit may or may not have landed) so it is only covered by the
	// duplicate and invariant checks above.
	for w := 0; w < nWriters; w++ {
		if w == cancelW {
			continue
		}
		for k := range kept[w] {
			if seen[k] != 1 {
				t.Errorf("writer %d: surviving key %g stored %d times, want 1", w, k, seen[k])
			}
		}
	}

	// Goroutine-leak check: everything spawned above is joined, so the
	// count must come back down (allow the runtime a moment to retire).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines: %d before, %d after; leak suspected", before, g)
	}
}

// TestMultiWriterZipfSoak is the skew race soak: a Zipf(1.5) arrival
// stream concentrating almost all traffic onto a handful of leaves, 6
// writers updating the hot keys in place while 4 readers hammer the same
// distribution and a scrubber walks the live tree. Skew is its own race
// schedule — every writer and reader converges on one leaf. Over dht.Local
// the writers race whole-bucket compare-and-swaps; over tcpnet their
// patches ride their searches' probes and race each other, the splits
// they trigger and the scrubber on the storing peers. Afterwards the key
// population must be intact (updates never change membership) and the
// tree clean; over dht.Local no goroutine may leak, and over tcpnet
// patches must have ridden.
func TestMultiWriterZipfSoak(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		before := runtime.NumGoroutine()
		zipfSoak(t, dht.NewLocal())
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before+2 {
			t.Errorf("goroutines: %d before, %d after; leak suspected", before, g)
		}
	})
	t.Run("tcpnet", func(t *testing.T) {
		c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: startServers(t, 3)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		if rides := zipfSoak(t, c); rides == 0 {
			t.Error("no patch rode a probe: the writers took the whole-bucket path over a patching peer")
		}
	})
}

// zipfSoak runs TestMultiWriterZipfSoak's schedule over shared, checks the
// tree it leaves, and returns the writers' applied rides
// (metrics.RidesApplied).
func zipfSoak(t *testing.T, shared dht.DHT) (rides int64) {
	cfg := Config{SplitThreshold: 8, MergeThreshold: 4, Depth: 20}
	seedIx, err := New(shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 256
	keys := make([]float64, nKeys)
	for i := range keys {
		keys[i] = (float64(i) + 0.5) / nKeys
		if _, err := seedIx.Insert(record.Record{Key: keys[i], Value: []byte{0}}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		nWriters = 6
		nReaders = 4
		perW     = 150
	)
	ctx := context.Background()
	var writers sync.WaitGroup
	writerIxs := make([]*Index, nWriters)
	for w := 0; w < nWriters; w++ {
		ix, err := New(shared, cfg)
		if err != nil {
			t.Fatal(err)
		}
		writerIxs[w] = ix
		arr, err := workload.NewArrivals(keys, 1.5, int64(w))
		if err != nil {
			t.Fatal(err)
		}
		writers.Add(1)
		go func(w int, ix *Index, arr *workload.Arrivals) {
			defer writers.Done()
			for i := 0; i < perW; i++ {
				k := arr.Next()
				if _, err := ix.Insert(record.Record{Key: k, Value: []byte{byte(w), byte(i)}}); err != nil {
					t.Errorf("writer %d: update %g: %v", w, k, err)
					return
				}
			}
		}(w, ix, arr)
	}

	done := make(chan struct{})
	var aux sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		ix, err := New(shared, cfg)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := workload.NewArrivals(keys, 1.5, int64(100+r))
		if err != nil {
			t.Fatal(err)
		}
		aux.Add(1)
		go func(r int, ix *Index, arr *workload.Arrivals) {
			defer aux.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := ix.SearchContext(ctx, arr.Next()); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r, ix, arr)
	}
	scrubIx, err := New(shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := scrubIx.Scrub(ctx); err != nil {
				t.Errorf("live Scrub: %v", err)
				return
			}
		}
	}()

	writers.Wait()
	close(done)
	aux.Wait()

	fresh, err := New(shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := false
	for pass := 0; pass < 5 && !clean; pass++ {
		rep, err := fresh.Scrub(context.Background())
		if err != nil {
			t.Fatalf("final Scrub: %v\n%s", err, rep)
		}
		clean = rep.Clean()
	}
	if !clean {
		t.Fatal("final Scrub did not converge in 5 passes")
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	leaves, err := fresh.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]int)
	for _, b := range leaves {
		for _, r := range b.Records {
			seen[r.Key]++
		}
	}
	for _, k := range keys {
		if seen[k] != 1 {
			t.Errorf("key %g stored %d times, want exactly once", k, seen[k])
		}
	}
	if len(seen) != nKeys {
		t.Errorf("tree holds %d keys, want %d", len(seen), nKeys)
	}
	for _, ix := range writerIxs {
		rides += ix.Metrics().Write.RidesApplied
	}
	return rides
}
