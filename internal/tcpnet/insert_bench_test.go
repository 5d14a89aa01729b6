package tcpnet

import (
	"context"
	"sync/atomic"
	"testing"

	ilht "lht/internal/lht"
	"lht/internal/record"
	"lht/internal/workload"
)

// wireInsertIndex bulk-loads the end-to-end ledger's tree — 2^17 Gaussian
// keys of 64-byte values, θ = 100, D = 20 — onto three fresh loopback
// servers and returns an index over a client of theirs, cache off, as
// insert-grow's writer runs, with the counter of that client's wire bytes
// and n fresh Gaussian records to insert, none of them a loaded key.
func wireInsertIndex(tb testing.TB, n int) (*ilht.Index, *atomic.Int64, []record.Record) {
	tb.Helper()
	names := []string{"insert-node-0", "insert-node-1", "insert-node-2"}
	dialer := &byteDialer{addrs: make(map[string]string)}
	for i, addr := range startBenchServers(tb, len(names)) {
		dialer.addrs[names[i]] = addr
	}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: names, Dialer: dialer})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 100, Depth: 20})
	if err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Gaussian, 1)
	loaded := gen.Records(1 << 17)
	if _, err := ix.BulkLoad(loaded); err != nil {
		tb.Fatal(err)
	}
	seen := make(map[float64]bool, len(loaded)+n)
	for _, r := range loaded {
		seen[r.Key] = true
	}
	fresh := make([]record.Record, 0, n)
	for len(fresh) < n {
		k := gen.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		fresh = append(fresh, record.Record{Key: k, Value: make([]byte, 64)})
	}
	return ix, &dialer.n, fresh
}

// BenchmarkWireInsert is insert-grow's op in process: one writer inserting
// fresh Gaussian keys into the ledger's tree on three loopback servers,
// through the index with the cache off. lookups/op is what the ledger's
// lookups_per_op counts, and rides-applied/op the inserts whose patch rode
// the probe that ended their search, each of which saves the follow-up
// patch's round trip; wire-B/op and syscalls/op (both ends, as
// BenchmarkWireGet's) fall with it. Splits are in every count.
func BenchmarkWireInsert(b *testing.B) {
	ix, wire, fresh := wireInsertIndex(b, b.N)
	before := ix.Metrics()
	bytes := wire.Load()
	calls, counted := ioSyscalls()
	b.ReportAllocs()
	b.ResetTimer()
	for _, rec := range fresh {
		if _, err := ix.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := ix.Metrics().Sub(before)
	b.ReportMetric(float64(m.Lookup.Total)/float64(b.N), "lookups/op")
	b.ReportMetric(float64(m.Write.RidesApplied)/float64(b.N), "rides-applied/op")
	b.ReportMetric(float64(wire.Load()-bytes)/float64(b.N), "wire-B/op")
	if after, _ := ioSyscalls(); counted {
		b.ReportMetric(float64(after-calls)/float64(b.N), "syscalls/op")
	}
}

// TestWireInsertLookupCeiling pins what BenchmarkWireInsert counts, the
// lookups of a fixed list of 2 000 fresh inserts into the ledger's tree
// over the wire, splits included. One writer on a quiet tree makes the
// count exact. It was 6 250 (1 113 inserts done by the probe their patch
// rode, 185 rides refused) when a write's patch rode every probe with at
// most two names left, and is 5 793 (1 570 and 41) since it rides, once
// its search has met a leaf, the probe of the name at that leaf's depth:
// each insert done by the probe its patch rode saves the follow-up patch's
// lookup. The ceiling is that count, so a write that rides a worse guess
// breaks it.
func TestWireInsertLookupCeiling(t *testing.T) {
	ix, _, fresh := wireInsertIndex(t, 2000)
	before := ix.Metrics()
	for _, rec := range fresh {
		if _, err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	m := ix.Metrics().Sub(before)
	const ceiling = 5793
	t.Logf("%d lookups, %d rides applied, %d refused", m.Lookup.Total, m.Write.RidesApplied, m.Write.RidesRefused)
	if m.Lookup.Total > ceiling {
		t.Errorf("2 000 inserts over the wire: %d lookups, want at most %d", m.Lookup.Total, ceiling)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
