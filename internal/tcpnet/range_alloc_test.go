//go:build !race

package tcpnet

import "testing"

// TestWireRangeAllocationCeiling pins what BenchmarkWireRange measures, a
// 12-leaf range over three loopback servers, which share the process and
// whose allocations count too: 86 when this was written, 79 since a
// range goes a round at a time (five rounds, five calls, each a multi-get
// or a lone probe), 67 since a round's per-node frames go out on its
// caller's goroutine (no goroutine, closure or WaitGroup a round), 61
// since each sweep enters its last branch, a leaf as deep as the one
// beside it, under the branch's name first: 13 lookups in four rounds,
// where a miss at each end's own label cost 15 in five. The ceiling is
// that count: one allocation more a query breaks it. All twelve leaves arrive as runs cut by the storing
// peer and cost two allocations each, the run and its bytes, where a
// decoded bucket costs three (the bucket, its copy of the frame, its
// record slice); so a per-bucket record slice, or any other per-leaf
// allocation, coming back breaks the ceiling. (Not under the race detector, whose sync.Pool drops
// buffers.)
func TestWireRangeAllocationCeiling(t *testing.T) {
	ix, _ := wireRangeIndex(t)
	query := func() {
		if recs, _, err := ix.Range(wireRangeLo, wireRangeHi); err != nil || len(recs) != 864 {
			t.Fatalf("Range = %d records, %v", len(recs), err)
		}
	}
	query() // dial, fill the frame pools
	const ceiling = 61
	if n := testing.AllocsPerRun(200, query); n > ceiling {
		t.Errorf("a 12-leaf range over the wire: %v allocations, want at most %d", n, ceiling)
	}
}

// TestWireRangeBytesCeiling pins the other count BenchmarkWireRange
// reports, the bytes a query's requests and replies put on the wire: 63,422
// when the runs shipped each record as its 8-byte key, its length and its
// value, 61,024 since a run ships each key as its offset in its leaf's
// interval (49 to 52 bits in these leaves, by the binade each lies in)
// and one length for the values, 61,002 since the two misses at the
// sweeps' last branches are gone. The count does not vary from query to query: the
// ceiling is that count, and one byte more a record (864 a query) breaks it.
func TestWireRangeBytesCeiling(t *testing.T) {
	ix, wire := wireRangeIndex(t)
	query := func() {
		if recs, _, err := ix.Range(wireRangeLo, wireRangeHi); err != nil || len(recs) != 864 {
			t.Fatalf("Range = %d records, %v", len(recs), err)
		}
	}
	query() // dial
	const ceiling, queries = 61002, 10
	before := wire.Load()
	for i := 0; i < queries; i++ {
		query()
	}
	if n := (wire.Load() - before) / queries; n > ceiling {
		t.Errorf("a 12-leaf range over the wire: %d bytes a query, want at most %d", n, ceiling)
	}
}
