//go:build !race

package tcpnet

import "testing"

// TestWireRangeAllocationCeiling pins what BenchmarkWireRange measures, a
// 12-leaf range over three loopback servers, which share the process and
// whose allocations count too: 86 when this was written, 79 since a
// range goes a round at a time (five rounds, five calls, each a multi-get
// or a lone probe), 67 since a round's per-node frames go out on its
// caller's goroutine (no goroutine, closure or WaitGroup a round). The
// ceiling is that count: one allocation more a query breaks it. All twelve leaves arrive as runs cut by the storing
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
	const ceiling = 67
	if n := testing.AllocsPerRun(200, query); n > ceiling {
		t.Errorf("a 12-leaf range over the wire: %v allocations, want at most %d", n, ceiling)
	}
}
