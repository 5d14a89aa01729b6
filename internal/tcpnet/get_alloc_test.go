//go:build !race

package tcpnet

import (
	"context"
	"testing"
	"time"

	"lht/internal/bitlabel"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// TestGetAllocationsDoNotGrowWithProbes pins what a Get allocates over
// three loopback servers, whose allocations count too: 4 when this was
// written, the same on a Get that Algorithm 2 ends at its first probe as
// on one that takes three. A Get's bookkeeping is one context node, labelled once for the
// whole operation, and one key string, every probe's key being a prefix
// of it; a per-probe label, key or timer coming back breaks the
// equality. The tree has two leaves, #00 under "#" and #01 under "#0",
// with D = 20: a Get of 0.9995 probes "#0" and is answered, and a Get of
// 0.3 misses "#001001100" and "#001" before "#" answers. A miss
// allocates nothing on either side; a probe answered with a header of a
// leaf that does not cover the key allocates that header's box, which
// this pin does not cover. Every Get runs under three contexts, with the
// same ceiling: one never cancelled, one cancelable and one with a
// deadline, as a caller's usually are; waiting on either must cost
// nothing per round trip. (Not under the race detector, whose sync.Pool
// drops buffers.)
func TestGetAllocationsDoNotGrowWithProbes(t *testing.T) {
	ctx := context.Background()
	c, err := Dial(ctx, ClusterConfig{Seeds: startBenchServers(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	for _, leaf := range []struct {
		label string
		keys  []float64
	}{
		{"#00", []float64{0.1, 0.2, 0.3}},
		{"#01", []float64{0.6, 0.8, 0.9995}},
	} {
		b := &ilht.Bucket{Label: bitlabel.MustParse(leaf.label), Epoch: 1}
		for _, k := range leaf.keys {
			b.Records = append(b.Records, record.Record{Key: k, Value: []byte("value")})
		}
		if err := c.Put(ctx, b.Label.Name().Key(), b); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 100, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 4
	cancelable, cancel := context.WithCancel(ctx)
	defer cancel()
	timed, cancelTimed := context.WithTimeout(ctx, time.Minute)
	defer cancelTimed()
	for _, under := range []struct {
		name string
		ctx  context.Context
	}{{"Background", ctx}, {"WithCancel", cancelable}, {"WithTimeout", timed}} {
		allocs := make(map[int]float64)
		for _, g := range []struct {
			key    float64
			probes int
		}{{0.9995, 1}, {0.3, 3}} {
			var failed error
			get := func() {
				rec, cost, err := ix.SearchContext(under.ctx, g.key)
				if err == nil && (rec.Key != g.key || cost.Lookups != g.probes) {
					t.Fatalf("Get(%v) = key %v in %d probes, want %d", g.key, rec.Key, cost.Lookups, g.probes)
				}
				if err != nil {
					failed = err
				}
			}
			get() // dial, fill the frame pools
			allocs[g.probes] = testing.AllocsPerRun(200, get)
			if failed != nil {
				t.Fatalf("Get(%v) under %s: %v", g.key, under.name, failed)
			}
			if n := allocs[g.probes]; n > ceiling {
				t.Errorf("under %s, a %d-probe Get allocates %v, want at most %d", under.name, g.probes, n, ceiling)
			}
		}
		if allocs[1] != allocs[3] {
			t.Errorf("under %s, a 1-probe Get allocates %v and a 3-probe Get %v, want the same", under.name, allocs[1], allocs[3])
		}
	}
}
