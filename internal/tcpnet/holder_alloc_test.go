//go:build !race

package tcpnet

import (
	"context"
	"fmt"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
)

// TestOneHolderAddsNoAllocations pins what an operation allocates over
// three loopback servers, whose allocations count too. At Replicas 1, a
// holder set of one, the counts are exact: a fan-out's goroutines and
// shared state run only for a window of more than one node, so an
// unreplicated client pays nothing for replication. At Replicas 2 a read
// allocates what it does at 1, since a key's holders are a window on the
// ring and not a copy, and a write stays under its ceiling. (Not under the
// race detector, whose sync.Pool drops buffers.)
func TestOneHolderAddsNoAllocations(t *testing.T) {
	ctx := context.Background()
	addrs := startBenchServers(t, 3)
	// Per operation: the exact count at one holder, the ceiling at two.
	want := map[string][2]float64{
		"Get": {2, 2}, "Probe": {2, 2}, "Put": {2, 12}, "PutIf": {2, 12},
		"WriteIf": {2, 12}, "Patch": {1, 11}, "Remove": {0, 8},
	}
	for _, replicas := range []int{1, 2} {
		c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		var raw dht.Value = []byte("v") // boxed once, not per call
		b := wideBucket()
		if err := c.Put(ctx, "raw", raw); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(ctx, "bucket", b); err != nil {
			t.Fatal(err)
		}
		patch := ilht.UpsertPatch(b.Records[37], 0, 20)
		hint := ilht.ProbeHint(b.Records[37].Key, true)
		ops := []struct {
			name string
			do   func() error
		}{
			{"Get", func() error { _, err := c.Get(ctx, "raw"); return err }},
			{"Probe", func() error { _, err := c.Probe(ctx, "bucket", hint); return err }},
			{"Put", func() error { return c.Put(ctx, "raw", raw) }},
			{"PutIf", func() error { b.Epoch++; return c.PutIf(ctx, "bucket", b, b.Epoch-1) }},
			{"WriteIf", func() error { b.Epoch++; return c.WriteIf(ctx, "bucket", b, b.Epoch-1) }},
			{"Patch", func() error {
				v, err := c.Patch(ctx, "bucket", ilht.ProbeHint(b.Records[37].Key, false), patch)
				if _, ok := v.(ilht.PatchAck); err == nil && !ok {
					return fmt.Errorf("reply %T, want an acknowledgement", v)
				}
				return err
			}},
			{"Remove", func() error { return c.Remove(ctx, "absent") }},
		}
		for _, op := range ops {
			var failed error
			run := func() {
				if err := op.do(); err != nil {
					failed = err
				}
			}
			run() // dial, fill the frame pools
			n := testing.AllocsPerRun(200, run)
			if failed != nil {
				t.Fatalf("Replicas %d: %s: %v", replicas, op.name, failed)
			}
			if w := want[op.name][replicas-1]; replicas == 1 && n != w {
				t.Errorf("Replicas 1: %s allocates %v per call, want %v", op.name, n, w)
			} else if n > w {
				t.Errorf("Replicas %d: %s allocates %v per call, want at most %v", replicas, op.name, n, w)
			}
		}
		_ = c.Close()
	}
}
