//go:build !race

package tcpnet

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
)

// TestOneHolderAddsNoAllocations pins what an operation allocates over
// three loopback servers, whose allocations count too. At Replicas 1, a
// holder set of one, the counts are exact: nothing is propagated, so an
// unreplicated client pays nothing for replication. At Replicas 2 a read
// allocates what it does at 1, since a key's holders are a window on the
// ring and not a copy, and a conditional write reaches its one other
// holder on the caller's goroutine: the client adds nothing, and the count
// is exactly twice Replicas 1's, each holder's own copy of the value. A
// holder writes a key it already stores under the string it has for it,
// so a write to a held key allocates only its value and an applied patch
// nothing; a CreateIf still allocates the new key's string on each
// holder. Only a write with two or more holders to reach (Put and Remove
// at Replicas 2) goes through fanOut's goroutines, and stays under its
// ceiling. (Not under the race detector, whose sync.Pool drops buffers.)
func TestOneHolderAddsNoAllocations(t *testing.T) {
	ctx := context.Background()
	addrs := startBenchServers(t, 3)
	// Per operation, the count at one holder and at two: exact, but for
	// the two-target Put and Remove, whose second figure is a ceiling.
	want := map[string][2]float64{
		"Get": {2, 2}, "Probe": {2, 2}, "Put": {1, 10}, "PutIf": {1, 2},
		"WriteIf": {1, 2}, "Patch": {0, 0}, "CreateIf": {2, 4}, "RemoveIf": {0, 0},
		"Remove": {0, 8},
	}
	ceiling := map[string]bool{"Put": true, "Remove": true}
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
			name  string
			setup func() error // before each call, not measured
			do    func() error
		}{
			{"Get", nil, func() error { _, err := c.Get(ctx, "raw"); return err }},
			{"Probe", nil, func() error { _, err := c.Probe(ctx, "bucket", hint); return err }},
			{"Put", nil, func() error { return c.Put(ctx, "raw", raw) }},
			{"PutIf", nil, func() error { b.Epoch++; return c.PutIf(ctx, "bucket", b, b.Epoch-1) }},
			{"WriteIf", nil, func() error { b.Epoch++; return c.WriteIf(ctx, "bucket", b, b.Epoch-1) }},
			{"Patch", nil, func() error {
				v, err := c.Patch(ctx, "bucket", ilht.ProbeHint(b.Records[37].Key, false), patch)
				if _, ok := v.(ilht.PatchAck); err == nil && !ok {
					return fmt.Errorf("reply %T, want an acknowledgement", v)
				}
				return err
			}},
			{"CreateIf", func() error { return c.Remove(ctx, "created") },
				func() error { return c.CreateIf(ctx, "created", raw) }},
			{"RemoveIf", func() error { return c.Put(ctx, "removed", raw) },
				func() error { return c.RemoveIf(ctx, "removed", 0) }},
			{"Remove", nil, func() error { return c.Remove(ctx, "absent") }},
		}
		for _, op := range ops {
			var failed error
			check := func(err error) {
				if err != nil && failed == nil {
					failed = err
				}
			}
			setup := func() {
				if op.setup != nil {
					check(op.setup())
				}
			}
			n := allocsPerRun(200, setup, func() { check(op.do()) })
			if failed != nil {
				t.Fatalf("Replicas %d: %s: %v", replicas, op.name, failed)
			}
			if w := want[op.name][replicas-1]; replicas == 2 && ceiling[op.name] {
				if n > w {
					t.Errorf("Replicas 2: %s allocates %v per call, want at most %v", op.name, n, w)
				}
			} else if n != w {
				t.Errorf("Replicas %d: %s allocates %v per call, want %v", replicas, op.name, n, w)
			}
		}
		_ = c.Close()
	}
}

// allocsPerRun is testing.AllocsPerRun with setup run before each call of
// op, outside the count: the allocations op makes per call, averaged over
// runs and rounded down. A first, uncounted setup and op dial and fill the
// frame pools.
func allocsPerRun(runs int, setup, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setup()
	op()
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return float64(mallocs / uint64(runs))
}
