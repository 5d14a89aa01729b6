//go:build !race

package tcpnet

import (
	"bytes"
	"context"
	"testing"
)

// TestRawRoundTripAllocations pins what one raw []byte round trip
// allocates against one in-process node, both ends counted, at the value
// sizes of bench ablation A8 (16, 256 and 4096 B): 2 a Get and 2 a Put
// when this was written. A8's allocs/op rows divide a process-wide
// MemStats delta and can read a fraction high when a GC cycle empties the
// frame pools inside the window, so they are reported only; this pin is
// exact. The Put overwrites a key the node holds, as A8's does, so the
// node stores it under the string it already has. (Not under the race
// detector, whose sync.Pool drops buffers.)
func TestRawRoundTripAllocations(t *testing.T) {
	ctx := context.Background()
	c, err := Dial(ctx, ClusterConfig{Seeds: startBenchServers(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	const key = "bench"
	for _, size := range []int{16, 256, 4096} {
		val := bytes.Repeat([]byte("v"), size)
		var failed error
		ops := []struct {
			name string
			do   func()
			want float64
		}{
			{"Get", func() {
				if _, err := c.Get(ctx, key); err != nil {
					failed = err
				}
			}, 2},
			{"Put", func() {
				if err := c.Put(ctx, key, val); err != nil {
					failed = err
				}
			}, 2},
		}
		if err := c.Put(ctx, key, val); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			op.do() // fill the frame pools
			got := testing.AllocsPerRun(200, op.do)
			if failed != nil {
				t.Fatalf("%s of %d B: %v", op.name, size, failed)
			}
			if got != op.want {
				t.Errorf("a %d-B %s allocates %v, want %v", size, op.name, got, op.want)
			}
		}
	}
}
