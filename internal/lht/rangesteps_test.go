package lht

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// callCounter is a substrate that counts the read calls made through it
// and the keys they carry, and can cancel a query's context once a given
// call has returned. It keeps the probe and batch planes of what it
// wraps.
type callCounter struct {
	dht.DHT

	mu       sync.Mutex
	calls    int
	keys     int
	cancelAt int // cancel after this call; 0 never
	cancel   context.CancelFunc
}

func (c *callCounter) count(keys int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.keys += keys
	if c.calls == c.cancelAt {
		c.cancel()
	}
}

func (c *callCounter) Get(ctx context.Context, key string) (dht.Value, error) {
	defer c.count(1)
	return c.DHT.Get(ctx, key)
}

func (c *callCounter) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	defer c.count(1)
	return dht.DoProbe(ctx, c.DHT, key, hint)
}

func (c *callCounter) GetBatch(ctx context.Context, keys []string) ([]dht.Value, []error) {
	defer c.count(len(keys))
	return dht.DoGetBatch(ctx, c.DHT, keys)
}

func (c *callCounter) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]dht.Value, []error) {
	defer c.count(len(keys))
	return dht.DoProbeBatch(ctx, c.DHT, keys, hint)
}

// PutBatch completes dht.Batcher, without which the index's stack would
// split a probed multi-get into single probes.
func (c *callCounter) PutBatch(ctx context.Context, kvs []dht.KV) []error {
	return dht.DoPutBatch(ctx, c.DHT, kvs)
}

func (c *callCounter) reset(cancelAt int, cancel context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls, c.keys, c.cancelAt, c.cancel = 0, 0, cancelAt, cancel
}

// TestRangeIssuesOneCallPerStep holds a range query to the paper's
// latency measure: a query runs one round per step, each round one
// substrate call however many branches it forwards to, so a Range makes
// exactly Cost.Steps calls, and Cost.Lookups is every key those calls
// carried. A context cancelled during a round starts no further round.
func TestRangeIssuesOneCallPerStep(t *testing.T) {
	client, _ := startProbeCluster(t, 3)
	for _, sub := range []struct {
		name string
		d    dht.DHT
	}{{"local", dht.NewLocal()}, {"tcpnet", client}} {
		t.Run(sub.name, func(t *testing.T) {
			const depth = 20
			rng := rand.New(rand.NewSource(44))
			cfg := Config{SplitThreshold: 8, MergeThreshold: 4, Depth: depth}
			loader, err := New(sub.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]float64, 600)
			for i := range keys {
				keys[i] = rng.Float64() * rng.Float64() // skewed: a deep, uneven tree
				if _, err := loader.Insert(record.Record{Key: keys[i]}); err != nil {
					t.Fatal(err)
				}
			}
			counter := &callCounter{DHT: sub.d}
			ix, err := New(counter, cfg)
			if err != nil {
				t.Fatal(err)
			}

			var deep, cases [4]int // queries of 3+ steps by case; queries by case
			for q := 0; q < 300; q++ {
				lo := rng.Float64() * rng.Float64()
				hi := min(1, lo+rng.Float64()*[]float64{0.001, 0.02, 0.3}[q%3])
				if hi <= lo {
					continue
				}
				counter.reset(0, nil)
				recs, cost, err := ix.Range(lo, hi)
				if err != nil {
					t.Fatalf("Range(%v, %v): %v", lo, hi, err)
				}
				want := 0
				for _, k := range keys {
					if k >= lo && k < hi {
						want++
					}
				}
				if len(recs) != want {
					t.Fatalf("Range(%v, %v): %d records, want %d", lo, hi, len(recs), want)
				}
				if counter.calls != cost.Steps || counter.keys != cost.Lookups {
					t.Fatalf("Range(%v, %v): %d calls carrying %d keys, cost %+v", lo, hi, counter.calls, counter.keys, cost)
				}
				c := rangeCase(t, sub.d, depth, lo, hi)
				cases[c]++
				if cost.Steps < 3 || c == 1 {
					continue
				}
				deep[c]++

				// The same query, its context cancelled as its second
				// round returns: that round completes, and no third starts.
				ctx, cancel := context.WithCancel(context.Background())
				counter.reset(2, cancel)
				_, cost, err = ix.RangeContext(ctx, lo, hi)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Range(%v, %v) cancelled in its second round: %v", lo, hi, err)
				}
				if counter.calls != 2 || cost.Steps != 2 || counter.keys != cost.Lookups {
					t.Fatalf("Range(%v, %v) cancelled in its second round: %d calls carrying %d keys, cost %+v",
						lo, hi, counter.calls, counter.keys, cost)
				}
			}
			if cases[1] == 0 || deep[2] == 0 || deep[3] == 0 {
				t.Fatalf("queries by case %v, of 3 steps or more %v: want every case, and cases 2 and 3 deep", cases[1:], deep[2:])
			}
		})
	}
}
