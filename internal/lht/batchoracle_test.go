package lht

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"

	"lht/internal/chord"
	"lht/internal/dht"
	"lht/internal/kademlia"
	"lht/internal/metrics"
	"lht/internal/record"
	"lht/internal/tcpnet"
)

// TestBatchedPathIsAnOracle builds the same index twice on every
// substrate — once through the native batch plane, once with batching
// stripped (dht.WithoutBatch forces per-op decomposition) — and requires
// byte-identical trees, identical query results, and identical
// Cost.Lookups. Batching may only change round trips, never the data or
// the paper's cost model.
func TestBatchedPathIsAnOracle(t *testing.T) {
	substrates := []struct {
		name   string
		native bool // substrate implements dht.Batcher
		make   func(t *testing.T) dht.DHT
	}{
		{"local", true, func(t *testing.T) dht.DHT { return dht.NewLocal() }},
		{"chord", true, func(t *testing.T) dht.DHT {
			ring, err := chord.NewRing(16, chord.Config{Seed: 77, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			return ring
		}},
		{"kademlia", false, func(t *testing.T) dht.DHT {
			nw, err := kademlia.NewNetwork(16, kademlia.Config{Seed: 78})
			if err != nil {
				t.Fatal(err)
			}
			return nw
		}},
		{"tcpnet", true, func(t *testing.T) dht.DHT {
			addrs := make([]string, 0, 3)
			for i := 0; i < 3; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				srv := tcpnet.NewServer()
				go func() { _ = srv.Serve(ln) }()
				t.Cleanup(func() { _ = srv.Close() })
				addrs = append(addrs, ln.Addr().String())
			}
			c, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: addrs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			return c
		}},
	}

	rng := rand.New(rand.NewSource(55))
	recs := make([]record.Record, 600)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Float64(), Value: []byte{byte(i), byte(i >> 8)}}
	}
	ranges := [][2]float64{{0, 1}, {0.2, 0.6}, {0.45, 0.55}, {0.9, 1}, {0, 0.001}}

	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			type arm struct {
				ix *Index
				c  *metrics.Counters
			}
			build := func(strip bool) arm {
				d := sub.make(t)
				if strip {
					d = dht.WithoutBatch(d)
				}
				c := &metrics.Counters{}
				ix, err := New(dht.NewInstrumented(d, c), Config{SplitThreshold: 16, MergeThreshold: 0, Depth: 20})
				if err != nil {
					t.Fatal(err)
				}
				return arm{ix, c}
			}
			batched, perOp := build(false), build(true)

			bcost, err := batched.ix.BulkLoad(recs)
			if err != nil {
				t.Fatal(err)
			}
			pcost, err := perOp.ix.BulkLoad(recs)
			if err != nil {
				t.Fatal(err)
			}
			if bcost.Lookups != pcost.Lookups {
				t.Errorf("BulkLoad Lookups: batched %d, per-op %d", bcost.Lookups, pcost.Lookups)
			}

			if got, want := treeBytes(t, batched.ix), treeBytes(t, perOp.ix); !bytes.Equal(got, want) {
				t.Fatal("batched and per-op trees are not byte-identical")
			}

			for _, r := range ranges {
				bres, bc, err := batched.ix.Range(r[0], r[1])
				if err != nil {
					t.Fatalf("batched Range%v: %v", r, err)
				}
				pres, pc, err := perOp.ix.Range(r[0], r[1])
				if err != nil {
					t.Fatalf("per-op Range%v: %v", r, err)
				}
				if bc != pc {
					t.Errorf("Range%v cost: batched %+v, per-op %+v", r, bc, pc)
				}
				if len(bres) != len(pres) {
					t.Fatalf("Range%v: batched %d records, per-op %d", r, len(bres), len(pres))
				}
				for i := range bres {
					if bres[i].Key != pres[i].Key || !bytes.Equal(bres[i].Value, pres[i].Value) {
						t.Fatalf("Range%v record %d differs: %v vs %v", r, i, bres[i], pres[i])
					}
				}
			}

			bs, ps := batched.c.Snapshot(), perOp.c.Snapshot()
			if bs.Lookup.Total != ps.Lookup.Total {
				t.Errorf("counter Lookups: batched %d, per-op %d", bs.Lookup.Total, ps.Lookup.Total)
			}
			if ps.Batch.Ops != 0 || ps.Batch.Keys != 0 {
				t.Errorf("per-op arm tallied batches: %d/%d", ps.Batch.Ops, ps.Batch.Keys)
			}
			if sub.native {
				if bs.Batch.Ops == 0 {
					t.Error("native substrate never batched")
				}
				if bs.RoundTrips() >= ps.RoundTrips() {
					t.Errorf("round trips: batched %d, per-op %d; batching should save round trips",
						bs.RoundTrips(), ps.RoundTrips())
				}
			}
		})
	}
}

// treeBytes is an index's leaves in key order, one after another as
// EncodeBucket writes them, for byte-level comparison.
func treeBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, b := range leaves {
		out = append(out, mustEncode(t, b)...)
	}
	return out
}
