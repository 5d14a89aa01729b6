package tcpnet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// oracleCost is the slice of the index's own cost counters the oracle
// compares across substrates.
type oracleCost struct {
	Lookups, FailedGets, BatchedKeys, CASConflicts, CASFallbacks int64
}

func newOracleIndex(t *testing.T, d dht.DHT) *ilht.Index {
	t.Helper()
	ix, err := ilht.New(d, ilht.Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// runOracleWorkload runs the seeded oracle workload through a fresh index
// (newOracleIndex) and returns every leaf in its EncodeBucket form, what
// the index charged itself with each write patch that a probe applied
// counted back in as the lookup the whole-bucket write pays, and how many
// of those rides there were.
func runOracleWorkload(t *testing.T, ix *ilht.Index) ([][]byte, oracleCost, int64) {
	t.Helper()
	// Deterministic workload: bulk load (exercises the batch plane), point
	// inserts, deletes, searches and range queries, including misses.
	rng := rand.New(rand.NewSource(99))
	recs := make([]record.Record, 200)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Float64(), Value: []byte(fmt.Sprintf("r%d", i))}
	}
	if _, err := ix.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, 0, 120)
	for i := 0; i < 120; i++ {
		k := rng.Float64()
		keys = append(keys, k)
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte("ins")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := ix.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 40; i < 80; i++ {
		if _, _, err := ix.Search(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		lo := rng.Float64() * 0.9
		if _, _, err := ix.Range(lo, lo+0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	enc := make([][]byte, len(leaves))
	for i, b := range leaves {
		if enc[i], err = ilht.EncodeBucket(b); err != nil {
			t.Fatal(err)
		}
	}
	f := ix.Metrics()
	return enc, oracleCost{
		Lookups: f.Lookup.Total + f.Write.RidesApplied, FailedGets: f.Lookup.FailedGets, BatchedKeys: f.Batch.Keys,
		CASConflicts: f.Write.CASConflicts, CASFallbacks: f.Write.CASFallbacks,
	}, f.Write.RidesApplied
}

// TestCodecOracle pins the framed wire to the in-memory reference: the
// identical index workload over a 3-node tcpnet cluster and over dht.Local
// must leave byte-identical leaves and charge the index identical costs —
// the wire may change how bytes travel, never what the index observes or
// what the cost model charges, but for the lookup a write saves when a
// probe applies the patch it rode — and the servers must have charged
// exactly what the client was.
func TestCodecOracle(t *testing.T) {
	servers := make([]*Server, 3)
	addrs := make([]string, 3)
	for i := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		servers[i], addrs[i] = srv, ln.Addr().String()
	}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	sumServed := func() (tot oracleCost, batchOps int64) {
		for _, s := range servers {
			f := s.Metrics()
			tot.Lookups += f.Lookup.Total
			tot.FailedGets += f.Lookup.FailedGets
			tot.BatchedKeys += f.Batch.Keys
			batchOps += f.Batch.Ops
		}
		return tot, batchOps
	}

	// The index bootstraps its root before its counters exist, so the
	// servers' charge is taken from here on.
	ix := newOracleIndex(t, c)
	before, _ := sumServed()
	wireLeaves, wireCost, rides := runOracleWorkload(t, ix)
	served, batchOps := sumServed()
	served.Lookups -= before.Lookups
	served.FailedGets -= before.FailedGets
	localLeaves, localCost, _ := runOracleWorkload(t, newOracleIndex(t, dht.NewLocal()))

	if len(wireLeaves) != len(localLeaves) {
		t.Fatalf("tree state diverges from dht.Local: %d vs %d leaves", len(wireLeaves), len(localLeaves))
	}
	for i := range wireLeaves {
		if !bytes.Equal(wireLeaves[i], localLeaves[i]) {
			t.Errorf("leaf %d diverges from dht.Local: %d vs %d bytes", i, len(wireLeaves[i]), len(localLeaves[i]))
		}
	}
	if wireCost != localCost {
		t.Errorf("index cost counters diverge:\n tcpnet: %+v\n local:  %+v", wireCost, localCost)
	}
	if wireCost.CASFallbacks != 0 {
		t.Errorf("conditional ops fell back to fetch-verify on a native wire: %+v", wireCost)
	}

	want := oracleCost{Lookups: wireCost.Lookups - rides, FailedGets: wireCost.FailedGets, BatchedKeys: wireCost.BatchedKeys}
	if served != want {
		t.Errorf("servers charged %+v, the client was charged %+v", served, want)
	}
	if rides == 0 {
		t.Error("no write's patch was applied by the probe it rode")
	}
	// BatchOps is per owner on the server, per call on the client.
	if served.Lookups == 0 || batchOps == 0 {
		t.Errorf("oracle workload did not exercise the cost model: %+v, %d batch ops", served, batchOps)
	}
}
