package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/metrics"
	"lht/internal/record"
)

// TestProbeBatchAnswersEverySlotAsAProbe: over the wire a probed
// multi-get carries its one hint to every owner, and each slot comes back
// as the probe of its key with that hint does — a bucket's short form, a
// raw value as it is, a miss as a miss. The servers count it as the
// GetBatch it stands in for, and GetBatch goes on decoding whole values.
func TestProbeBatchAnswersEverySlotAsAProbe(t *testing.T) {
	c, servers := startCluster(t, 3)
	ctx := context.Background()
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("probed-%02d", i)
		b := wideBucket()
		b.Epoch = uint64(i + 1)
		if err := c.Put(ctx, keys[i], b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put(ctx, "raw", []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, "raw", "absent")
	counted := func() (n metrics.Snapshot) {
		for _, srv := range servers {
			f := srv.Metrics()
			n.Lookup.Total += f.Lookup.Total
			n.Lookup.FailedGets += f.Lookup.FailedGets
			n.Batch.Ops += f.Batch.Ops
			n.Batch.Keys += f.Batch.Keys
		}
		return n
	}
	charged := func(do func()) (lookups, failed, ops, batched int64) {
		before := counted()
		do()
		after := counted()
		return after.Lookup.Total - before.Lookup.Total, after.Lookup.FailedGets - before.Lookup.FailedGets,
			after.Batch.Ops - before.Batch.Ops, after.Batch.Keys - before.Batch.Keys
	}

	var vals []dht.Value
	var errs []error
	l, f, o, k := charged(func() { vals, errs = c.GetBatch(ctx, keys) })
	for i := range keys[:12] {
		if b, ok := vals[i].(*ilht.Bucket); errs[i] != nil || !ok || b.Epoch != uint64(i+1) {
			t.Errorf("GetBatch slot %d = %v, %v", i, vals[i], errs[i])
		}
	}
	b := wideBucket()
	for name, hint := range map[string]uint64{
		"a range over the leaf":          ilht.RangeHint(b.Records[20].Key, b.Records[40].Key),
		"a range outside it":             ilht.RangeHint(0.1, 0.2),
		"a key it covers, record wanted": ilht.ProbeHint(b.Records[9].Key, true),
		"a key it excludes":              ilht.ProbeHint(0.1, false),
	} {
		if pl, pf, po, pk := charged(func() { vals, errs = c.ProbeBatch(ctx, keys, hint) }); pl != l || pf != f || po != o || pk != k {
			t.Errorf("%s: the servers counted %d lookups, %d failed gets, %d batches of %d keys; for the GetBatch %d, %d, %d of %d",
				name, pl, pf, po, pk, l, f, o, k)
		}
		for i, key := range keys {
			want, werr := c.Probe(ctx, key, hint)
			if _, whole := vals[i].(*ilht.Bucket); whole || !reflect.DeepEqual(vals[i], want) || (errs[i] == nil) != (werr == nil) ||
				errors.Is(errs[i], dht.ErrNotFound) != errors.Is(werr, dht.ErrNotFound) {
				t.Errorf("%s: slot %s = %#v, %v; probed alone %#v, %v", name, key, vals[i], errs[i], want, werr)
			}
		}
	}
}

// TestGroupByRankIsRingOrdered: every slot lands in exactly one group,
// under the node that owns its key at that rank; groups come in ring
// order and each group's slots ascending; a batch with one owner is one
// group.
func TestGroupByRankIsRingOrdered(t *testing.T) {
	addrs := startServers(t, 5)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("grouped-%d", i%30) // some keys twice
	}
	nodes := c.ringNodes()
	for rank := 0; rank < 3; rank++ {
		groups := c.groupByRank(keys, rank)
		placed := make(map[int]bool)
		for g, group := range groups {
			if g > 0 && group.n.id <= groups[g-1].n.id {
				t.Errorf("rank %d: group %d (%s) is not after group %d in ring order", rank, g, group.n.addr, g-1)
			}
			for j, i := range group.slots {
				if j > 0 && i <= group.slots[j-1] {
					t.Errorf("rank %d: slots of %s not ascending: %v", rank, group.n.addr, group.slots)
				}
				if want := c.holders(keys[i])[rank]; want != group.n || placed[i] {
					t.Errorf("rank %d: slot %d (%s) under %s, want once under %s", rank, i, keys[i], group.n.addr, want.addr)
				}
				placed[i] = true
			}
		}
		if len(placed) != len(keys) || len(groups) > len(nodes) {
			t.Errorf("rank %d: %d of %d slots placed in %d groups", rank, len(placed), len(keys), len(groups))
		}
	}
	if groups := c.groupByRank([]string{"one", "one", "one"}, 0); len(groups) != 1 || len(groups[0].slots) != 3 {
		t.Errorf("three slots of one key: %d groups", len(groups))
	}
	if groups := c.groupByRank(nil, 0); len(groups) != 0 {
		t.Errorf("no keys: %d groups", len(groups))
	}
}

// TestBatchedReadsFailOver: a multi-get whose keys' primary is down reads
// those slots from their other holder, as Get does, and a miss stays a
// miss — so a range query over a replicated cluster survives a node.
func TestBatchedReadsFailOver(t *testing.T) {
	ctx := context.Background()
	addrs, srvs := startServerMap(t, 4)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 8, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	const records = 300
	for i := 0; i < records; i++ {
		if _, err := ix.Insert(record.Record{Key: (float64(i) + 0.5) / records, Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("batched-%02d", i)
		b := wideBucket()
		b.Epoch = uint64(i + 1)
		if err := c.Put(ctx, keys[i], b); err != nil {
			t.Fatal(err)
		}
	}
	// A miss is authoritative only from a primary: the absent key's is up.
	dead := c.holders(keys[0])[0].addr
	absent := "absent"
	for i := 0; c.holders(absent)[0].addr == dead; i++ {
		absent = fmt.Sprintf("absent-%d", i)
	}
	keys = append(keys, absent)
	if err := srvs[dead].Close(); err != nil {
		t.Fatal(err)
	}
	b := wideBucket()
	for name, batch := range map[string]func() ([]dht.Value, []error){
		"GetBatch": func() ([]dht.Value, []error) { return c.GetBatch(ctx, keys) },
		"ProbeBatch": func() ([]dht.Value, []error) {
			return c.ProbeBatch(ctx, keys, ilht.RangeHint(b.Records[20].Key, b.Records[40].Key))
		},
	} {
		vals, errs := batch()
		for i, key := range keys[:len(keys)-1] {
			if errs[i] != nil || vals[i] == nil {
				t.Errorf("%s: slot %s (primary %s down: %v) = %v, %v", name, key, dead, c.holders(key)[0].addr == dead, vals[i], errs[i])
			}
		}
		if last := len(keys) - 1; !errors.Is(errs[last], dht.ErrNotFound) {
			t.Errorf("%s: the absent key = %v, %v, want a miss", name, vals[last], errs[last])
		}
	}
	recs, _, err := ix.Range(0, 1)
	if err != nil || len(recs) != records {
		t.Errorf("Range over the cluster with %s down = %d records, %v; want %d", dead, len(recs), err, records)
	}
}
