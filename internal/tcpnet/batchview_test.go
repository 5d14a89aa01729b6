package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// TestGetBatchViewDecodesWireValuesWithTheView: over the wire the view
// is handed each self-serialising value's kind and bytes — the bytes the
// registered decoder would have been handed — and its answer, value or
// error, fills that slot alone. Raw and gob-stored values never reach it,
// a missing key stays a miss, and GetBatch goes on decoding whole values.
func TestGetBatchViewDecodesWireValuesWithTheView(t *testing.T) {
	c, _ := startCluster(t, 3)
	ctx := context.Background()
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("viewed-%02d", i)
		b := &ilht.Bucket{Label: bitlabel.MustParse("#01"), Epoch: uint64(i + 1),
			Records: []record.Record{{Key: 0.6, Value: []byte(keys[i])}}}
		if err := c.Put(ctx, keys[i], b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put(ctx, "raw", []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, "raw", "absent")

	var mu sync.Mutex
	seen := make(map[string]bool)
	refused := errors.New("view refuses epoch 3")
	view := func(kind byte, data []byte) (dht.Value, error) {
		v, err := dht.DecodeWire(kind, data)
		if err != nil {
			return nil, err
		}
		b := v.(*ilht.Bucket)
		want, _ := ilht.EncodeBucket(b)
		mu.Lock()
		seen[string(b.Records[0].Value)] = bytes.Equal(data, want)
		mu.Unlock()
		if b.Epoch == 3 {
			return nil, refused
		}
		return b.Epoch, nil
	}
	vals, errs := c.GetBatchView(ctx, keys, view)
	for i, key := range keys {
		switch {
		case key == "raw":
			if got, ok := vals[i].([]byte); errs[i] != nil || !ok || string(got) != "bytes" {
				t.Errorf("raw slot = %v, %v", vals[i], errs[i])
			}
		case key == "absent":
			if !errors.Is(errs[i], dht.ErrNotFound) {
				t.Errorf("absent slot = %v, %v", vals[i], errs[i])
			}
		case i+1 == 3:
			if !errors.Is(errs[i], refused) || vals[i] != nil {
				t.Errorf("slot %d = %v, %v, want the view's error", i, vals[i], errs[i])
			}
		default:
			if errs[i] != nil || vals[i] != uint64(i+1) {
				t.Errorf("slot %d = %v, %v, want the view's value %d", i, vals[i], errs[i], i+1)
			}
		}
		if i < 12 && !seen[key] {
			t.Errorf("the view was not handed %s's serialized form", key)
		}
	}

	vals, errs = c.GetBatch(ctx, keys[:12])
	for i := range vals {
		if b, ok := vals[i].(*ilht.Bucket); errs[i] != nil || !ok || b.Epoch != uint64(i+1) {
			t.Errorf("GetBatch slot %d = %v, %v", i, vals[i], errs[i])
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
				if want := c.owners(keys[i])[rank]; want != group.n || placed[i] {
					t.Errorf("rank %d: slot %d (%s) under %s, want once under %s", rank, i, keys[i], group.n.addr, want.addr)
				}
				placed[i] = true
			}
		}
		if len(placed) != len(keys) || len(groups) > len(nodes) {
			t.Errorf("rank %d: %d of %d slots placed in %d groups", rank, len(placed), len(keys), len(groups))
		}
	}
	if groups := c.groupByOwner([]string{"one", "one", "one"}); len(groups) != 1 || len(groups[0].slots) != 3 {
		t.Errorf("three slots of one key: %d groups", len(groups))
	}
	if groups := c.groupByOwner(nil); len(groups) != 0 {
		t.Errorf("no keys: %d groups", len(groups))
	}
}
