package tcpnet

// The one divergence window client-driven replication leaves open (see
// the header of replicas.go): a removal racing an earlier commit's
// OpPutNewer fan-out can transiently resurrect a stale copy on a
// secondary after RemoveIf's propagation deleted it. This test pins the
// repair contract: the resurrected copy carries an older epoch, the
// index's next Scrub orders the two by epoch and retires the straggler,
// and the pass after that is clean.

import (
	"context"
	"errors"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

func TestScrubRetiresResurrectedStraggler(t *testing.T) {
	addrs, _ := startServerMap(t, 3)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	// Split the root (theta=4 saturates on the third insert), leaving
	// 0.7 alone in leaf #01, stored under its name key "#0".
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 4, MergeThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []float64{0.1, 0.3, 0.7} {
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte{byte(i)}}); err != nil {
			t.Fatalf("insert %g: %v", k, err)
		}
	}

	// Capture the pre-merge child exactly as a holder stores it: this is
	// the value an in-flight OpPutNewer fan-out would still be carrying.
	stale, err := c.Get(ctx, "#0")
	if err != nil {
		t.Fatalf("pre-merge child under %q: %v", "#0", err)
	}

	// Deleting 0.7 drops leaf #01 below the merge threshold; the merge's
	// RemoveIf propagation deletes key "#0" from every holder.
	if _, err := ix.Delete(0.7); err != nil {
		t.Fatalf("merging delete: %v", err)
	}
	if _, err := c.Get(ctx, "#0"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("child key still stored after merge: %v", err)
	}

	// The straggler lands: the stale copy reappears on a secondary
	// holder, after the removal. OpPutNewer accepts it — the holder has
	// nothing stored, so there is no epoch to order it against.
	secondary := c.holders("#0")[1]
	if _, err := secondary.do(ctx, req{op: dht.OpPutNewer, key: "#0", val: stale}); err != nil {
		t.Fatalf("straggler store: %v", err)
	}
	if _, err := c.Get(ctx, "#0"); err != nil {
		t.Fatalf("resurrected copy not visible: %v", err)
	}

	// The next Scrub walks the live leaf #0, probes its label key "#0",
	// finds the stale child there with an older epoch, and retires it.
	rep, err := ix.Scrub(ctx)
	if err != nil {
		t.Fatalf("Scrub: %v\n%s", err, rep)
	}
	if rep.Orphans != 1 {
		t.Fatalf("Scrub retired %d orphans, want 1:\n%s", rep.Orphans, rep)
	}
	if _, err := c.Get(ctx, "#0"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("straggler survives Scrub: %v", err)
	}

	// Data is intact and the tree is quiescent again.
	for _, want := range []struct {
		key float64
		val byte
	}{{0.1, 0}, {0.3, 1}} {
		rec, _, err := ix.Search(want.key)
		if err != nil || rec.Value[0] != want.val {
			t.Fatalf("Search(%g) = %v, %v", want.key, rec, err)
		}
	}
	rep, err = ix.Scrub(ctx)
	if err != nil || !rep.Clean() {
		t.Fatalf("second Scrub = %v, %s; want clean", err, rep)
	}
}
