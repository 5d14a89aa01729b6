//go:build !race

package lht

import (
	"context"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

// The whole-bucket arm's split marks the leaf with a copy of its header
// over the records it already holds: over dht.Local a split allocates what
// its two halves need and a few small objects (splitOverhead), never a
// second copy of the leaf's record slice, which the Clone of the full
// leaf it used to mark was. (Not under the race detector, which allocates
// on its own.)
func TestSplitOverLocalCopiesNoRecords(t *testing.T) {
	ctx := context.Background()
	local := dht.NewLocal()
	ix, err := New(local, Config{SplitThreshold: 200, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	full := &Bucket{Label: bitlabel.TreeRoot, Epoch: 1}
	for i := 0; i < 150; i++ {
		full.Records = append(full.Records, record.Record{Key: float64(i) / 150})
	}
	key, remote := bitlabel.TreeRoot.Name().Key(), bitlabel.TreeRoot.Key()
	split := testing.AllocsPerRun(50, func() {
		_ = local.Put(ctx, key, full)
		_ = local.Remove(ctx, remote)
		if _, err := ix.split(ctx, key, splitHalves(markedSplit(full)), false); err != nil {
			t.Fatal(err)
		}
	})
	halves := testing.AllocsPerRun(50, func() { splitHalves(full) })
	if extra := split - halves; extra > splitOverhead {
		t.Errorf("a split over Local allocates %v times, %v of them beyond its halves, want at most %d", split, extra, splitOverhead)
	}
	if v, err := local.Get(ctx, key); err != nil || v.(*Bucket).Torn() || len(v.(*Bucket).Records) != 75 {
		t.Fatalf("after the split %q holds %v, %v", key, v, err)
	}
}

// splitOverhead is what split allocates beyond splitHalves over Local:
// the marked bucket, the phase-labelled context (the label and the
// context) and the remote half's key. A Clone of the leaf would be one
// more, of the leaf's size.
const splitOverhead = 4
