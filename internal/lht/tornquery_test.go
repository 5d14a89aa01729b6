package lht

import (
	"context"
	"errors"
	"slices"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// TestQueriesRepairTornLeaves tears a split with a real crash (the
// writer halts at its remote put, before or after it lands), lets a
// fresh client write beside the tear without touching it, and then asks
// Range, Scan and Max, each over a tree of its own: each must answer
// from the never-crashed record set, repairing whatever torn leaf it
// fetches as Algorithm 2's probes do. Read as stored, a torn leaf holds
// the records of both its halves but none written to the remote half
// since: a range misses those, a scan that meets the remote half too
// returns its records twice, and a max over the torn leaf misses a newer
// one in the remote half.
func TestQueriesRepairTornLeaves(t *testing.T) {
	grow := []float64{0.1, 0.3, 0.6, 0.8, 0.85, 0.76}
	for _, tc := range []struct {
		name   string
		keys   []float64 // inserted in order; the last one's split crashes
		remote string    // the crashing split's remote put
		after  bool      // crash after the remote put lands
		later  []float64 // a fresh client's inserts beside the tear
	}{
		{"root, after the remote put", []float64{0.1, 0.3, 0.7}, "#0", true, []float64{0.9}},
		{"#011, after the remote put", grow, "#011", true, []float64{0.86}},
		{"#011, before the remote put", grow, "#011", false, nil},
	} {
		want := append(slices.Clone(tc.keys), tc.later...)
		slices.Sort(want)
		// torn grows the tree to the crash, writes beside the tear, and
		// returns a fresh client over it.
		torn := func(t *testing.T) *Index {
			t.Helper()
			base := dht.NewLocal()
			crash := dht.WithCrashPoints(base, dht.CrashRule{
				Op:    dht.OpCreateIf,
				Key:   func(k string) bool { return k == tc.remote },
				N:     1,
				After: tc.after,
				Halt:  true,
			})
			w, err := New(crash, Config{SplitThreshold: 4, Depth: 20})
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range tc.keys {
				_, err := w.Insert(record.Record{Key: k, Value: []byte{byte(i)}})
				if last := i == len(tc.keys)-1; !last && err != nil || last && !errors.Is(err, dht.ErrCrashed) {
					t.Fatalf("insert %g = %v; want only the last one's split to crash", k, err)
				}
			}
			ix, err := New(base, Config{SplitThreshold: 4, Depth: 20})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range tc.later {
				if _, err := ix.Insert(record.Record{Key: k}); err != nil {
					t.Fatalf("insert %g beside the tear: %v", k, err)
				}
			}
			if n := ix.Metrics().Repair.TornSplits; n != 0 {
				t.Fatalf("the inserts beside the tear repaired %d torn splits", n)
			}
			return ix
		}
		check := func(t *testing.T, ix *Index, query string, recs []record.Record, err error, want []float64) {
			t.Helper()
			got := make([]float64, len(recs))
			for i, r := range recs {
				got[i] = r.Key
			}
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("%s = %v, %v; want %v", query, got, err, want)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Errorf("after %s: %v", query, err)
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			ix := torn(t)
			recs, _, err := ix.Range(0, 1)
			record.SortByKey(recs)
			check(t, ix, "Range(0, 1)", recs, err, want)

			ix = torn(t)
			recs, _, err = ix.Scan(0, 100)
			check(t, ix, "Scan(0, 100)", recs, err, want)

			ix = torn(t)
			rec, _, err := ix.Max()
			check(t, ix, "Max()", []record.Record{rec}, err, want[len(want)-1:])
		})
	}
}

// TestWalksWithoutTheLeftmostLeafFail removes the bucket under "#", where
// every walk from the left edge starts: each such walk reports the loss as
// an error, and the maximum query, whose walk starts at the right edge,
// still answers.
func TestWalksWithoutTheLeftmostLeafFail(t *testing.T) {
	ctx := context.Background()
	local := dht.NewLocal()
	ix, err := New(local, Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0.1, 0.3, 0.7, 0.9} {
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := local.Remove(ctx, "#"); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Leaves(); !errors.Is(err, dht.ErrNotFound) {
		t.Errorf("Leaves() = %v, want not found", err)
	}
	if _, _, err := ix.Min(); !errors.Is(err, dht.ErrNotFound) {
		t.Errorf("Min() = %v, want not found", err)
	}
	if _, err := ix.Scrub(ctx); !errors.Is(err, dht.ErrNotFound) {
		t.Errorf("Scrub() = %v, want not found", err)
	}
	if rec, _, err := ix.Max(); err != nil || rec.Key != 0.9 {
		t.Errorf("Max() = %v, %v; want 0.9", rec.Key, err)
	}
}

// TestIntentOnTheVirtualRootIsCorrupt: no leaf is labelled with the
// virtual root, which has no halves to split or merge, so a bucket that
// claims an intent there (a peer's lying reply, a corrupt store) fails the
// query that fetched it as corrupt instead of being repaired.
func TestIntentOnTheVirtualRootIsCorrupt(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []PendingKind{PendingSplit, PendingMerge} {
		local := dht.NewLocal()
		ix, err := New(local, Config{SplitThreshold: 4, Depth: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := local.Put(ctx, "#", &Bucket{Pending: Pending{Kind: kind, RemoveKey: "#0"}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ix.Search(0.3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("intent %d: Search = %v, want corrupt", kind, err)
		}
		if _, _, err := ix.Range(0, 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("intent %d: Range = %v, want corrupt", kind, err)
		}
	}
}
