package lht

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lht/internal/bitlabel"
	"lht/internal/chord"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// TestSetErrPrefersRootCause pins the collector's error-preference rule:
// first error wins, except that a stored cancellation yields to a later
// real error (and never the other way around).
func TestSetErrPrefersRootCause(t *testing.T) {
	real1 := errors.New("real fault 1")
	real2 := errors.New("real fault 2")
	cancelled := fmt.Errorf("branch: %w", context.Canceled)
	expired := fmt.Errorf("branch: %w", context.DeadlineExceeded)

	cases := []struct {
		name string
		errs []error
		want error
	}{
		{"first real wins", []error{real1, real2}, real1},
		{"real beats earlier cancellation", []error{cancelled, real1}, real1},
		{"real beats earlier deadline", []error{expired, real1}, real1},
		{"real survives later cancellation", []error{real1, cancelled}, real1},
		{"first cancellation kept if nothing better", []error{cancelled, expired}, cancelled},
		{"only cancellation", []error{expired}, expired},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := &rangeCollector{}
			for _, err := range tc.errs {
				col.setErr(err)
			}
			if _, _, got := col.snapshot(); got != tc.want {
				t.Fatalf("surfaced %v, want %v", got, tc.want)
			}
		})
	}
}

// cancelOnKey instruments one key's fetch: it cancels the query's context
// before the fetch proceeds, then delays, so that every other get in
// flight or still to come observes the cancellation. The delegate call
// runs on a background context — the fault was already in flight when
// the cancellation hit.
type cancelOnKey struct {
	dht.DHT
	cancel context.CancelFunc
	badKey string
}

func (c *cancelOnKey) Get(ctx context.Context, key string) (dht.Value, error) {
	if key == c.badKey {
		c.cancel()
		time.Sleep(50 * time.Millisecond)
		return c.DHT.Get(context.Background(), key)
	}
	return c.DHT.Get(ctx, key)
}

// TestRangeSurfacesChordFaultOverCancellation is the regression for the
// error-preference fix: one branch hitting a dead Chord peer comes with
// the collateral context cancellation of the gets beside it, and the
// query used to surface whichever it met first. The root-cause fault
// must win regardless of arrival order.
func TestRangeSurfacesChordFaultOverCancellation(t *testing.T) {
	ring, err := chord.NewRing(12, chord.Config{Replicas: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 5b hand tree, stored on the ring: Range(0.3, 0.6) is the
	// general case 3, descending into #00 and #01 in one round.
	for _, ls := range []string{"#000", "#0010", "#0011", "#0100", "#0101", "#011"} {
		b := mustBucket(t, ls)
		if err := ring.Put(context.Background(), b.Label.Name().Key(), b); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Kill the unreplicated holder of the right branch's entry leaf, and
	// rig its fetch to cancel the query first: the left branch's
	// cancellation noise is guaranteed to be recorded before the real
	// fault.
	ref, _, err := ring.Lookup(context.Background(), "#01")
	if err != nil {
		t.Fatal(err)
	}
	ring.Fail(ref.Addr)
	d := &cancelOnKey{DHT: ring, cancel: cancel, badKey: "#01"}

	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 14})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ix.RangeContext(ctx, 0.3, 0.6)
	if err == nil {
		t.Fatal("range over a failed holder succeeded")
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("collateral cancellation surfaced instead of the root cause: %v", err)
	}
	if !dht.IsTransient(err) {
		t.Fatalf("root cause not the transient chord fault: %v", err)
	}
}

// mustBucket builds a one-record bucket for a hand-specified leaf label
// (the record sits at the interval midpoint).
func mustBucket(t *testing.T, ls string) *Bucket {
	t.Helper()
	label := bitlabel.MustParse(ls)
	iv := keyspace.IntervalOf(label)
	return &Bucket{
		Label:   label,
		Records: []record.Record{{Key: iv.Lo + iv.Width()/2, Value: []byte(ls)}},
	}
}
