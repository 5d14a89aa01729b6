package lht

import (
	"context"
	"errors"
	"math"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// FuzzRunView holds a range query's view of a peer's reply — to one of its
// single gets or to a slot of a sweep's multi-get, which rangeLeaf takes
// alike — to the trust rule, on arbitrary reply bytes and bounds
// 0 <= lo < hi <= 1:
//
//   - a reply the probe decoder refuses fails the get, at no lookup more;
//   - a run and a whole untorn bucket are taken as they came, at no lookup
//     more (a torn one is repaired first, which is the recovery tests'
//     business: here it only runs, against a scratch tree);
//   - a header is taken iff its leaf does not overlap [lo, hi), and a
//     header that does, or a record reply, is dropped for the bucket
//     stored under the key, fetched with one plain lookup more;
//   - the join takes from what was taken exactly what record.FilterRange
//     keeps of its records, in order, and nothing it takes aliases the
//     reply buffer.
func FuzzRunView(f *testing.F) {
	seeds := bucketFuzzSeeds(f)
	for _, seed := range seeds {
		f.Add(seed, 0.0, 1.0)
		f.Add(seed, 0.42, 0.5)
	}
	f.Add(mustEncode(f, &Bucket{Label: bitlabel.MustParse("#01"), Records: []record.Record{
		{Key: math.NaN()}, {Key: math.Copysign(0, -1), Value: []byte("z")}, {Key: 0.6, Value: []byte("in")}, {Key: 0.5}}}), 0.0, 0.6)
	// The short forms a peer answers with: runs, headers, a record reply.
	ref := mustEncode(f, referenceBucket()) // #0101101 = [0.703125, 0.71875)
	for _, r := range []keyspace.Interval{{Lo: 0, Hi: 1}, {Lo: 0.704, Hi: 0.71}, {Lo: 0.1, Hi: 0.2}} {
		f.Add(projectBucket(nil, ref, RangeHint(r.Lo, r.Hi)), r.Lo, r.Hi)
		f.Add(projectBucket(nil, ref, RangeHint(r.Lo, r.Hi)), 0.0, 1.0)
	}
	f.Add(projectBucket(nil, ref, ProbeHint(0.71, true)), 0.5, 0.75)

	ctx := context.Background()
	local := dht.NewLocal()
	stored := &Bucket{Label: bitlabel.MustParse("#011"), Epoch: 3, Records: []record.Record{{Key: 0.8, Value: []byte("stored")}}}
	if err := local.Put(ctx, "stored", stored); err != nil {
		f.Fatal(err)
	}
	ix, err := New(local, Config{SplitThreshold: 8, Depth: 20})
	if err != nil {
		f.Fatal(err)
	}
	scratch, err := New(dht.NewLocal(), Config{SplitThreshold: 8, Depth: 20})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte, lo, hi float64) {
		if !(lo >= 0 && lo < hi && hi <= 1) {
			t.Skip()
		}
		r := keyspace.Interval{Lo: lo, Hi: hi}
		col := &rangeCollector{r: r, hint: RangeHint(lo, hi)}
		data := append([]byte(nil), raw...)
		v, err := decodeProbeReply(data)
		if b, ok := v.(*Bucket); ok && err == nil && b.Torn() {
			_, _ = scratch.rangeLeaf(ctx, v, err, "stored", col)
			return
		}
		got, gerr := ix.rangeLeaf(ctx, v, err, "stored", col)
		if err != nil {
			if !errors.Is(gerr, err) || got != nil || col.lookups != 0 {
				t.Fatalf("a refused reply (%v) was taken as %#v, %v at %d lookups", err, got, gerr, col.lookups)
			}
			return
		}
		refetch := false
		switch v := v.(type) {
		case *BucketHeader:
			refetch = keyspace.IntervalOf(v.Label).Overlaps(r)
		case *BucketRecord:
			refetch = true
		case *bucketRun, *Bucket:
		default:
			t.Fatalf("the probe decoder returned a %T", v)
		}
		switch {
		case gerr != nil:
			t.Fatalf("a %T reply was not taken: %v", v, gerr)
		case refetch && (got != dht.Value(stored) || col.lookups != 1):
			t.Fatalf("a %T reply for %v was taken as %#v at %d lookups, want the stored bucket at one", v, r, got, col.lookups)
		case !refetch && (got != v || col.lookups != 0):
			t.Fatalf("a %T reply for %v was taken as %#v at %d lookups, want it as it came", v, r, got, col.lookups)
		}

		// The taken leaf's records, from a decode of their own.
		recs := stored.Records
		if !refetch {
			switch again, _ := decodeProbeReply(raw); again := again.(type) {
			case *Bucket:
				recs = again.Records
			case *bucketRun:
				if recs, err = again.appendTo(nil, math.Inf(-1), math.Inf(1)); err != nil || len(recs) != again.n {
					t.Fatalf("run of %s: %d records, n = %d, %v", again.label, len(recs), again.n, err)
				}
			default:
				recs = nil
			}
		}
		switch got := got.(type) {
		case *Bucket:
			col.addRecords(got.Records, lo, hi)
		case *bucketRun:
			col.addRun(got, lo, hi)
		}
		for i := range data {
			data[i] ^= 0xFF // the transport reuses its buffer
		}
		out, _, err := col.snapshot()
		if want := record.FilterRange(nil, recs, lo, hi); err != nil || !sameBucket(&Bucket{Records: out}, &Bucket{Records: want}) {
			t.Fatalf("the join took %v, %v from a %T; want %v", out, err, got, want)
		}
	})
}

// A leaf is a bucket or one of its short forms: a range query refuses any
// other value stored under a leaf's name as corrupt, in a swept slot as in
// a single get, and fetches nothing more for it.
func TestRangeLeafRefusesOtherKinds(t *testing.T) {
	ix, err := New(dht.NewLocal(), Config{SplitThreshold: 8, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	col := &rangeCollector{r: keyspace.Interval{Lo: 0, Hi: 1}, hint: RangeHint(0, 1)}
	for _, v := range []dht.Value{[]byte("raw"), "string", 42} {
		if got, err := ix.rangeLeaf(context.Background(), v, nil, "k", col); !errors.Is(err, ErrCorrupt) || got != nil || col.lookups != 0 {
			t.Errorf("a %T in a leaf's place was taken as %#v, %v at %d lookups", v, got, err, col.lookups)
		}
	}
}
