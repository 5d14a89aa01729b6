package lht

import (
	"bytes"
	"math"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

// FuzzRunView holds a range query's view to its contract on arbitrary
// bytes and bounds: it errs iff DecodeBucket errs; it returns a *Bucket —
// the one DecodeBucket returns — iff the bucket is torn; otherwise its run
// carries the label and decodes to exactly what FilterRange keeps of the
// decoded bucket's records, in the same order; and it neither writes to
// the buffer it is handed nor keeps any of it.
func FuzzRunView(f *testing.F) {
	for _, seed := range bucketFuzzSeeds(f) {
		f.Add(seed, 0.0, 1.0)
		f.Add(seed, 0.42, 0.5)
	}
	f.Add(mustEncode(f, &Bucket{Label: bitlabel.MustParse("#01"), Records: []record.Record{
		{Key: math.NaN()}, {Key: math.Copysign(0, -1), Value: []byte("z")}, {Key: 0.6, Value: []byte("in")}, {Key: 0.5}}}), 0.0, 0.6)

	f.Fuzz(func(t *testing.T, raw []byte, lo, hi float64) {
		data := append([]byte(nil), raw...)
		v, err := runView(lo, hi)(bucketWireKind, data)
		if !bytes.Equal(data, raw) {
			t.Fatal("the view wrote to its input")
		}
		b, derr := DecodeBucket(raw)
		if (err != nil) != (derr != nil) {
			t.Fatalf("view: %v; DecodeBucket: %v", err, derr)
		}
		if err != nil {
			return
		}
		for i := range data {
			data[i] ^= 0xFF // the transport reuses its buffer
		}
		switch v := v.(type) {
		case *Bucket:
			if !b.Torn() || !bytes.Equal(mustEncode(t, v), raw) {
				t.Fatalf("a bucket (torn: %v) came back whole: %+v", b.Torn(), v)
			}
		case *bucketRun:
			if b.Torn() {
				t.Fatal("a torn bucket was cut into a run")
			}
			want := record.FilterRange(nil, b.Records, lo, hi)
			got, err := record.AppendRange(nil, v.enc, math.Inf(-1), math.Inf(1))
			if err != nil || v.label != b.Label || v.n != len(want) || !sameBucket(&Bucket{Records: got}, &Bucket{Records: want}) {
				t.Fatalf("run of %s: %d records %v, %v; want %s: %v", v.label, v.n, got, err, b.Label, want)
			}
		default:
			t.Fatalf("the view returned a %T", v)
		}
	})
}

// A view leaves every kind but the bucket's to the kind's own decoder.
func TestRunViewLeavesOtherKindsAlone(t *testing.T) {
	const unregistered = 200
	v, err := runView(0, 1)(unregistered, mustEncode(t, &Bucket{Label: bitlabel.TreeRoot}))
	if _, werr := dht.DecodeWire(unregistered, nil); err == nil || werr == nil || err.Error() != werr.Error() || v != nil {
		t.Errorf("view of an unregistered kind = %v, %v; DecodeWire says %v", v, err, werr)
	}
}
