package tcpnet

import (
	"math/rand"
	"testing"

	"lht/internal/bitlabel"
	ilht "lht/internal/lht"
	"lht/internal/pht"
	"lht/internal/record"
)

// innerTag returns the tag under a stored value's epoch prefix.
func innerTag(t *testing.T, v []byte) byte {
	t.Helper()
	if len(v) == 0 || v[0] != tagEpoch {
		t.Fatalf("stored value lacks the epoch prefix: % x", v)
	}
	c := cursor{b: v[1:]}
	if _, err := c.uvarint(); err != nil || c.empty() {
		t.Fatalf("stored value ends in its epoch prefix: % x", v)
	}
	return c.b[0]
}

// storedInnerTag returns the inner tag key is stored with.
func storedInnerTag(t *testing.T, servers []*Server, key string) byte {
	t.Helper()
	for _, s := range servers {
		s.mu.Lock()
		v := storedValue(s, key)
		s.mu.Unlock()
		if v != nil {
			return innerTag(t, v)
		}
	}
	t.Fatalf("%s: stored on no server", key)
	return 0
}

// A bucket travels as tagWire under its tagEpoch prefix, written by the
// bucket itself, and comes back equal without aliasing the frame.
func TestTaggedBucketRoundTrip(t *testing.T) {
	want := &ilht.Bucket{Label: bitlabel.MustParse("#011"), Epoch: 300,
		Records: []record.Record{{Key: 0.4, Value: []byte("forty")}, {Key: 0.45}}}
	b, err := appendValue(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tagEpoch || storedEpoch(b) != 300 {
		t.Fatalf("epoch prefix = % x", b[:4])
	}
	inner := b[1+2:] // 300 is a two-byte varint
	if inner[0] != tagWire || inner[1] != want.WireKind() {
		t.Fatalf("inner tag, kind = %d, %d", inner[0], inner[1])
	}
	enc, _ := ilht.EncodeBucket(want)
	if string(inner[2:]) != string(enc) {
		t.Error("tagWire payload is not the bucket's own encoding")
	}
	v, err := decodeTaggedValue(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xEE // the frame goes back to the pool
	}
	got := v.(*ilht.Bucket)
	if got.Label != want.Label || got.Epoch != 300 || len(got.Records) != 2 || string(got.Records[0].Value) != "forty" {
		t.Fatalf("decoded %+v", got)
	}

	for name, tv := range map[string][]byte{
		"no kind":          {tagWire},
		"unknown kind":     {tagWire, 200, 1, 2, 3},
		"malformed bucket": {tagWire, want.WireKind(), 'j', 'u', 'n', 'k'},
	} {
		if _, err := decodeTaggedValue(tv); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// PHT's trie nodes are the second registered kind: the PHT index runs
// over the framed wire with no gob anywhere, every trie node stored as
// tagWire.
func TestPHTOverBinaryWireWithoutGob(t *testing.T) {
	c, servers := startCluster(t, 3)
	ix, err := pht.New(c, pht.Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	keys := make([]float64, 120)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i], Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		r, _, err := ix.Search(k)
		if err != nil || len(r.Value) != 1 || r.Value[0] != byte(i) {
			t.Fatalf("Search(%v) = %v, %v", k, r, err)
		}
	}
	if _, err := ix.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.RangeParallel(0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, k := range keys[1:] {
		if k >= 0.25 && k < 0.75 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("Range returned %d records, want %d", len(got), want)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tag := storedInnerTag(t, servers, bitlabel.TreeRoot.Key()); tag != tagWire {
		t.Errorf("trie root stored with tag %d, want tagWire", tag)
	}
}
