package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
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

// storedTags counts the servers' stored values by inner tag.
func storedTags(t *testing.T, servers ...*Server) map[byte]int {
	t.Helper()
	tags := map[byte]int{}
	for _, s := range servers {
		s.mu.Lock()
		for _, v := range s.store {
			tags[innerTag(t, v)]++
		}
		s.mu.Unlock()
	}
	return tags
}

// storedInnerTag returns the inner tag key is stored with.
func storedInnerTag(t *testing.T, servers []*Server, key string) byte {
	t.Helper()
	for _, s := range servers {
		s.mu.Lock()
		v, ok := s.store[key]
		s.mu.Unlock()
		if ok {
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

// TestMixedFormatStore runs one store holding buckets in both stored
// forms: a tagGob one planted as a pre-tagWire node would have stored it,
// a tagWire one written over the wire. The client reads both, and the
// epoch compare-and-swap, which only ever reads the tagEpoch prefix, works
// over either form and re-stores in the client's own.
func TestMixedFormatStore(t *testing.T) {
	ctx := context.Background()
	c, servers := startCluster(t, 3)

	bucket := func(epoch uint64, tag string) *ilht.Bucket {
		return &ilht.Bucket{Label: bitlabel.MustParse("#01"), Epoch: epoch,
			Records: []record.Record{{Key: 0.6, Value: []byte(tag)}}}
	}
	check := func(key string, epoch uint64, tag string) {
		t.Helper()
		v, err := c.Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		b, ok := v.(*ilht.Bucket)
		if !ok || b.Epoch != epoch || len(b.Records) != 1 || string(b.Records[0].Value) != tag {
			t.Fatalf("get %s = %v, want epoch %d %q", key, v, epoch, tag)
		}
	}

	// The tagGob form cannot be written over the wire any more: plant it
	// on the key's owner.
	enc, err := encodeValue(bucket(5, "first"))
	if err != nil {
		t.Fatal(err)
	}
	planted := append(appendUv([]byte{tagEpoch}, 5), tagGob)
	planted = append(planted, enc...)
	owner := c.holders("stored-gob")[0].addr
	for _, s := range servers {
		s.mu.Lock()
		if s.ln.Addr().String() == owner {
			s.store["stored-gob"] = planted
		}
		s.mu.Unlock()
	}
	if err := c.Put(ctx, "stored-wire", bucket(5, "first")); err != nil {
		t.Fatal(err)
	}
	keys := []string{"stored-gob", "stored-wire"}
	for i, want := range []byte{tagGob, tagWire} {
		if got := storedInnerTag(t, servers, keys[i]); got != want {
			t.Fatalf("%s stored with tag %d, want %d", keys[i], got, want)
		}
		check(keys[i], 5, "first")
	}

	// The batch plane carries both forms in one reply.
	vals, errs := c.GetBatch(ctx, keys)
	for i := range keys {
		if b, ok := vals[i].(*ilht.Bucket); errs[i] != nil || !ok || b.Epoch != 5 {
			t.Fatalf("GetBatch %s = %v, %v", keys[i], vals[i], errs[i])
		}
	}

	// A swap over either form: a stale epoch loses and names the winner,
	// the right one commits as tagWire.
	for _, key := range keys {
		var conflict *dht.CASConflictError
		if err := c.PutIf(ctx, key, bucket(5, "stale"), 4); !errors.As(err, &conflict) || conflict.WinnerEpoch != 5 {
			t.Fatalf("%s: stale swap = %v, want a conflict naming epoch 5", key, err)
		}
		if err := c.PutIf(ctx, key, bucket(6, "second"), 5); err != nil {
			t.Fatalf("%s: swap: %v", key, err)
		}
		if got := storedInnerTag(t, servers, key); got != tagWire {
			t.Fatalf("%s re-stored with tag %d, want tagWire", key, got)
		}
		check(key, 6, "second")
	}
}

// TestParentSnapshotServesBuckets restarts a node from a snapshot the
// parent commit (PR 13, gob buckets throughout) wrote and drives the
// index over it with this commit's client: the old buckets read back, and
// writes land in the new form beside the old ones they did not touch.
// testdata/pr13-node.snap holds 60 records under theta_split 8, keys drawn
// from rand.NewSource(14), values "old-<i>".
func TestParentSnapshotServesBuckets(t *testing.T) {
	ctx := context.Background()
	srv := NewServer()
	if err := srv.LoadSnapshot("testdata/pr13-node.snap"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	oldKeys := srv.Len()
	if tags := storedTags(t, srv); tags[tagGob] != oldKeys || oldKeys == 0 {
		t.Fatalf("fixture holds %d keys with tags %v, want all tagGob", oldKeys, tags)
	}

	c, err := Dial(ctx, ClusterConfig{Seeds: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	old := make([]float64, 60)
	for i := range old {
		old[i] = rng.Float64()
		r, _, err := ix.Search(old[i])
		if err != nil || string(r.Value) != fmt.Sprintf("old-%d", i) {
			t.Fatalf("record %d of the snapshot: %v, %v", i, r, err)
		}
	}

	// Read-clone-CAS over the old buckets of the lower fifth of the key
	// space, enough fresh keys to split them; the rest stay as they were.
	for i := 0; i < 40; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64() / 5, Value: []byte("new")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Delete(old[0]); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, err := ix.Count(); err != nil || n != 99 {
		t.Fatalf("Count = %d, %v, want 99", n, err)
	}
	tags := storedTags(t, srv)
	if tags[tagWire] == 0 || tags[tagGob] == 0 || tags[tagWire]+tags[tagGob] != srv.Len() {
		t.Errorf("stored forms after writing over %d old buckets: %v, want both gob and wire", oldKeys, tags)
	}
}

// PHT's trie nodes are the second registered kind: the PHT index runs
// over the framed wire with no gob registration for pht.Node anywhere in
// this test binary, which a tagGob fallback would trip over.
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
