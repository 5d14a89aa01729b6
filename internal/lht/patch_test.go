package lht

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

// applyUpsert and applyDelete are the whole-bucket arm's mutations, as
// InsertContext and DeleteContext make them on a clone: what a patch must
// reproduce byte for byte on the storing peer.
func applyUpsert(b *Bucket, rec record.Record) *Bucket {
	nb := b.Clone()
	if i := record.FindByKey(nb.Records, rec.Key); i >= 0 {
		nb.Records[i] = rec
	} else {
		nb.Records = append(nb.Records, rec)
	}
	nb.Epoch++
	return nb
}

func applyDelete(b *Bucket, delta float64) (*Bucket, bool) {
	i := record.FindByKey(b.Records, delta)
	if i < 0 {
		return nil, false
	}
	nb := b.Clone()
	nb.Records[i] = nb.Records[len(nb.Records)-1]
	nb.Records = nb.Records[:len(nb.Records)-1]
	nb.Epoch++
	return nb, true
}

// markedSplit, committedSplit and clearedMerge are the steps a split and
// a merge take on the bucket their peer keeps, as the index makes them:
// what the in-place patches must reproduce byte for byte.
func markedSplit(b *Bucket) *Bucket {
	m := *b
	m.Pending = Pending{Kind: PendingSplit}
	m.Epoch++
	return &m
}

func committedSplit(marked *Bucket) *Bucket {
	return splitHalves(marked).local
}

func clearedMerge(merged *Bucket) *Bucket {
	c := *merged
	c.Pending = Pending{}
	return &c
}

// Reply forms that carry no count, as patchedReply reports them.
const (
	wholeReply = -1
	splitReply = -2
)

// patchedReply classifies a patch's reply against the new stored bytes:
// the record count an acknowledgement carries, wholeReply for the bucket
// whole, or splitReply for a split reply, which must be the new header
// verbatim, the local half's record count and the remote half record for
// record, as splitHalves cuts the stored bucket, and no longer than it.
func patchedReply(t testing.TB, reply, stored []byte) int {
	t.Helper()
	v, err := decodePatchReply(reply)
	switch a := v.(type) {
	case PatchAck:
		if _, err := DecodeBucket(reply); err == nil {
			t.Fatal("DecodeBucket accepted a patch acknowledgement")
		}
		return a.Records
	case *LeafAck:
		if b, err := DecodeBucket(stored); err != nil || a.Label != b.Label {
			t.Fatalf("labelled acknowledgement of %s for %v, %v", a.Label, b, err)
		}
		return a.Records
	case *Bucket:
		if !bytes.Equal(reply, stored) {
			t.Fatalf("whole reply differs from the stored bytes:\n%x\n%x", reply, stored)
		}
		return wholeReply
	case *Cut:
		b, err := DecodeBucket(stored)
		if err != nil {
			t.Fatal(err)
		}
		c := splitHalves(markedSplit(b))
		local, remote := c.local, c.remote
		head := len(stored) - record.ListSize(b.Records)
		if !bytes.Equal(reply[1:1+head], stored[:head]) || !sameBucket(a.leaf, markedSplit(&Bucket{Label: b.Label, Epoch: b.Epoch})) {
			t.Fatalf("split reply's header %x (%v) differs from the stored one, %x", reply[1:1+head], a.leaf, stored[:head])
		}
		if a.n != len(local.Records) || a.n == 0 || !sameBucket(a.remote, remote) || a.local.Records != nil || !sameBucket(a.local, &Bucket{Label: local.Label, Epoch: local.Epoch}) {
			t.Fatalf("split reply of %v: %d local records and remote %v, want %d and %v", b, a.n, a.remote.Records, len(local.Records), remote.Records)
		}
		if len(reply) > len(stored) {
			t.Fatalf("split reply of %d bytes for a bucket of %d", len(reply), len(stored))
		}
		return splitReply
	}
	t.Fatalf("patch reply decodes to %T, %v", v, err)
	return 0
}

// The storing peer's half of a patched write: patch(encode(b)) is
// encode(apply(b)) for every mutation the whole-bucket arm makes, the
// reply is the count or, across the patch's threshold, the new bytes, and
// everything the whole arm would not have written that way is refused.
// A labelled acknowledgement names its leaf at every depth a label
// reaches: the label's binary form, a byte and a byte per eight bits,
// whose length decodePatchReply reads from that form. The patcher builds
// it so at every depth a float64 key can still tell a leaf from its
// sibling.
func TestLabelledAckAtEveryDepth(t *testing.T) {
	bits := "#0110100111010001011101100101001110100010111011001010011101000101"
	for n := 0; n <= bitlabel.MaxBits; n++ {
		l := bitlabel.MustParse(bits[:1+n])
		reply, _ := l.AppendBinary([]byte{patchAckMarker, 1})
		if want := 2 + 1 + (n+7)/8; len(reply) != want {
			t.Fatalf("%s: a %d-byte ack, want %d bytes", l, len(reply), want)
		}
		if v, err := decodePatchReply(reply); err != nil || *v.(*LeafAck) != (LeafAck{Label: l, Records: 1}) {
			t.Errorf("%s: ack %x decoded to %#v, %v", l, reply, v, err)
		}
		if n > 48 {
			continue
		}
		rec := record.Record{Key: (&Bucket{Label: l}).Interval().Lo, Value: []byte("v")}
		if _, got, _, ok := patchBucket(nil, nil, mustEncode(t, &Bucket{Label: l}), WantLabel(UpsertPatch(rec, 0, 20))); !ok || !bytes.Equal(got, reply) {
			t.Errorf("%s: the patcher acknowledged %x (ok %v), want %x", l, got, ok, reply)
		}
	}
	tooDeep := append([]byte{patchAckMarker, 1, bitlabel.MaxBits + 1}, make([]byte, 8)...)
	if v, err := decodePatchReply(tooDeep); err == nil {
		t.Errorf("an ack with a %d-bit label decoded to %#v", bitlabel.MaxBits+1, v)
	}
}

func TestPatchBucket(t *testing.T) {
	small := &Bucket{Label: bitlabel.MustParse("#01"), Epoch: 127, // [0.5, 1)
		Records: []record.Record{
			{Key: 0.5, Value: []byte("half")},
			{Key: 0.75, Value: bytes.Repeat([]byte{7}, 200)},
			{Key: 0.625},
			{Key: 0.5, Value: []byte("shadowed")},
			{Key: 0.875, Value: []byte("last")},
		}}
	wide := &Bucket{Label: bitlabel.TreeRoot, Epoch: 1<<14 - 1}
	for i := 0; i < 127; i++ {
		wide.Records = append(wide.Records, record.Record{Key: float64(i) / 256, Value: []byte{byte(i)}})
	}
	zero := &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{{Key: 0, Value: []byte("plus")}}}
	lowHalf := &Bucket{Label: small.Label, Epoch: 3, Records: []record.Record{{Key: 0.5}, {Key: 0.7, Value: []byte("v")}}}
	negZero := math.Copysign(0, -1)
	prefix := []byte("dst")

	for name, tc := range map[string]struct {
		b     *Bucket
		patch []byte
		want  *Bucket
		whole bool // the reply is the new bucket, or its split reply where the leaf can split
	}{
		"append":                                       {b: small, patch: UpsertPatch(record.Record{Key: 0.6, Value: []byte("new")}, 100, 20)},
		"append an empty value":                        {b: small, patch: UpsertPatch(record.Record{Key: 0.6}, 0, 20)},
		"append at the threshold":                      {b: small, patch: UpsertPatch(record.Record{Key: 0.6}, 7, 20), whole: true},
		"append under the threshold":                   {b: small, patch: UpsertPatch(record.Record{Key: 0.6}, 8, 20)},
		"replace first of duplicates":                  {b: small, patch: UpsertPatch(record.Record{Key: 0.5, Value: []byte("a longer value than before")}, 100, 20)},
		"replace past the threshold":                   {b: small, patch: UpsertPatch(record.Record{Key: 0.875}, 3, 20), whole: true},
		"replace +0 with -0":                           {b: zero, patch: UpsertPatch(record.Record{Key: negZero, Value: []byte("minus")}, 100, 20)},
		"count 127 to 128":                             {b: wide, patch: UpsertPatch(record.Record{Key: 0.9}, 0, 20)},
		"delete last":                                  {b: small, patch: DeletePatch(0.875, 0)},
		"delete middle":                                {b: small, patch: DeletePatch(0.75, 3)},
		"delete first of duplicates":                   {b: small, patch: DeletePatch(0.5, 5)},
		"delete below the threshold":                   {b: small, patch: DeletePatch(0.625, 6), whole: true},
		"delete the only record":                       {b: zero, patch: DeletePatch(negZero, 0)},
		"append, the label asked for":                  {b: small, patch: WantLabel(UpsertPatch(record.Record{Key: 0.6}, 100, 20))},
		"delete, the label asked for":                  {b: small, patch: WantLabel(DeletePatch(0.75, 3))},
		"append one short of the bound":                {b: small, patch: UpsertPatch(record.Record{Key: 0.6}, 5, 20), whole: true},
		"append at the bound, depth D":                 {b: small, patch: UpsertPatch(record.Record{Key: 0.6}, 4, 2), whole: true},
		"replace at the bound":                         {b: small, patch: UpsertPatch(record.Record{Key: 0.75}, 4, 20), whole: true},
		"append at the threshold, every record moving": {b: lowHalf, patch: UpsertPatch(record.Record{Key: 0.6}, 3, 20), whole: true},
	} {
		var rec record.Record
		_, arg, _ := record.ReadUvarint(tc.patch[1:])
		form := wholeReply
		if tc.patch[0]&^patchWantLabel == patchUpsert {
			var depth uint64
			if depth, arg, _ = record.ReadUvarint(arg); canSplit(tc.b.Label, depth) {
				form = splitReply
			}
			recs, err := record.DecodeList(append([]byte{1}, arg...))
			if err != nil {
				t.Fatal(err)
			}
			rec = recs[0]
			tc.want = applyUpsert(tc.b, rec)
		} else {
			tc.want, _ = applyDelete(tc.b, math.Float64frombits(binary.BigEndian.Uint64(arg)))
		}
		if splitHalves(markedSplit(tc.want)).n == 0 {
			form = wholeReply // the shorter
		}
		data, want := mustEncode(t, tc.b), mustEncode(t, tc.want)
		out, reply, epoch, ok := patchBucket(append([]byte(nil), prefix...), append([]byte(nil), prefix...), data, tc.patch)
		if !ok || epoch != tc.want.Epoch || !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], want) {
			t.Errorf("%s: ok %v, epoch %d; patched\n%x, want\n%x", name, ok, epoch, out, want)
			continue
		}
		if !bytes.HasPrefix(reply, prefix) {
			t.Errorf("%s: the reply buffer's prefix is gone", name)
		}
		if got := patchedReply(t, reply[len(prefix):], want); tc.whole && got != form || !tc.whole && got != len(tc.want.Records) {
			t.Errorf("%s: reply says %d (-1 = whole, -2 = split), want whole %v of %d records", name, got, tc.whole, len(tc.want.Records))
		}
		dst, rep := make([]byte, 0, 2*len(data)+64), make([]byte, 0, 2*len(data)+64)
		if n := testing.AllocsPerRun(50, func() { patchBucket(dst, rep, data, tc.patch) }); n != 0 {
			t.Errorf("%s: %v allocations with room in dst and reply, want 0", name, n)
		}
	}

	// The in-place steps of a split and a merge, acknowledged with the
	// record count they leave. 1<<14 - 1 is the widest epoch in two varint
	// bytes, so marking or committing that leaf moves all that follows.
	rightmost := &Bucket{Label: bitlabel.MustParse("#011"), Epoch: 4, // [0.75, 1]
		Records: []record.Record{{Key: 1, Value: []byte("top")}, {Key: 0.8}, {Key: 0.875, Value: []byte("mid")}, {Key: 0.9}}}
	merged := &Bucket{Label: bitlabel.MustParse("#01"), Epoch: 9, Records: small.Records,
		Pending: Pending{Kind: PendingMerge, RemoveKey: "#01", PeerEpoch: 5}}
	for name, tc := range map[string]struct {
		b, want *Bucket
		patch   []byte
	}{
		"mark":                                   {small, markedSplit(small), MarkSplitPatch()},
		"mark, the epoch a byte wider":           {wide, markedSplit(wide), MarkSplitPatch()},
		"commit to the right child, rate halved": {markedSplit(small), committedSplit(markedSplit(small)), CommitSplitPatch()},
		"commit to the left child":               {markedSplit(wide), committedSplit(markedSplit(wide)), CommitSplitPatch()},
		"commit keeps 1.0 in the rightmost leaf": {markedSplit(rightmost), committedSplit(markedSplit(rightmost)), CommitSplitPatch()},
		"commit of an empty leaf":                {markedSplit(&Bucket{Label: bitlabel.TreeRoot}), &Bucket{Label: bitlabel.MustParse("#00"), Epoch: 2}, CommitSplitPatch()},
		"clear, the epoch kept":                  {merged, clearedMerge(merged), ClearMergePatch()},
	} {
		data, want := mustEncode(t, tc.b), mustEncode(t, tc.want)
		out, reply, epoch, ok := patchBucket(append([]byte(nil), prefix...), append([]byte(nil), prefix...), data, tc.patch)
		if !ok || epoch != tc.want.Epoch || !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], want) {
			t.Errorf("%s: ok %v, epoch %d; patched\n%x, want\n%x", name, ok, epoch, out, want)
			continue
		}
		if got := patchedReply(t, reply[len(prefix):], want); got != len(tc.want.Records) {
			t.Errorf("%s: reply says %d (-1 = whole, -2 = split), want an acknowledgement of %d records", name, got, len(tc.want.Records))
		}
		dst, rep := make([]byte, 0, 2*len(data)+64), make([]byte, 0, 64)
		if n := testing.AllocsPerRun(50, func() { patchBucket(dst, rep, data, tc.patch) }); n != 0 {
			t.Errorf("%s: %v allocations with room in dst and reply, want 0", name, n)
		}
	}
	if got := committedSplit(markedSplit(rightmost)); len(got.Records) != 3 || got.Records[0].Key != 1 {
		t.Errorf("the rightmost leaf's local half holds %v, want 1.0 and the keys from 0.875", got.Records)
	}

	torn := small.Clone()
	torn.Pending = Pending{Kind: PendingSplit}
	data := mustEncode(t, small)
	list := len(data) - record.ListSize(small.Records)
	put := UpsertPatch(record.Record{Key: 0.6, Value: []byte("v")}, 9, 20)
	for name, tc := range map[string]struct{ data, patch []byte }{
		"delete of an absent key":  {data, DeletePatch(0.6, 0)},
		"delete of NaN":            {data, DeletePatch(math.NaN(), 0)},
		"torn, upsert":             {mustEncode(t, torn), put},
		"torn, delete":             {mustEncode(t, torn), DeletePatch(0.75, 0)},
		"non-covering upsert":      {data, UpsertPatch(record.Record{Key: 0.25}, 9, 20)},
		"non-covering delete":      {data, DeletePatch(0.25, 0)},
		"a new key at the bound":   {data, UpsertPatch(record.Record{Key: 0.6}, 4, 20)},
		"a new key past the bound": {data, UpsertPatch(record.Record{Key: 0.6}, 1, 20)},
		"corrupt list":             {data[:len(data)-1], put},
		"bytes after the list":     {append(append([]byte(nil), data...), 0), put},
		"count past the records":   {append(append([]byte(nil), data[:list]...), 9), put},
		"header alone":             {data[:list], put},
		"not a bucket":             {[]byte("junk"), put},
		"nothing stored":           {nil, put},
		"empty patch":              {data, nil},
		"op alone":                 {data, []byte{patchUpsert}},
		"unknown op":               {data, append([]byte{9}, put[1:]...)},
		"padded threshold":         {data, append([]byte{patchUpsert, 0x80, 0x00}, put[2:]...)},
		"short key":                {data, put[:6]},
		"record cut short":         {data, put[:len(put)-1]},
		"bytes after the record":   {data, append(append([]byte(nil), put...), 0)},
		"bytes after a delete key": {data, append(DeletePatch(0.75, 0), 0)},

		"mark of a split leaf":                {mustEncode(t, torn), MarkSplitPatch()},
		"mark of a merged leaf":               {mustEncode(t, merged), MarkSplitPatch()},
		"commit of an untorn leaf":            {data, CommitSplitPatch()},
		"commit of a merged leaf":             {mustEncode(t, merged), CommitSplitPatch()},
		"commit of the virtual root":          {mustEncode(t, markedSplit(&Bucket{})), CommitSplitPatch()},
		"commit of a leaf as deep as a label": {mustEncode(t, markedSplit(&Bucket{Label: deepestLabel()})), CommitSplitPatch()},
		"clear of an untorn leaf":             {data, ClearMergePatch()},
		"clear of a split leaf":               {mustEncode(t, torn), ClearMergePatch()},
		"mark, a corrupt list":                {data[:len(data)-1], MarkSplitPatch()},
		"commit, bytes after the list":        {append(mustEncode(t, torn), 0), CommitSplitPatch()},
		"clear, bytes after the list":         {append(mustEncode(t, merged), 0), ClearMergePatch()},
		"mark, bytes after the op":            {data, append(MarkSplitPatch(), 0)},
		"commit, bytes after the op":          {mustEncode(t, torn), append(CommitSplitPatch(), 0)},
		"clear, bytes after the op":           {mustEncode(t, merged), append(ClearMergePatch(), 0)},
		"an unknown one-byte op":              {data, []byte{6}},
		"a record op alone":                   {data, []byte{patchDelete}},
	} {
		out, reply, _, ok := patchBucket(prefix, prefix, tc.data, tc.patch)
		if ok || !bytes.Equal(out, prefix) || !bytes.Equal(reply, prefix) {
			t.Errorf("%s: ok %v, dst %q, reply %q: want a refusal that appends nothing", name, ok, out, reply)
		}
	}

	// Through the registry, as a storing node reaches it.
	out, reply, epoch, ok := dht.PatchWire(nil, nil, bucketWireKind, data, put)
	if v, err := dht.DecodePatchReply(bucketWireKind, reply); !ok || epoch != small.Epoch+1 || err != nil || v != (PatchAck{Records: 6}) {
		t.Errorf("PatchWire: ok %v, epoch %d, reply %#v, %v", ok, epoch, v, err)
	}
	if b, err := DecodeBucket(out); err != nil || !sameBucket(b, applyUpsert(small, record.Record{Key: 0.6, Value: []byte("v")})) {
		t.Errorf("PatchWire stored %v, %v", b, err)
	}
	// A split reply of small, and the same with the header, the count or
	// the list broken.
	_, split, _, _ := patchBucket(nil, nil, data, UpsertPatch(record.Record{Key: 0.6}, 6, 20))
	hdr := list + 1 // the epoch one up takes a second byte
	head := 1 + hdr + 1
	if v, err := decodePatchReply(split); err != nil || split[head-1] != 2 {
		t.Fatalf("split reply %x decoded to %#v, %v, want 2 local records", split, v, err)
	}
	root := mustEncode(t, &Bucket{})
	tornData := mustEncode(t, torn)
	splitOf := func(header []byte, local uint64, list []byte) []byte {
		return append(binary.AppendUvarint(append([]byte{splitReplyMarker}, header...), local), list...)
	}
	if rebuilt := splitOf(split[1:1+hdr], 2, split[head:]); !bytes.Equal(rebuilt, split) {
		t.Fatalf("split reply %x rebuilt as %x", split, rebuilt)
	}
	for name, bad := range map[string][]byte{
		"marker alone":    {patchAckMarker},
		"padded count":    {patchAckMarker, 0x80, 0x00},
		"label cut short": {patchAckMarker, 5, 1},
		"label pad bit":   {patchAckMarker, 5, 1, 0x40},
		"label too deep":  append([]byte{patchAckMarker, 5, bitlabel.MaxBits + 1}, make([]byte, 8)...),
		"trailing byte":   {patchAckMarker, 5, 1, 0, 0},
		"absurd count":    binary.AppendUvarint([]byte{patchAckMarker}, 1<<40),
		"header alone":    data[:list],
		"a record reply":  projectBucket(nil, data, ProbeHint(0.75, true)),
		"empty":           {},

		"split marker alone":           {splitReplyMarker},
		"split reply, no count":        split[:1+hdr],
		"split reply, no list":         split[:head],
		"split reply, a torn leaf":     splitOf(tornData[:len(tornData)-record.ListSize(torn.Records)], 2, split[head:]),
		"split reply, no local half":   splitOf(split[1:1+hdr], 0, split[head:]),
		"split reply, absurd count":    splitOf(split[1:1+hdr], 1<<40, split[head:]),
		"split reply, the root":        splitOf(root[:len(root)-1], 2, split[head:]),
		"split reply, a trailing byte": append(append([]byte(nil), split...), 0),
	} {
		if v, err := decodePatchReply(bad); err == nil {
			t.Errorf("patch reply %s decoded to %#v", name, v)
		}
	}
}

// A split reply is trusted no further than a whole one: an upsert's, of
// the leaf stored under the patched name that covers the key. Any other
// is dropped, and the leaf fetched with one plain, charged get.
func TestLyingSplitReplyIsRefetchedNotTrusted(t *testing.T) {
	ix, err := New(dht.NewLocal(), Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	key := bitlabel.TreeRoot.Name().Key() // the root leaf's, as New stored it
	leaf := &Bucket{Label: bitlabel.TreeRoot, Epoch: 3, Records: []record.Record{{Key: 0.1}, {Key: 0.3}, {Key: 0.7}}}
	honest := splitHalves(markedSplit(leaf))
	deeper := splitHalves(markedSplit(&Bucket{Label: bitlabel.MustParse("#00"), Epoch: 3}))
	upsert := &write{rec: record.Record{Key: 0.3}, upsert: true}
	for name, tc := range map[string]struct {
		key     string
		w       *write
		c       *Cut
		trusted bool
	}{
		"honest":               {key, upsert, honest, true},
		"to a delete":          {key, &write{rec: record.Record{Key: 0.3}}, honest, false},
		"under another name":   {bitlabel.MustParse("#01").Key(), upsert, honest, false},
		"not covering the key": {key, &write{rec: record.Record{Key: 0.7}, upsert: true}, deeper, false},
	} {
		var cost Cost
		f, _, err := ix.committed(context.Background(), tc.key, tc.w, 4, tc.c, &cost)
		if err != nil || (f.cut == tc.c) != tc.trusted || cost.Lookups != btoi(!tc.trusted) {
			t.Errorf("%s: committed = %+v, %v at %d lookups; want trusted %v", name, f, err, cost.Lookups, tc.trusted)
		}
	}
}

// held reports whether b holds a record with key delta.
func held(b *Bucket, delta float64) bool { return record.FindByKey(b.Records, delta) >= 0 }

// deepestLabel is a label as deep as a label goes, which has no children.
func deepestLabel() bitlabel.Label {
	l := bitlabel.TreeRoot
	for l.Len() < bitlabel.MaxBits {
		l = l.Left()
	}
	return l
}

// FuzzPatchBucket drives arbitrary stored bytes and an arbitrary patch
// through the patcher, and a well-formed bucket built from the same bytes
// through every patch its records suggest:
//
//   - it never panics, and a refusal appends nothing;
//   - what it stores always decodes, one epoch on (the epoch kept, for a
//     merge's clear), and its reply is an acknowledgement of that bucket's
//     record count or those very bytes;
//   - it accepts exactly when the whole-bucket arm could have made the
//     write (an untorn bucket that covers the key; for a delete, holds it;
//     for a new key, short of the weight bound or at the depth bound) or
//     taken the step (marked an untorn leaf, committed a split one,
//     cleared a merged one) and then stores exactly that arm's encoding.
func FuzzPatchBucket(f *testing.F) {
	b := &Bucket{Label: bitlabel.MustParse("#01"), Epoch: 3,
		Records: []record.Record{{Key: 0.5, Value: []byte("half")}, {Key: 0.75}}}
	small := mustEncode(f, b)
	f.Add(small, UpsertPatch(record.Record{Key: 0.6, Value: []byte("new")}, 4, 20))
	f.Add(small, UpsertPatch(record.Record{Key: 0.5}, 0, 20))
	f.Add(small, DeletePatch(0.75, 2))
	f.Add(small, DeletePatch(0.1, 0))
	f.Add(small, UpsertPatch(record.Record{Key: 0.6}, 1, 20)) // refused: a new key past the weight bound
	f.Add([]byte("junk"), []byte{})
	for _, h := range hostileBuckets() {
		f.Add(h, DeletePatch(0.5, 0))
	}
	merged := *b
	merged.Pending = Pending{Kind: PendingMerge, RemoveKey: "#011", PeerEpoch: 2}
	f.Add(small, MarkSplitPatch())
	f.Add(mustEncode(f, markedSplit(b)), CommitSplitPatch())
	f.Add(mustEncode(f, &merged), ClearMergePatch())

	f.Fuzz(func(t *testing.T, raw, patch []byte) {
		var form int // the reply of check's last applied patch, as patchedReply reads it
		check := func(data, patch []byte) (stored *Bucket) {
			out, reply, epoch, ok := patchBucket([]byte("d"), []byte("r"), data, patch)
			if !ok {
				if string(out) != "d" || string(reply) != "r" {
					t.Fatalf("a refusal appended %q, %q", out, reply)
				}
				return nil
			}
			before, err := DecodeBucket(data)
			if err != nil {
				t.Fatalf("patched %x, which does not decode: %v", data, err)
			}
			bump := uint64(1)
			if len(patch) == 1 && patch[0] == patchClearMerge {
				bump = 0
			}
			stored, err = DecodeBucket(out[1:])
			if err != nil || stored.Epoch != epoch || epoch != before.Epoch+bump {
				t.Fatalf("stored bytes decode to %v, %v; epoch %d after %d", stored, err, epoch, before.Epoch)
			}
			if form = patchedReply(t, reply[1:], out[1:]); form >= 0 && form != len(stored.Records) {
				t.Fatalf("acknowledged %d records, stored %d", form, len(stored.Records))
			}
			return stored
		}
		check(raw, patch)

		b := bucketFromBytes(raw)
		enc := mustEncode(t, b)
		check(enc, patch)
		keys := []float64{0.3}
		for _, r := range b.Records {
			keys = append(keys, r.Key)
		}
		for i, k := range keys {
			rec := record.Record{Key: k, Value: patch}
			able := !b.Torn() && b.Contains(k)
			got := check(enc, UpsertPatch(rec, i, 20))
			if (got != nil) != able || able && !sameBucket(got, applyUpsert(b, rec)) {
				t.Fatalf("upsert of %v into %s (torn %v): stored %v", k, b.Label, b.Torn(), got)
			}
			// Crossing, the leaf comes back as its split reply, or whole
			// where its local half would be empty.
			if got != nil && i > 0 && got.Weight() >= i {
				want := splitReply
				if splitHalves(markedSplit(got)).n == 0 {
					want = wholeReply
				}
				if form != want {
					t.Fatalf("upsert of %v into %s crossing %d: reply form %d, want %d", k, b.Label, i, form, want)
				}
			}
			want, held := applyDelete(b, k)
			got = check(enc, DeletePatch(k, i))
			if (got != nil) != (able && held) || got != nil && !sameBucket(got, want) {
				t.Fatalf("delete of %v from %s (torn %v, held %v): stored %v", k, b.Label, b.Torn(), held, got)
			}
		}
		// A new key at the weight bound is refused while the leaf can still
		// split, and taken at the depth bound.
		if rec, d := (record.Record{Key: 0.3}), b.Label.Len(); !b.Torn() && b.Contains(0.3) && !held(b, 0.3) && b.Weight() > d {
			if got := check(enc, UpsertPatch(rec, b.Weight()-d, 20)); got != nil {
				t.Fatalf("upsert of a new key into %s at the weight bound stored %v", b.Label, got)
			}
			if got := check(enc, UpsertPatch(rec, b.Weight()-d, d)); !sameBucket(got, applyUpsert(b, rec)) {
				t.Fatalf("upsert of a new key into %s at the depth bound stored %v", b.Label, got)
			}
		}

		for _, step := range []struct {
			patch []byte
			able  bool
			want  func(*Bucket) *Bucket
		}{
			{MarkSplitPatch(), !b.Torn(), markedSplit},
			{CommitSplitPatch(), b.Pending.Kind == PendingSplit, committedSplit}, // bucketFromBytes labels are 2 bits deep
			{ClearMergePatch(), b.Pending.Kind == PendingMerge, clearedMerge},
		} {
			got := check(enc, step.patch)
			if (got != nil) != step.able || step.able && !sameBucket(got, step.want(b)) {
				t.Fatalf("patch %d of %s (pending %d): stored %v", step.patch[0], b.Label, b.Pending.Kind, got)
			}
			if check(enc, append(step.patch, patch...)) != nil && len(patch) > 0 {
				t.Fatalf("patch %d with %d bytes after the op accepted", step.patch[0], len(patch))
			}
		}
	})
}
