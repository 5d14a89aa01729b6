package lht

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

// referenceBucket is the codec's yardstick: 75 records of 64 bytes, three
// quarters of the default theta_split, what a leaf holds on average.
func referenceBucket() *Bucket {
	b := &Bucket{Label: bitlabel.MustParse("#0101101"), Epoch: 7}
	for i := 0; i < 75; i++ {
		v := make([]byte, 64)
		for j := range v {
			v[j] = byte(i + j)
		}
		b.Records = append(b.Records, record.Record{Key: 0.703125 + float64(i)/75/64, Value: v})
	}
	return b
}

// mustEncode is EncodeBucket for tests.
func mustEncode(t testing.TB, b *Bucket) []byte {
	t.Helper()
	data, err := EncodeBucket(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameBucket compares two buckets field by field with floats compared by
// bit pattern, so -0, denormals and NaN payloads count.
func sameBucket(a, b *Bucket) bool {
	if a.Label != b.Label || a.Epoch != b.Epoch || a.Pending != b.Pending || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if math.Float64bits(a.Records[i].Key) != math.Float64bits(b.Records[i].Key) ||
			!bytes.Equal(a.Records[i].Value, b.Records[i].Value) {
			return false
		}
	}
	return true
}

func TestBucketCodecRoundTripAllFields(t *testing.T) {
	b := referenceBucket()
	b.Pending = Pending{Kind: PendingMerge, RemoveKey: "#01011011", PeerEpoch: 1 << 40}
	got, err := DecodeBucket(mustEncode(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBucket(got, b) {
		t.Fatalf("round trip changed the bucket:\n got %+v\nwant %+v", got, b)
	}
}

// Floats travel as their bit patterns: nothing is rounded, normalised or
// lost, whatever the value.
func TestBucketCodecFloatBitExact(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 0.1, 1.0 / 3, math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Nextafter(1, 0), 0x1p-1074 * 3,
	}
	for _, f := range floats {
		b := &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{{Key: f, Value: []byte("v")}}}
		got, err := DecodeBucket(mustEncode(t, b))
		if err != nil {
			t.Fatalf("%g: %v", f, err)
		}
		if !sameBucket(got, b) {
			t.Errorf("%g (bits %#x) did not survive: key bits %#x", f, math.Float64bits(f), math.Float64bits(got.Records[0].Key))
		}
	}
}

// A nil and an empty record list are one state on the wire, and so are a
// nil and an empty value; both decode to nil, as they did under gob.
func TestBucketCodecNilVersusEmpty(t *testing.T) {
	nilRecs := &Bucket{Label: bitlabel.TreeRoot}
	emptyRecs := &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{}}
	if !bytes.Equal(mustEncode(t, nilRecs), mustEncode(t, emptyRecs)) {
		t.Error("nil and empty Records encode differently")
	}
	got, err := DecodeBucket(mustEncode(t, emptyRecs))
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != nil {
		t.Errorf("zero records decoded as %#v, want nil", got.Records)
	}

	vals := &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{{Key: 0.25}, {Key: 0.5, Value: []byte{}}}}
	got, err = DecodeBucket(mustEncode(t, vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Records {
		if r.Value != nil {
			t.Errorf("record %d: zero-length value decoded as %#v, want nil", i, r.Value)
		}
	}
}

// The decoded bucket owns its memory: scribbling over the input (a pooled
// frame buffer gets reused the moment decode returns) leaves it intact,
// and growing one value cannot reach into its neighbour.
func TestBucketCodecDoesNotAliasInput(t *testing.T) {
	want := referenceBucket()
	want.Pending = Pending{Kind: PendingMerge, RemoveKey: "#010110", PeerEpoch: 3}
	data := mustEncode(t, want)
	got, err := DecodeBucket(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if !sameBucket(got, want) {
		t.Fatal("decoded bucket changed when the input buffer was overwritten")
	}
	for i, r := range got.Records {
		if cap(r.Value) != len(r.Value) {
			t.Fatalf("record %d: value has spare capacity %d over its %d bytes", i, cap(r.Value)-len(r.Value), len(r.Value))
		}
	}
	_ = append(got.Records[0].Value, 0xFF) // must reallocate, not overwrite record 1's key
	if !sameBucket(got, want) {
		t.Fatal("appending to one value reached into the shared buffer")
	}
}

func TestBucketCodecAllocs(t *testing.T) {
	b := referenceBucket()
	data := mustEncode(t, b)
	// The bucket, the one backing buffer, the record slice.
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBucket(data); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("DecodeBucket: %v allocations, want at most 4", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = EncodeBucket(b) }); n > 1 {
		t.Errorf("EncodeBucket: %v allocations, want at most 1", n)
	}
	buf := make([]byte, 0, len(data))
	if n := testing.AllocsPerRun(200, func() { buf = b.AppendWire(buf[:0]) }); n != 0 {
		t.Errorf("AppendWire into a sized buffer: %v allocations, want 0", n)
	}
}

// hostileBuckets are inputs whose length fields claim far more than the
// bytes that follow: 2^24 records would be half a gigabyte of slice.
func hostileBuckets() map[string][]byte {
	// version, epoch, label, pending kind | remove-key length, peer
	// epoch (a torn leaf's) | record count: all single bytes bar the
	// label's two.
	empty := (&Bucket{Label: bitlabel.TreeRoot}).AppendWire(nil)
	torn := (&Bucket{Label: bitlabel.TreeRoot, Pending: Pending{Kind: PendingMerge}}).AppendWire(nil)
	toPending, toCount := len(torn)-3, len(empty)-1
	huge := binary.AppendUvarint(nil, 1<<24)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return map[string][]byte{
		"record count":      cat(empty[:toCount], huge),
		"value length":      cat(empty[:toCount], []byte{1}, make([]byte, 8), huge),
		"remove-key length": cat(torn[:toPending], huge),
	}
}

// A length field is checked against the bytes that remain before it sizes
// anything, so a hostile value is refused for the price of the input copy
// and the error, not of what it claims to hold.
func TestBucketDecodeRejectsHostileLengths(t *testing.T) {
	for name, data := range hostileBuckets() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := DecodeBucket(data)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: refusing a %d-byte input allocated %d bytes", name, len(data), got)
		}
	}
}

func TestBucketDecodeRejectsNonCanonical(t *testing.T) {
	b := &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{{Key: 0.5, Value: []byte("v")}}}
	good := mustEncode(t, b)
	kindAt := headerLen(t, b) - 1 // an untorn header ends at its pending kind
	set := func(at int, v byte) []byte { d := append([]byte(nil), good...); d[at] = v; return d }
	cases := map[string][]byte{
		"empty":                              nil,
		"unknown version":                    append([]byte{9}, good[1:]...),
		"trailing bytes":                     append(append([]byte(nil), good...), 0),
		"truncated":                          good[:len(good)-1],
		"padded varint":                      append([]byte{bucketWireVersion, 0x80, 0x00}, good[2:]...), // epoch 0 in two bytes
		"unknown pending":                    set(kindAt, 7),
		"bad label":                          set(2, 99),
		"label pad bit":                      set(3, 0x40), // "#0" is one bit: bit 1 of its byte is padding
		"label past its bytes":               {bucketWireVersion, 0, bitlabel.MaxBits, 0, 0},
		"untorn header, then pending fields": append(append(append([]byte(nil), good[:kindAt+1]...), 0, 0), good[kindAt+1:]...),
	}
	for name, data := range cases {
		if _, err := DecodeBucket(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// oldVersion is b in bucket wire format 1 or 2, built by hand: the
// version byte, the epoch, the label in its retired 9-byte form (bit
// count, bits u64 BE), the pending fields whole whatever the kind, then
// for format 1 the retired rate words (an 8-byte rate and a uvarint
// timestamp), then the record list.
func oldVersion(b *Bucket, version byte) []byte {
	var bits uint64
	for i := 0; i < b.Label.Len(); i++ {
		bits = bits<<1 | uint64(b.Label.Bit(i))
	}
	old := binary.AppendUvarint([]byte{version}, b.Epoch)
	old = binary.BigEndian.AppendUint64(append(old, byte(b.Label.Len())), bits)
	old = binary.AppendUvarint(append(old, byte(b.Pending.Kind)), uint64(len(b.Pending.RemoveKey)))
	old = binary.AppendUvarint(append(old, b.Pending.RemoveKey...), b.Pending.PeerEpoch)
	if version == 1 {
		old = binary.BigEndian.AppendUint64(old, math.Float64bits(2.5))
		old = binary.AppendUvarint(old, 1_700_000_000_000_000_000)
	}
	return record.AppendList(old, b.Records)
}

// A version-1 bucket, which carried the retired rate words, and a
// version-2 one, whose label took nine bytes, are no bucket to this build:
// the decoder refuses them, the projector ships them whole for the
// prober's decoder to refuse, and the patcher applies nothing to them.
// None of them panics.
func TestOldVersionBucketsAreRefused(t *testing.T) {
	b := &Bucket{Label: bitlabel.MustParse("#01"), Epoch: 4,
		Records: []record.Record{{Key: 0.5, Value: []byte("half")}, {Key: 0.75}}}
	for _, version := range []byte{1, 2} {
		old := oldVersion(b, version)
		if _, err := DecodeBucket(old); err == nil {
			t.Errorf("DecodeBucket accepted a version-%d bucket", version)
		}
		for _, hint := range []uint64{ProbeHint(0.5, true), ProbeHint(0.5, false), ProbeHint(0.1, true), RangeHint(0.5, 0.8)} {
			reply := projectBucket(nil, old, hint)
			if !bytes.Equal(reply, old) {
				t.Errorf("version %d, hint %#x: projected %x, want the stored bytes whole", version, hint, reply)
			}
			if v, err := decodeProbeReply(reply); err == nil {
				t.Errorf("version %d, hint %#x: the reply decoded to %#v", version, hint, v)
			}
		}
		for name, patch := range map[string][]byte{
			"upsert":       UpsertPatch(record.Record{Key: 0.6, Value: []byte("v")}, 100, 20),
			"delete":       DeletePatch(0.5, 50),
			"mark split":   MarkSplitPatch(),
			"commit split": CommitSplitPatch(),
			"clear merge":  ClearMergePatch(),
		} {
			if out, reply, _, ok := patchBucket(nil, nil, old, patch); ok || len(out) != 0 || len(reply) != 0 {
				t.Errorf("%s: patched a version-%d bucket: ok %v, %d bytes out, %d of reply", name, version, ok, len(out), len(reply))
			}
		}
	}
}

// headerLen is where b's header ends in its encoding.
func headerLen(t testing.TB, b *Bucket) int {
	t.Helper()
	return len(mustEncode(t, b)) - record.ListSize(b.Records)
}

// probeReply classifies what projectBucket shipped for data: "whole",
// "header", "run", or "record" with the decoded reply; anything else
// fails the test. A short reply must be one DecodeBucket refuses, open
// with its marker and the stored leaf's label, and, for a header or a
// record that is absent, end there.
func probeReply(t testing.TB, data, reply []byte) (string, *BucketRecord) {
	t.Helper()
	if bytes.Equal(reply, data) {
		return "whole", nil
	}
	v, err := decodeProbeReply(reply)
	if _, err := DecodeBucket(reply); err == nil {
		t.Fatalf("DecodeBucket accepted a short reply (%T)", v)
	}
	var b Bucket
	if _, err := parseBucketHeader(&b, data); err != nil || len(reply) == 0 || !bytes.HasPrefix(reply, appendShort(nil, reply[0], b.Label)) {
		t.Fatalf("a %d-byte short reply does not name the stored leaf %s (%v)", len(reply), b.Label, err)
	}
	short := len(appendShort(nil, reply[0], b.Label))
	switch v := v.(type) {
	case *BucketHeader:
		if len(reply) == short && err == nil {
			return "header", nil
		}
	case *bucketRun:
		if err == nil {
			return "run", nil
		}
	case *BucketRecord:
		if err == nil && (v.Found || len(reply) == short) {
			return "record", v
		}
	}
	t.Fatalf("a %d-byte reply to a probe of %d bytes is no whole, header, run or record: %T, %v", len(reply), len(data), v, err)
	return "", nil
}

// The storing peer's half of a probe, over its three outcomes. A leaf
// that cannot cover the hinted key is cut to its label; one that covers
// it goes out whole, or, for a prober that wants the record alone, as
// its label plus the value of the record record.FindByKey would pick (or
// word that there is none); a torn one, or bytes that are no bucket at
// all, are shipped whole whatever was asked. The reply is built from
// bytes in place: no decode, no allocation.
func TestTrimBucket(t *testing.T) {
	b := referenceBucket()               // #0101101 = [0.703125, 0.71875)
	b.Records[40].Key = b.Records[3].Key // a duplicate: the first in list order answers
	data := mustEncode(t, b)
	hdr := headerLen(t, b)
	iv := b.Interval()
	zero := &Bucket{Label: bitlabel.MustParse("#00"), Records: []record.Record{
		{Key: 0.1, Value: []byte("tenth")}, {Key: math.Copysign(0, -1), Value: []byte("minus zero")}, {Key: 0.2}}}
	zeroData := mustEncode(t, zero)
	badList := append([]byte(nil), data[:len(data)-1]...) // sound header, last value a byte short
	absent := &BucketRecord{Label: b.Label}
	found := func(b *Bucket, i int) *BucketRecord { // the reply carries no key
		return &BucketRecord{Label: b.Label, Found: true, Record: record.Record{Value: b.Records[i].Value}}
	}
	for _, tc := range []struct {
		name       string
		data       []byte
		delta      float64
		recordOnly bool
		want       string
		rec        *BucketRecord
	}{
		{"covered, low edge", data, iv.Lo, false, "whole", nil},
		{"covered, inside", data, 0.71, false, "whole", nil},
		{"just below", data, math.Nextafter(iv.Lo, 0), false, "header", nil},
		{"high edge is outside", data, iv.Hi, false, "header", nil},
		{"far away", data, 0.1, false, "header", nil},
		{"not a key", data, math.NaN(), false, "header", nil},
		{"truncated header", data[:hdr-1], 0.1, false, "whole", nil},
		{"junk", []byte("junk"), 0.1, false, "whole", nil},
		{"empty", nil, 0.1, false, "whole", nil},

		{"record of the first key", data, b.Records[0].Key, true, "record", found(b, 0)},
		{"record of the last key", data, b.Records[74].Key, true, "record", found(b, 74)},
		{"record of a duplicated key", data, b.Records[40].Key, true, "record", found(b, 3)},
		{"record of an absent key", data, 0.7101, true, "record", absent},
		{"record, just below", data, math.Nextafter(iv.Lo, 0), true, "header", nil},
		{"record, far away", data, 0.1, true, "header", nil},
		{"record, not a key", data, math.NaN(), true, "header", nil},
		{"record of +0 stored as -0", zeroData, 0, true, "whole", nil}, // the reply's key, the hint's, would read +0
		{"record of -0 stored as -0", zeroData, math.Copysign(0, -1), true, "whole", nil},
		{"bucket for -0", zeroData, math.Copysign(0, -1), false, "whole", nil},
		{"record of an empty value", zeroData, 0.2, true, "record", found(zero, 2)},
		{"record, list does not parse", badList, b.Records[0].Key, true, "whole", nil},
		{"record, truncated header", data[:hdr-1], 0.71, true, "whole", nil},
		{"record, junk", []byte("junk"), 0.1, true, "whole", nil},
		{"record, empty", nil, 0.1, true, "whole", nil},
	} {
		reply := projectBucket([]byte("reply:"), tc.data, ProbeHint(tc.delta, tc.recordOnly))
		if !bytes.HasPrefix(reply, []byte("reply:")) {
			t.Fatalf("%s: the projector rewrote what it was to append to", tc.name)
		}
		got, rec := probeReply(t, tc.data, reply[len("reply:"):])
		if got != tc.want {
			t.Errorf("%s: answered with %s (%d of %d bytes), want %s", tc.name, got, len(reply)-len("reply:"), len(tc.data), tc.want)
			continue
		}
		if tc.rec == nil {
			continue
		}
		if rec.Label != tc.rec.Label || rec.Found != tc.rec.Found ||
			math.Float64bits(rec.Record.Key) != math.Float64bits(tc.rec.Record.Key) || !bytes.Equal(rec.Record.Value, tc.rec.Record.Value) {
			t.Errorf("%s: record reply %+v, want %+v", tc.name, rec, tc.rec)
		}
	}
	for _, pending := range []Pending{{Kind: PendingSplit}, {Kind: PendingMerge, RemoveKey: "#01011011", PeerEpoch: 3}} {
		torn := referenceBucket()
		torn.Pending = pending
		data := mustEncode(t, torn)
		for _, hint := range []uint64{ProbeHint(0.1, false), ProbeHint(0.1, true), ProbeHint(0.71, true)} {
			if got, _ := probeReply(t, data, projectBucket(nil, data, hint)); got != "whole" {
				t.Errorf("torn bucket (kind %d) probed with %#x answered with %s", pending.Kind, hint, got)
			}
		}
	}
	out := make([]byte, 0, 2*len(data))
	for name, hint := range map[string]uint64{
		"header": ProbeHint(0.1, false),
		"whole":  ProbeHint(0.71, false),
		"record": ProbeHint(b.Records[74].Key, true),
		"absent": ProbeHint(0.7101, true),
	} {
		if n := testing.AllocsPerRun(200, func() { out = projectBucket(out[:0], data, hint) }); n != 0 {
			t.Errorf("projectBucket (%s): %v allocations, want 0", name, n)
		}
	}
}

// The hint word is built and read in one place, which takes the sign bit
// for the record-only wish and so must keep -0.0, a legal key, out of it.
func TestProbeHint(t *testing.T) {
	for _, delta := range []float64{0, math.Copysign(0, -1), 0.1, math.Nextafter(1, 0), math.SmallestNonzeroFloat64} {
		for _, recordOnly := range []bool{false, true} {
			got, gotOnly := parseProbeHint(ProbeHint(delta, recordOnly))
			if got != delta || math.Signbit(got) || gotOnly != recordOnly {
				t.Errorf("ProbeHint(%v, %v) reads back as %v (sign %v), %v", delta, recordOnly, got, math.Signbit(got), gotOnly)
			}
		}
	}
	if ProbeHint(0.25, false) != math.Float64bits(0.25) {
		t.Error("a bucket-wanted hint is no longer the key's bit pattern, which pre-record-reply peers read")
	}
	// Such a peer reads a record-only hint as a negative key: no leaf
	// covers it, so it answers a header and the prober re-fetches.
	if old := math.Float64frombits(ProbeHint(0.25, true)); old >= 0 {
		t.Errorf("a record-only hint reads as key %v on a peer that predates it", old)
	}
}

// What a probe may be answered with decodes to exactly one of four
// types, and DecodeBucket, which every other path uses, takes only the
// whole.
func TestDecodeProbeReply(t *testing.T) {
	b := referenceBucket()
	data := mustEncode(t, b)
	hdr := headerLen(t, b)

	v, err := decodeProbeReply(data)
	if got, ok := v.(*Bucket); err != nil || !ok || !sameBucket(got, b) {
		t.Fatalf("whole reply decoded to %T, %v", v, err)
	}
	header := projectBucket(nil, data, ProbeHint(0.1, false))
	v, err = decodeProbeReply(header)
	if h, ok := v.(*BucketHeader); err != nil || !ok || h.Label != b.Label {
		t.Fatalf("header reply decoded to %#v, %v", v, err)
	}
	absent := projectBucket(nil, data, ProbeHint(0.7101, true))
	v, err = decodeProbeReply(absent)
	if r, ok := v.(*BucketRecord); err != nil || !ok || r.Label != b.Label || r.Found {
		t.Fatalf("absent-record reply decoded to %#v, %v", v, err)
	}
	for _, short := range [][]byte{header, absent} {
		if _, err := DecodeBucket(short); err == nil {
			t.Errorf("DecodeBucket accepted the short reply %x", short)
		}
		for n := 0; n < len(short); n++ {
			if v, err := decodeProbeReply(short[:n]); err == nil {
				t.Errorf("%d-byte prefix of %x decoded to %#v", n, short, v)
			}
		}
	}
	// A bucket's header alone, the short form of wire generations before
	// the label forms, is no reply: it is a cut bucket.
	for _, n := range []int{0, 1, hdr - 1, hdr, hdr + 1, len(data) - 1} {
		if v, err := decodeProbeReply(data[:n]); err == nil {
			t.Errorf("%d-byte prefix decoded to %T", n, v)
		}
	}

	// The record reply: its value runs to the reply's end, so a cut
	// through the marker and label is refused and a longer one is a
	// shorter value (the frame around the reply fixes its end); the absent
	// and header markers in front of a value are refused.
	reply := projectBucket(nil, data, ProbeHint(b.Records[5].Key, true))
	label := len(appendShort(nil, recordReplyMarker, b.Label))
	if len(reply) != label+len(b.Records[5].Value) {
		t.Errorf("the record reply is %d bytes, want the marker and label (%d) and the %d-byte value alone", len(reply), label, len(b.Records[5].Value))
	}
	v, err = decodeProbeReply(reply)
	if r, ok := v.(*BucketRecord); err != nil || !ok || r.Label != b.Label || !r.Found ||
		r.Record.Key != 0 || !bytes.Equal(r.Record.Value, b.Records[5].Value) {
		t.Fatalf("record reply decoded to %#v, %v", v, err)
	}
	// The reply stays in the allocator's 64-byte class: one more word and
	// every Get over the wire pays 16 bytes for it.
	if size := unsafe.Sizeof(BucketRecord{}); size > 64 {
		t.Errorf("BucketRecord is %d bytes, past the 64-byte size class", size)
	}
	for i := range reply { // the decoded record pins nothing of the reply buffer
		reply[i] ^= 0xFF
	}
	if r := v.(*BucketRecord); !bytes.Equal(r.Record.Value, b.Records[5].Value) {
		t.Error("the decoded record's value aliases the reply buffer")
	}
	for i := range reply {
		reply[i] ^= 0xFF
	}
	for n := 0; n < len(reply); n++ {
		v, err := decodeProbeReply(reply[:n])
		if r, ok := v.(*BucketRecord); n < label && err == nil || n >= label && (err != nil || !ok || !r.Found || !bytes.Equal(r.Record.Value, reply[label:n])) {
			t.Errorf("%d-byte prefix of a %d-byte record reply decoded to %#v, %v", n, len(reply), v, err)
		}
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, bad := range map[string][]byte{
		"absent + a value":     cat([]byte{absentReplyMarker}, reply[1:]),
		"header + a value":     cat([]byte{headerReplyMarker}, reply[1:]),
		"marker twice":         cat([]byte{recordReplyMarker}, reply),
		"a label pad bit":      {headerReplyMarker, 1, 0x40},
		"a label past MaxBits": {headerReplyMarker, bitlabel.MaxBits + 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"a patch's ack":        {patchAckMarker, 5},
	} {
		if v, err := decodeProbeReply(bad); err == nil {
			t.Errorf("%s: decoded to %#v", name, v)
		}
	}
	for _, v := range []any{&BucketHeader{}, &BucketRecord{}, PatchAck{}} {
		if _, ok := v.(dht.WireValue); ok {
			t.Errorf("%T is a dht.WireValue: it could be put, CAS-ed or written back", v)
		}
	}
}

// bucketFromBytes builds an arbitrary well-formed bucket out of fuzz
// input, so the fuzzer explores the value side of the codec too.
func bucketFromBytes(raw []byte) *Bucket {
	b := &Bucket{Label: bitlabel.TreeRoot}
	next := func(n int) []byte {
		if n > len(raw) {
			n = len(raw)
		}
		out := raw[:n]
		raw = raw[n:]
		return out
	}
	var hdr [13]byte
	copy(hdr[:], next(len(hdr)))
	b.Epoch = binary.BigEndian.Uint64(hdr[0:])
	for _, bit := range hdr[8:10] {
		b.Label = b.Label.Child(int(bit & 1))
	}
	if kind := PendingKind(hdr[10] % 3); kind != PendingNone { // an untorn leaf's Pending is the zero value
		b.Pending = Pending{Kind: kind, RemoveKey: string(next(int(hdr[11] % 8))), PeerEpoch: uint64(hdr[12])}
	}
	for len(raw) >= 9 {
		key := math.Float64frombits(binary.BigEndian.Uint64(next(8)))
		b.Records = append(b.Records, record.Record{Key: key, Value: next(int(next(1)[0]))})
	}
	return b
}

// bucketFuzzSeeds is the seed corpus of the fuzz targets that take a
// bucket's bytes. Small seeds: a mutation of a three-record bucket lands
// inside the grammar far more often than one of a five-kilobyte bucket.
func bucketFuzzSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{
		mustEncode(tb, &Bucket{Label: bitlabel.TreeRoot}),
		mustEncode(tb, &Bucket{Label: bitlabel.MustParse("#011"), Epoch: 1 << 60,
			Pending: Pending{Kind: PendingMerge, RemoveKey: "#0110", PeerEpoch: 9},
			Records: []record.Record{{Key: 0.4}, {Key: 0.45, Value: []byte("x")}}}),
	}
	for _, h := range hostileBuckets() {
		seeds = append(seeds, h)
	}
	seeds = append(seeds, []byte("junk"), []byte{})
	// A stored key that is no data key: as a hint it would read as a range.
	seeds = append(seeds, mustEncode(tb, &Bucket{Label: bitlabel.MustParse("#010"), Records: []record.Record{{Key: 3, Value: []byte("astray")}}}))
	small := mustEncode(tb, &Bucket{Label: bitlabel.MustParse("#01"), Epoch: 3,
		Records: []record.Record{{Key: 0.5, Value: []byte("half")}, {Key: 0.75}}})
	return append(seeds, projectBucket(nil, small, ProbeHint(0.5, true)), projectBucket(nil, small, ProbeHint(0.6, true)))
}

// FuzzDecodeBucket drives arbitrary bytes through DecodeBucket, and an
// arbitrary bucket built from the same bytes through the round trip:
//
//   - decode never panics, and what it returns is bounded by the input: no
//     more records than the bytes could hold, values and remove-key no
//     longer than the input (the hostile-length test pins the refusals'
//     allocation count, which a fuzz worker's background goroutines would
//     blur);
//   - any accepted input is canonical: the decoded bucket encodes back to
//     exactly the input;
//   - decode∘encode is the identity on buckets, floats compared bitwise;
//   - of the prefixes of a valid encoding, a probe reply decodes the whole
//     to the bucket and every other one to an error — never to a bucket
//     with fewer records, nor, the header, to a BucketHeader;
//   - the peer's projector, on arbitrary bytes and on a valid encoding
//     probed with every key in it, one absent key and an arbitrary hint,
//     ships only the whole, the header, a run (FuzzRangeProbe holds
//     that form to its contract) or a record reply, the last refused by
//     DecodeBucket and agreeing with record.FindByKey, its key the hinted
//     one bit for bit (a record stored under -0 goes out whole).
func FuzzDecodeBucket(f *testing.F) {
	for _, seed := range bucketFuzzSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// A probe reply is outside input too: decoding one never panics,
		// and yields a bucket only from what DecodeBucket accepts.
		if v, err := decodeProbeReply(raw); err == nil {
			if _, whole := v.(*Bucket); whole {
				if _, err := DecodeBucket(raw); err != nil {
					t.Fatalf("a probe reply decoded to a bucket that DecodeBucket refuses: %v", err)
				}
			}
		}
		if b, err := DecodeBucket(raw); err == nil {
			if len(b.Records) > len(raw)/9 || len(b.Pending.RemoveKey) > len(raw) {
				t.Fatalf("%d records and a %d-byte remove-key out of %d bytes", len(b.Records), len(b.Pending.RemoveKey), len(raw))
			}
			total := 0
			for _, r := range b.Records {
				if cap(r.Value) != len(r.Value) {
					t.Fatal("value not capacity-clipped")
				}
				total += len(r.Value)
			}
			if total > len(raw) {
				t.Fatalf("%d value bytes out of %d input bytes", total, len(raw))
			}
			if again := mustEncode(t, b); !bytes.Equal(again, raw) {
				t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", raw, again)
			}
		}

		want := bucketFromBytes(raw)
		got, err := DecodeBucket(mustEncode(t, want))
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !sameBucket(got, want) {
			t.Fatalf("round trip changed the bucket:\n got %+v\nwant %+v", got, want)
		}

		enc := mustEncode(t, want)
		hdr := headerLen(t, want)
		for n := 0; n <= len(enc); n++ {
			if n > hdr+64 && n < len(enc)-8 {
				n = len(enc) - 8 // every cut near the header and the end; decoding all of a long tail is quadratic
			}
			v, err := decodeProbeReply(enc[:n])
			switch {
			case n == len(enc):
				if b, ok := v.(*Bucket); err != nil || !ok || !sameBucket(b, want) {
					t.Fatalf("whole encoding as a probe reply: %T, %v", v, err)
				}
			case err == nil:
				t.Fatalf("%d-byte prefix of a %d-byte bucket (header %d) decoded to %#v", n, len(enc), hdr, v)
			}
		}
		var word [8]byte // the input's first bytes, zero-padded
		copy(word[:], raw)
		arbitrary := binary.BigEndian.Uint64(word[:])
		probeReply(t, raw, projectBucket(nil, raw, arbitrary))
		if got, _ := probeReply(t, enc, projectBucket(nil, enc, arbitrary)); got != "whole" && want.Torn() {
			t.Fatalf("a torn bucket was answered with its %s", got)
		}
		keys := []float64{math.Float64frombits(arbitrary &^ probeRecordOnly)} // absent, most likely
		for _, r := range want.Records {
			keys = append(keys, r.Key)
		}
		for _, k := range keys {
			hint := ProbeHint(k, true)
			if hint&probeRange != 0 {
				continue // a generated key may be 2 or more, which makes the word a range hint; a data key never is
			}
			k, _ = parseProbeHint(hint) // a generated key may be negative, a data key never is
			got, rec := probeReply(t, enc, projectBucket(nil, enc, hint))
			switch {
			case want.Torn():
				if got != "whole" {
					t.Fatalf("a torn bucket was answered with its %s", got)
				}
			case !want.Contains(k):
				if got != "header" {
					t.Fatalf("key %v outside %s was answered with the %s", k, want.Label, got)
				}
			default:
				i := record.FindByKey(want.Records, k)
				if i >= 0 && math.Float64bits(want.Records[i].Key) != math.Float64bits(k) {
					if got != "whole" {
						t.Fatalf("key %v, stored as %v, was answered with the %s", k, want.Records[i].Key, got)
					}
					continue
				}
				if got != "record" || rec.Label != want.Label || rec.Found != (i >= 0) || rec.Record.Key != 0 ||
					rec.Found && !bytes.Equal(rec.Record.Value, want.Records[i].Value) {
					t.Fatalf("key %v inside %s was answered with the %s %+v, FindByKey says %d", k, want.Label, got, rec, i)
				}
			}
		}
	})
}

// Typed sinks: boxing the result into an interface would be an allocation
// the codec does not make.
var (
	sinkBytes  []byte
	sinkBucket *Bucket
)

func BenchmarkBucketEncode(b *testing.B) {
	bk := referenceBucket()
	data := mustEncode(b, bk)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes, _ = EncodeBucket(bk)
	}
}

func BenchmarkBucketDecode(b *testing.B) {
	data := mustEncode(b, referenceBucket())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBucket, _ = DecodeBucket(data)
	}
}

// BenchmarkBucketProjectRange is the storing peer's cost of a range
// probe: one walk over the stored bytes and a copy of the third of the
// records the hinted range takes, into the reply buffer it was handed.
func BenchmarkBucketProjectRange(b *testing.B) {
	bk := referenceBucket()
	data := mustEncode(b, bk)
	hint := RangeHint(bk.Records[25].Key, bk.Records[50].Key)
	out := make([]byte, 0, len(data)+1)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = projectBucket(out[:0], data, hint)
	}
	sinkBytes = out
}

// BenchmarkBucketRunDecode is the prober's cost of a range probe's run
// reply: the decoder's validating walk and copy, then the join's decode
// of every record of the run into a result sized for it.
func BenchmarkBucketRunDecode(b *testing.B) {
	bk := referenceBucket()
	reply := projectBucket(nil, mustEncode(b, bk), RangeHint(0, 1))
	out := make([]record.Record, 0, len(bk.Records))
	b.SetBytes(int64(len(reply)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := decodeProbeReply(reply)
		if err != nil {
			b.Fatal(err)
		}
		if out, err = v.(*bucketRun).appendTo(out[:0], 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
