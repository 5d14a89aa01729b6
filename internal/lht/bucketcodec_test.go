package lht

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

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
	if a.Label != b.Label || a.Epoch != b.Epoch || a.Pending != b.Pending ||
		math.Float64bits(a.Rate) != math.Float64bits(b.Rate) || a.RateAt != b.RateAt ||
		len(a.Records) != len(b.Records) {
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
	b.Rate, b.RateAt = 1234.5678, 1_700_000_000_123_456_789
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
		b := &Bucket{Label: bitlabel.TreeRoot, Rate: f, RateAt: -1,
			Records: []record.Record{{Key: f, Value: []byte("v")}}}
		got, err := DecodeBucket(mustEncode(t, b))
		if err != nil {
			t.Fatalf("%g: %v", f, err)
		}
		if !sameBucket(got, b) {
			t.Errorf("%g (bits %#x) did not survive: rate bits %#x, key bits %#x", f, math.Float64bits(f),
				math.Float64bits(got.Rate), math.Float64bits(got.Records[0].Key))
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
	// epoch, rate, rate-at | record count: all single bytes bar label
	// and rate.
	empty := (&Bucket{Label: bitlabel.TreeRoot}).AppendWire(nil)
	toPending, toCount := 1+1+bitlabel.BinaryLen+1, len(empty)-1
	huge := binary.AppendUvarint(nil, 1<<24)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return map[string][]byte{
		"record count":      cat(empty[:toCount], huge),
		"value length":      cat(empty[:toCount], []byte{1}, make([]byte, 8), huge),
		"remove-key length": cat(empty[:toPending], huge),
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
	good := mustEncode(t, &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{{Key: 0.5, Value: []byte("v")}}})
	cases := map[string][]byte{
		"empty":           nil,
		"unknown version": append([]byte{9}, good[1:]...),
		"trailing bytes":  append(append([]byte(nil), good...), 0),
		"truncated":       good[:len(good)-1],
		"padded varint":   append([]byte{bucketWireVersion, 0x80, 0x00}, good[2:]...), // epoch 0 in two bytes
		"unknown pending": func() []byte { d := append([]byte(nil), good...); d[2+bitlabel.BinaryLen] = 7; return d }(),
		"bad label":       func() []byte { d := append([]byte(nil), good...); d[2] = 99; return d }(),
	}
	for name, data := range cases {
		if _, err := DecodeBucket(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// headerLen is where b's header ends in its encoding.
func headerLen(t testing.TB, b *Bucket) int {
	t.Helper()
	return len(mustEncode(t, b)) - record.ListSize(b.Records)
}

// The storing peer's half of a header-only probe: a leaf that cannot
// cover the hinted key is cut at the end of its header; one that covers
// it, a torn one, or bytes that are no bucket at all are shipped whole.
// The cut reads bytes in place: no decode, no allocation.
func TestTrimBucket(t *testing.T) {
	b := referenceBucket() // #0101101 = [0.703125, 0.71875)
	data := mustEncode(t, b)
	hdr := headerLen(t, b)
	iv := b.Interval()
	for _, tc := range []struct {
		name  string
		data  []byte
		delta float64
		want  int
	}{
		{"covered, low edge", data, iv.Lo, len(data)},
		{"covered, inside", data, 0.71, len(data)},
		{"just below", data, math.Nextafter(iv.Lo, 0), hdr},
		{"high edge is outside", data, iv.Hi, hdr},
		{"far away", data, 0.1, hdr},
		{"not a key", data, math.NaN(), hdr},
		{"truncated header", data[:hdr-1], 0.1, hdr - 1},
		{"junk", []byte("junk"), 0.1, 4},
		{"empty", nil, 0.1, 0},
	} {
		if got := trimBucket(tc.data, math.Float64bits(tc.delta)); got != tc.want {
			t.Errorf("%s: trimmed to %d of %d bytes, want %d", tc.name, got, len(tc.data), tc.want)
		}
	}
	for _, pending := range []Pending{{Kind: PendingSplit}, {Kind: PendingMerge, RemoveKey: "#01011011", PeerEpoch: 3}} {
		torn := referenceBucket()
		torn.Pending = pending
		data := mustEncode(t, torn)
		if got := trimBucket(data, math.Float64bits(0.1)); got != len(data) {
			t.Errorf("torn bucket (kind %d) trimmed to %d of %d bytes", pending.Kind, got, len(data))
		}
	}
	hint := math.Float64bits(0.1)
	if n := testing.AllocsPerRun(200, func() { sinkInt = trimBucket(data, hint) }); n != 0 {
		t.Errorf("trimBucket: %v allocations, want 0", n)
	}
}

// What a probe may be answered with decodes to exactly one of two types,
// and DecodeBucket, which every other path uses, takes only the whole.
func TestDecodeProbeReply(t *testing.T) {
	b := referenceBucket()
	data := mustEncode(t, b)
	hdr := headerLen(t, b)

	v, err := decodeProbeReply(data)
	if got, ok := v.(*Bucket); err != nil || !ok || !sameBucket(got, b) {
		t.Fatalf("whole reply decoded to %T, %v", v, err)
	}
	v, err = decodeProbeReply(data[:hdr])
	if h, ok := v.(*BucketHeader); err != nil || !ok || h.Label != b.Label {
		t.Fatalf("header-only reply decoded to %#v, %v", v, err)
	}
	if _, err := DecodeBucket(data[:hdr]); err == nil {
		t.Error("DecodeBucket accepted a header-only prefix")
	}
	for _, n := range []int{0, 1, hdr - 1, hdr + 1, len(data) - 1} {
		if v, err := decodeProbeReply(data[:n]); err == nil {
			t.Errorf("%d-byte prefix decoded to %T", n, v)
		}
	}
	torn := referenceBucket()
	torn.Pending = Pending{Kind: PendingSplit}
	if v, err := decodeProbeReply(mustEncode(t, torn)[:headerLen(t, torn)]); err == nil {
		t.Errorf("torn header decoded to %#v", v)
	}
	var hv any = &BucketHeader{}
	if _, ok := hv.(dht.WireValue); ok {
		t.Error("BucketHeader is a dht.WireValue: it could be put, CAS-ed or written back")
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
	var hdr [26]byte
	copy(hdr[:], next(len(hdr)))
	b.Epoch = binary.BigEndian.Uint64(hdr[0:])
	for _, bit := range hdr[8:10] {
		b.Label = b.Label.Child(int(bit & 1))
	}
	b.Pending = Pending{Kind: PendingKind(hdr[10] % 3), RemoveKey: string(next(int(hdr[11] % 8))), PeerEpoch: uint64(hdr[12])}
	b.Rate = math.Float64frombits(binary.BigEndian.Uint64(hdr[13:]))
	b.RateAt = int64(binary.BigEndian.Uint32(hdr[21:]))
	for len(raw) >= 9 {
		key := math.Float64frombits(binary.BigEndian.Uint64(next(8)))
		b.Records = append(b.Records, record.Record{Key: key, Value: next(int(next(1)[0]))})
	}
	return b
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
//     to the bucket, the header (of an untorn bucket) to a BucketHeader
//     with its label, and every other one to an error — never to a bucket
//     with fewer records — and the peer's trimmer cuts nowhere else.
func FuzzDecodeBucket(f *testing.F) {
	// Small seeds: a mutation of a three-record bucket lands inside the
	// grammar far more often than one of a five-kilobyte bucket.
	f.Add(mustEncode(f, &Bucket{Label: bitlabel.TreeRoot}))
	f.Add(mustEncode(f, &Bucket{Label: bitlabel.MustParse("#011"), Epoch: 1 << 60, Rate: 3.5, RateAt: 12345,
		Pending: Pending{Kind: PendingMerge, RemoveKey: "#0110", PeerEpoch: 9},
		Records: []record.Record{{Key: 0.4}, {Key: 0.45, Value: []byte("x")}}}))
	for _, h := range hostileBuckets() {
		f.Add(h)
	}
	f.Add([]byte("junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
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
			case n == hdr && !want.Torn():
				if h, ok := v.(*BucketHeader); err != nil || !ok || h.Label != want.Label {
					t.Fatalf("header as a probe reply: %#v, %v", v, err)
				}
			case err == nil:
				t.Fatalf("%d-byte prefix of a %d-byte bucket (header %d) decoded to %#v", n, len(enc), hdr, v)
			}
		}
		var hint [8]byte // the input's first bytes, zero-padded
		copy(hint[:], raw)
		if cut := trimBucket(enc, binary.BigEndian.Uint64(hint[:])); cut != len(enc) && (cut != hdr || want.Torn()) {
			t.Fatalf("trimmed a %d-byte bucket (header %d, torn %v) to %d bytes", len(enc), hdr, want.Torn(), cut)
		}
	})
}

// Typed sinks: boxing the result into an interface would be an allocation
// the codec does not make.
var (
	sinkBytes  []byte
	sinkBucket *Bucket
	sinkInt    int
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
