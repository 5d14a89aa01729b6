package lht

import (
	"bytes"
	"math"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// A range hint reads back as a range that contains the query's, and as
// the query's own when its bounds are whole cells; it is told from a key
// hint by a bit no key sets, and a peer that reads it as a key hint sees
// a key no leaf covers.
func TestRangeHint(t *testing.T) {
	const cell = 1.0 / (1 << rangeHintBits)
	last := math.Nextafter(1, 0)
	for _, r := range []keyspace.Interval{
		{Lo: 0, Hi: 1}, {Lo: 0, Hi: cell}, {Lo: 1 - cell, Hi: 1}, {Lo: 0.25, Hi: 0.703125}, // whole cells
		{Lo: 0.1, Hi: 0.3}, {Lo: 0.1, Hi: math.Nextafter(0.1, 1)}, {Lo: last, Hi: 1}, {Lo: 0, Hi: math.SmallestNonzeroFloat64},
		{Lo: math.Copysign(0, -1), Hi: 0.5}, {Lo: 0.5 - cell/3, Hi: 0.5 + cell/3}, {Lo: 1.0 / 3, Hi: 2.0 / 3},
	} {
		hint := RangeHint(r.Lo, r.Hi)
		got := parseRangeHint(hint)
		if hint&probeRange == 0 || hint&probeRecordOnly != 0 {
			t.Errorf("RangeHint(%v) = %#x: want bit 62 set and bit 63 clear", r, hint)
		}
		if !r.ContainedIn(got) || r.Lo-got.Lo > cell || got.Hi-r.Hi > cell {
			t.Errorf("RangeHint(%v) reads back as %v, want the range rounded out to whole cells", r, got)
		}
		if exact := r.Lo == math.Floor(r.Lo/cell)*cell && r.Hi == math.Floor(r.Hi/cell)*cell; exact && got != r {
			t.Errorf("RangeHint(%v) reads back as %v, want it exactly", r, got)
		}
		// A peer that predates the range hint reads the word as a key.
		if old, _ := parseProbeHint(hint); old < 2 {
			t.Errorf("RangeHint(%v) reads as key %v on a peer that predates it", r, old)
		}
	}
	for _, delta := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.5, last, 1} {
		for _, recordOnly := range []bool{false, true} {
			if ProbeHint(delta, recordOnly)&probeRange != 0 {
				t.Errorf("ProbeHint(%v, %v) sets the range bit", delta, recordOnly)
			}
		}
	}
}

// runOf decodes a reply that must be a run reply for a leaf labeled
// label, and returns its records.
func runOf(t testing.TB, reply []byte, label bitlabel.Label) []record.Record {
	t.Helper()
	v, err := decodeProbeReply(reply)
	run, ok := v.(*bucketRun)
	if err != nil || !ok || run.label != label {
		t.Fatalf("a %d-byte reply decoded to %#v, %v, want a run of %s", len(reply), v, err, label)
	}
	recs, err := run.appendTo(nil, math.Inf(-1), math.Inf(1))
	if err != nil || len(recs) != run.n {
		t.Fatalf("run of %s: %d records, n = %d, %v", label, len(recs), run.n, err)
	}
	return recs
}

// The storing peer's half of a range probe. A leaf that overlaps the
// hinted range goes out as its label and the records record.FilterRange
// would keep, in stored order; one that does not, as the label alone; a
// torn one, or bytes that are no bucket, or a bucket whose list does not
// parse, whole. The reply is built from bytes in place: no decode, no
// allocation, and nothing of what the buffer already held is touched.
func TestProjectRange(t *testing.T) {
	b := referenceBucket() // #0101101 = [0.703125, 0.71875)
	b.Records[10], b.Records[60] = b.Records[60], b.Records[10]
	data := mustEncode(t, b)
	hdr := headerLen(t, b)
	iv := b.Interval()
	const cell = 1.0 / (1 << rangeHintBits)
	empty := mustEncode(t, &Bucket{Label: b.Label, Epoch: 2})
	badList := append([]byte(nil), data[:len(data)-1]...) // sound header, last value a byte short
	for _, tc := range []struct {
		name   string
		data   []byte
		lo, hi float64
		want   string
	}{
		{"the whole key space", data, 0, 1, "run"},
		{"the leaf's own interval", data, iv.Lo, iv.Hi, "run"},
		{"a slice of the leaf", data, b.Records[20].Key, b.Records[40].Key, "run"},
		{"one cell at the low edge", data, iv.Lo, iv.Lo + cell, "run"},
		{"one cell at the high edge", data, iv.Hi - cell, iv.Hi, "run"},
		{"bounds inside one cell", data, 0.71 + cell/4, 0.71 + cell/2, "run"},
		{"an overlap that holds no record", data, math.Nextafter(b.Records[0].Key, 1), b.Records[1].Key, "run"},
		{"a leaf with no records", empty, 0, 1, "run"},
		{"ending where the leaf begins", data, 0.5, iv.Lo, "header"},
		{"beginning where the leaf ends", data, iv.Hi, 1, "header"},
		{"far away", data, 0.1, 0.2, "header"},
		{"far away, list does not parse", badList, 0.1, 0.2, "header"}, // as for a key hint: the header is sound
		{"far away, no list", data[:hdr], 0.1, 0.2, "header"},
		{"list does not parse", badList, 0, 1, "whole"},
		{"truncated header", data[:hdr-1], 0, 1, "whole"},
		{"junk", []byte("junk"), 0, 1, "whole"},
		{"empty", nil, 0, 1, "whole"},
	} {
		reply := projectBucket([]byte("reply:"), tc.data, RangeHint(tc.lo, tc.hi))
		if !bytes.HasPrefix(reply, []byte("reply:")) {
			t.Fatalf("%s: the projector rewrote what it was to append to", tc.name)
		}
		reply = reply[len("reply:"):]
		if got, _ := probeReply(t, tc.data, reply); got != tc.want {
			t.Errorf("%s: answered with %s (%d of %d bytes), want %s", tc.name, got, len(reply), len(tc.data), tc.want)
			continue
		}
		if tc.want != "run" {
			continue
		}
		if !bytes.HasPrefix(reply, appendShort(nil, runReplyMarker, b.Label)) {
			t.Errorf("%s: the run reply does not open with the marker and the stored label", tc.name)
		}
		stored, err := DecodeBucket(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		// The peer cuts by the hint, a superset; the query's own bounds
		// then cut what it takes to exactly what FilterRange keeps.
		hinted := parseRangeHint(RangeHint(tc.lo, tc.hi))
		got := runOf(t, reply, b.Label)
		if want := record.FilterRange(nil, stored.Records, hinted.Lo, hinted.Hi); !sameBucket(&Bucket{Records: got}, &Bucket{Records: want}) {
			t.Errorf("%s: the run holds %v, FilterRange over %v keeps %v", tc.name, got, hinted, want)
		}
		got = record.FilterRange(nil, got, tc.lo, tc.hi)
		if want := record.FilterRange(nil, stored.Records, tc.lo, tc.hi); !sameBucket(&Bucket{Records: got}, &Bucket{Records: want}) {
			t.Errorf("%s: the query takes %v, want %v", tc.name, got, want)
		}
	}
	for _, pending := range []Pending{{Kind: PendingSplit}, {Kind: PendingMerge, RemoveKey: "#01011011", PeerEpoch: 3}} {
		torn := referenceBucket()
		torn.Pending = pending
		data := mustEncode(t, torn)
		for _, hint := range []uint64{RangeHint(0, 1), RangeHint(0.1, 0.2), RangeHint(0.71, 0.711)} {
			if got, _ := probeReply(t, data, projectBucket(nil, data, hint)); got != "whole" {
				t.Errorf("torn bucket (kind %d) probed with %#x answered with %s", pending.Kind, hint, got)
			}
		}
	}
	// Bit 62 alone decides the form: the record-only bit means nothing in
	// a range hint.
	if hint := RangeHint(0, 1); !bytes.Equal(projectBucket(nil, data, hint|probeRecordOnly), projectBucket(nil, data, hint)) {
		t.Error("bit 63 changed the answer to a range hint")
	}
	out := make([]byte, 0, 2*len(data))
	for name, tc := range map[string]struct {
		data []byte
		hint uint64
	}{
		"all":      {data, RangeHint(0, 1)},
		"slice":    {data, RangeHint(b.Records[20].Key, b.Records[40].Key)},
		"none":     {data, RangeHint(math.Nextafter(b.Records[0].Key, 1), b.Records[1].Key)},
		"header":   {data, RangeHint(0.1, 0.2)},
		"bad list": {badList, RangeHint(0, 1)},
	} {
		if n := testing.AllocsPerRun(200, func() { out = projectBucket(out[:0], tc.data, tc.hint) }); n != 0 {
			t.Errorf("projectBucket (%s): %v allocations, want 0", name, n)
		}
	}
}

// A run reply decodes to a run that owns its bytes, and to nothing else:
// every cut of it is refused, as is one whose list does not parse, and
// the marker in front of anything but a label and a list.
func TestDecodeRunReply(t *testing.T) {
	b := referenceBucket()
	data := mustEncode(t, b)
	short := len(appendShort(nil, runReplyMarker, b.Label))
	lo, hi := b.Records[20].Key, b.Records[40].Key
	reply := projectBucket(nil, data, RangeHint(lo, hi))
	got := record.FilterRange(nil, runOf(t, reply, b.Label), lo, hi)
	if want := b.Records[20:40]; !sameBucket(&Bucket{Records: got}, &Bucket{Records: want}) {
		t.Fatalf("the run decodes to %v, want %v", got, want)
	}
	v, _ := decodeProbeReply(reply)
	for i := range reply { // the transport reuses its buffer
		reply[i] ^= 0xFF
	}
	if again, err := v.(*bucketRun).appendTo(nil, lo, hi); err != nil || !sameBucket(&Bucket{Records: again}, &Bucket{Records: got}) {
		t.Errorf("the run's records alias the reply buffer: %v, %v", again, err)
	}
	for i := range reply {
		reply[i] ^= 0xFF
	}
	for n := 0; n < len(reply); n++ {
		if v, err := decodeProbeReply(reply[:n]); err == nil {
			t.Errorf("%d-byte prefix of a %d-byte run reply decoded to %#v", n, len(reply), v)
		}
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, bad := range map[string][]byte{
		"marker + whole":        cat([]byte{runReplyMarker}, data),
		"list a byte short":     reply[:len(reply)-1],
		"count one too many":    cat(reply[:short], []byte{reply[short] + 1}, reply[short+1:]),
		"trailing byte":         cat(reply, []byte{0}),
		"no list":               reply[:short],
		"marker twice":          cat([]byte{runReplyMarker}, reply),
		"marker + record reply": cat([]byte{runReplyMarker}, projectBucket(nil, data, ProbeHint(lo, true))),
		"marker alone":          {runReplyMarker},
	} {
		if v, err := decodeProbeReply(bad); err == nil {
			t.Errorf("%s: decoded to %#v", name, v)
		}
	}
	if _, ok := any(&bucketRun{}).(dht.WireValue); ok {
		t.Error("*bucketRun is a dht.WireValue: it could be put, CAS-ed or written back")
	}
}

// FuzzRangeProbe holds the range hint and both halves of a range probe to
// their contract on arbitrary stored bytes and bounds 0 <= lo < hi <= 1:
//
//   - the hint reads back as a superset of [lo, hi), and as [lo, hi) when
//     both bounds are multiples of 2^-31;
//   - the projector never panics, keeps what its buffer held and, given
//     one large enough, allocates nothing to answer for an untorn bucket (a
//     refusal builds its error, a torn header its remove-key);
//   - stored bytes that do not open with a bucket's header go out as
//     they are; an untorn leaf that does not overlap the hinted range
//     goes out as its label behind the header marker (as for a key hint,
//     the list behind a sound header is not read); any other reply
//     decodes iff
//     DecodeBucket takes the stored bytes, to a *Bucket — the stored one —
//     iff that is torn or holds a record in the hinted range that a run
//     cannot carry (outside), and otherwise to a run with the stored label
//     from which the query's bounds take exactly what record.FilterRange
//     keeps of the decoded bucket's records, in order;
//   - the run keeps nothing of the reply buffer.
func FuzzRangeProbe(f *testing.F) {
	for _, seed := range bucketFuzzSeeds(f) {
		f.Add(seed, 0.0, 1.0)
		f.Add(seed, 0.42, 0.5)
	}
	f.Add(mustEncode(f, &Bucket{Label: bitlabel.MustParse("#01"), Records: []record.Record{
		{Key: math.NaN()}, {Key: math.Copysign(0, -1), Value: []byte("z")}, {Key: 0.6, Value: []byte("in")}, {Key: 0.5}}}), 0.0, 0.6)
	f.Add(mustEncode(f, &Bucket{Label: bitlabel.MustParse("#011"), Records: []record.Record{{Key: 0.9, Value: []byte("astray")}}}), 0.8, 1.0)

	f.Fuzz(func(t *testing.T, raw []byte, lo, hi float64) {
		if !(lo >= 0 && lo < hi && hi <= 1) {
			t.Skip()
		}
		const cell = 1.0 / (1 << rangeHintBits)
		r := keyspace.Interval{Lo: lo, Hi: hi}
		hint := RangeHint(lo, hi)
		hinted := parseRangeHint(hint)
		if hint&probeRange == 0 || !r.ContainedIn(hinted) {
			t.Fatalf("RangeHint(%v) = %#x reads back as %v", r, hint, hinted)
		}
		if lo == math.Floor(lo/cell)*cell && hi == math.Floor(hi/cell)*cell && (hinted.Lo != lo || hinted.Hi != hi) {
			t.Fatalf("RangeHint(%v), whole cells, reads back as %v", r, hinted)
		}

		data := append([]byte(nil), raw...)
		out := append(make([]byte, 0, len("dst:")+len(raw)+1), "dst:"...)
		allocs := testing.AllocsPerRun(20, func() { out = projectBucket(out[:len("dst:")], data, hint) })
		if !bytes.Equal(data, raw) || !bytes.HasPrefix(out, []byte("dst:")) {
			t.Fatal("the projector wrote to its input or to what its buffer held")
		}
		reply := out[len("dst:"):]
		b, derr := DecodeBucket(raw)
		if derr == nil && !b.Torn() && allocs != 0 {
			t.Fatalf("projectBucket: %v allocations for an untorn bucket", allocs)
		}

		var stored Bucket
		list, herr := parseBucketHeader(&stored, raw)
		switch {
		case herr != nil:
			// What is stored has no bucket's header: no bucket, possibly
			// some short reply's bytes. It goes out as it stands, for the
			// prober to refuse or re-fetch.
			if !bytes.Equal(reply, raw) {
				t.Fatalf("stored bytes that are no bucket were answered with %x", reply)
			}
			return
		case !stored.Torn() && !stored.Interval().Overlaps(hinted):
			if !bytes.Equal(reply, appendShort(nil, headerReplyMarker, stored.Label)) {
				t.Fatalf("%s probed with %v was answered with %x, want its label", stored.Label, hinted, reply)
			}
			return
		case len(list) == 0 && !bytes.Equal(reply, raw):
			t.Fatalf("a bare header overlapping the hint was answered with %x", reply)
		}
		v, err := decodeProbeReply(reply)
		if (err != nil) != (derr != nil) {
			t.Fatalf("reply: %v; DecodeBucket of what is stored: %v", err, derr)
		}
		if err != nil {
			return
		}
		for i := range out {
			out[i] ^= 0xFF // the transport reuses its buffer
		}
		switch v := v.(type) {
		case *Bucket:
			if !b.Torn() && !outside(b, hinted) || !bytes.Equal(mustEncode(t, v), raw) {
				t.Fatalf("a bucket (torn: %v) came back whole: %+v", b.Torn(), v)
			}
		case *bucketRun:
			if b.Torn() || outside(b, hinted) {
				t.Fatalf("a bucket (torn: %v) was cut into a run", b.Torn())
			}
			want := record.FilterRange(nil, b.Records, lo, hi)
			got, err := v.appendTo(nil, lo, hi)
			if err != nil || v.label != b.Label || v.n < len(want) || !sameBucket(&Bucket{Records: got}, &Bucket{Records: want}) {
				t.Fatalf("run of %s: %d records, of which in %v %v, %v; want %s: %v", v.label, v.n, r, got, err, b.Label, want)
			}
		default:
			t.Fatalf("the reply decoded to a %T", v)
		}
	})
}

// outside reports whether b holds a record in r whose key's bit pattern
// lies outside b's interval: one a run cannot carry, such as a key stored
// as -0, so a probe hinted with r is answered with the bucket whole.
func outside(b *Bucket, r keyspace.Interval) bool {
	keys := keyBits(b.Interval())
	for _, rec := range record.FilterRange(nil, b.Records, r.Lo, r.Hi) {
		if k := math.Float64bits(rec.Key); k < keys.Lo || k >= keys.Hi {
			return true
		}
	}
	return false
}
