package lht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// FuzzPackedRun holds a run reply's packed records (record.AppendRun,
// with the key bits of the leaf's interval) to their contract, on
// arbitrary stored buckets and bounds 0 <= lo < hi <= 1 whose hinted
// range the leaf overlaps:
//
//   - a leaf holding a record in the hinted range whose key's bit pattern
//     lies outside its interval (a key stored as -0) has no run: AppendRun
//     refuses it with record.ErrOutsideKeys, and the probe is answered
//     with the bucket whole;
//   - any other leaf is answered with its label and the run, which takes
//     the bytes its layout says and unpacks, with the key bits the
//     label names, to exactly what record.FilterRange keeps of the decoded
//     bucket's records, in order;
//   - the run reply with its run damaged is refused, and record.CountRun,
//     which the decoder runs before it copies anything, allocates nothing
//     to refuse: a count the bytes that follow cannot hold, the keys block
//     or the values block cut short, a pad bit set, and an offset at or
//     past the interval's top where the width reaches it (a leaf whose
//     interval starts at 0, whose offsets cross binades).
func FuzzPackedRun(f *testing.F) {
	v := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	deep, err := keyspace.Mu(0.7, 20) // a leaf at the ledger's depth bound
	if err != nil {
		f.Fatal(err)
	}
	div := keyspace.IntervalOf(deep)
	for _, b := range []*Bucket{
		{Label: bitlabel.MustParse("#0"), Records: []record.Record{{Key: 0.5, Value: v(64, 1)}, {Key: 0, Value: v(64, 2)}, {Key: math.Nextafter(1, 0), Value: v(64, 3)}}},
		{Label: bitlabel.MustParse("#0000"), Records: []record.Record{{Key: 0, Value: v(64, 1)}, {Key: math.SmallestNonzeroFloat64, Value: v(64, 2)}, {Key: math.Nextafter(0.125, 0), Value: v(64, 3)}}},
		{Label: deep, Epoch: 9, Records: []record.Record{{Key: div.Lo, Value: v(64, 1)}, {Key: math.Nextafter(div.Hi, 0), Value: v(64, 2)}, {Key: div.Lo + (div.Hi-div.Lo)/3, Value: v(64, 3)}}},
		{Label: bitlabel.MustParse("#0101101"), Records: []record.Record{{Key: 0.703125}, {Key: 0.71, Value: v(1, 1)}, {Key: 0.705, Value: v(300, 2)}, {Key: 0.711}, {Key: 0.712, Value: v(64, 3)}}},
		{Label: bitlabel.MustParse("#0101101"), Records: []record.Record{{Key: 0.703125}, {Key: 0.71}}},
		{Label: bitlabel.MustParse("#00"), Records: []record.Record{{Key: 0.25, Value: v(2, 1)}, {Key: math.Copysign(0, -1), Value: []byte("minus zero")}}},
		{Label: bitlabel.MustParse("#011"), Records: []record.Record{{Key: 0.9, Value: v(3, 1)}, {Key: 0.1, Value: []byte("astray")}}},
		{Label: bitlabel.MustParse("#011")},
	} {
		data := mustEncode(f, b)
		f.Add(data, 0.0, 1.0)
		f.Add(data, 0.7, 0.71)
	}

	f.Fuzz(func(t *testing.T, raw []byte, lo, hi float64) {
		if !(lo >= 0 && lo < hi && hi <= 1) {
			t.Skip()
		}
		b, err := DecodeBucket(raw)
		hint := RangeHint(lo, hi)
		r := parseRangeHint(hint)
		if err != nil || b.Torn() || !b.Interval().Overlaps(r) {
			return // answered whole or with the label alone: FuzzRangeProbe's business
		}
		var stored Bucket
		list, _ := parseBucketHeader(&stored, raw)
		keys := keyBits(b.Interval())
		run, err := record.AppendRun(nil, list, r.Lo, r.Hi, keys)
		reply := projectBucket(nil, raw, hint)
		if outside(b, r) {
			if !errors.Is(err, record.ErrOutsideKeys) || run != nil || !bytes.Equal(reply, raw) {
				t.Fatalf("a leaf holding a key its run cannot carry: AppendRun = %x, %v; answered with %x", run, err, reply)
			}
			return
		}
		head := appendShort(nil, runReplyMarker, b.Label)
		if err != nil || !bytes.Equal(reply, append(head, run...)) {
			t.Fatalf("AppendRun = %x, %v; the probe was answered with %x", run, err, reply)
		}
		want := record.FilterRange(nil, b.Records, r.Lo, r.Hi)
		got, err := record.UnpackRun(nil, run, keys, math.Inf(-1), math.Inf(1))
		if err != nil || !sameBucket(&Bucket{Records: got}, &Bucket{Records: want}) {
			t.Fatalf("the run of %s unpacks to %v, %v; FilterRange over %v keeps %v", b.Label, got, err, r, want)
		}

		// The layout's size: the count, then one length or a length each,
		// the keys' offsets in Width bits each, the values.
		n := uint64(len(want))
		w := uint64(keys.Width())
		lens, vals := 0, 0
		for _, rec := range want {
			lens += record.UvarintLen(uint64(len(rec.Value)))
			vals += len(rec.Value)
		}
		if n > 0 && len(want[0].Value) > 0 && vals == int(n)*len(want[0].Value) {
			lens = record.UvarintLen(uint64(len(want[0].Value)))
		} else if n > 0 {
			lens++ // the 0 that says a length each follows
		}
		kb := int((n*w + 7) / 8)
		keysAt := record.UvarintLen(n) + lens
		if len(run) != keysAt+kb+vals {
			t.Fatalf("a run of %d records, %d-bit keys and %d bytes of values takes %d bytes, want %d", n, w, vals, len(run), keysAt+kb+vals)
		}

		refuse := func(name string, bad []byte) {
			t.Helper()
			if c, err := record.CountRun(bad, keys); err == nil {
				t.Fatalf("%s: CountRun = %d records", name, c)
			}
			if a := testing.AllocsPerRun(5, func() { _, _ = record.CountRun(bad, keys) }); a != 0 {
				t.Fatalf("%s: CountRun allocates %v times to refuse it", name, a)
			}
			if v, err := decodeProbeReply(append(append([]byte(nil), head...), bad...)); err == nil {
				t.Fatalf("%s: the run reply decoded to %#v", name, v)
			}
		}
		for _, c := range []uint64{uint64(len(run)), 1 << 40} {
			refuse("a count too large", append(binary.AppendUvarint(nil, c), run[record.UvarintLen(n):]...))
		}
		if n == 0 {
			return
		}
		if kb > 0 {
			refuse("keys cut short", run[:keysAt+kb-1])
		}
		if vals > 0 {
			refuse("values cut short", run[:len(run)-1])
		}
		if pad := uint64(kb)*8 - n*w; pad > 0 {
			bad := append([]byte(nil), run...)
			bad[keysAt+kb-1] |= 1
			refuse("a pad bit set", bad)
		}
		if last := keys.Hi - 1 - keys.Lo; w < 64 && last < 1<<w-1 {
			for _, off := range []uint64{last + 1, 1<<w - 1} {
				bad := append([]byte(nil), run...)
				for i := uint64(0); i < w; i++ { // the first key's offset, most significant bit first
					bit, at := byte(0x80)>>(i%8), keysAt+int(i/8)
					if bad[at] &^= bit; off>>(w-1-i)&1 != 0 {
						bad[at] |= bit
					}
				}
				refuse("an offset at or past the top", bad)
			}
		}
	})
}
