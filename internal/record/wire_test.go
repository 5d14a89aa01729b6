package record

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestListRoundTrip(t *testing.T) {
	rs := []Record{
		{Key: 0.125, Value: []byte("a")},
		{Key: math.Copysign(0, -1)},
		{Key: 0.75, Value: bytes.Repeat([]byte{7}, 300)}, // two-byte length
	}
	data := AppendList([]byte("prefix"), rs)
	if got, want := len(data)-len("prefix"), ListSize(rs); got != want {
		t.Fatalf("ListSize = %d, AppendList wrote %d", want, got)
	}
	got, err := DecodeList(data[len("prefix"):])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("%d records, want %d", len(got), len(rs))
	}
	for i := range rs {
		if math.Float64bits(got[i].Key) != math.Float64bits(rs[i].Key) || !bytes.Equal(got[i].Value, rs[i].Value) {
			t.Errorf("record %d: %v, want %v", i, got[i], rs[i])
		}
		if cap(got[i].Value) != len(got[i].Value) {
			t.Errorf("record %d: value not capacity-clipped", i)
		}
	}
	// Values are views of the buffer handed in, not copies.
	data[len(data)-1] ^= 0xFF
	if got[2].Value[299] == 7 {
		t.Error("DecodeList copied the value; it should share the caller's buffer")
	}
}

func TestDecodeListMalformed(t *testing.T) {
	one := AppendList(nil, []Record{{Key: 0.5, Value: []byte("v")}})
	cases := map[string][]byte{
		"empty":              {},
		"count past the end": binary.AppendUvarint(nil, 1<<40),
		"count just too big": {2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // 2 records claimed, 9 bytes follow
		"truncated key":      {1, 0, 0, 0},
		"value past the end": append(append([]byte{1}, make([]byte, 8)...), 5, 'x'),
		"padded count":       append([]byte{0x81, 0x00}, one[1:]...),
		"trailing byte":      append(append([]byte(nil), one...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeList(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestReadUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		got, rest, err := ReadUvarint(append(binary.AppendUvarint(nil, v), 0xEE))
		if err != nil || got != v || len(rest) != 1 {
			t.Errorf("ReadUvarint(%d) = %d, %d left, %v", v, got, len(rest), err)
		}
		if n := len(binary.AppendUvarint(nil, v)); uvarintLen(v) != n {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, uvarintLen(v), n)
		}
	}
	for name, b := range map[string][]byte{
		"empty":     {},
		"unended":   {0x80},
		"padded":    {0x80, 0x00},
		"overflows": bytes.Repeat([]byte{0xFF}, 11),
	} {
		if _, _, err := ReadUvarint(b); err == nil {
			t.Errorf("%s: read without error", name)
		}
	}
}

// FindInList agrees with FindByKey on what DecodeList decodes, accepts
// exactly the lists DecodeList accepts, and hands DecodeRecord a record
// whose value is a copy.
func TestFindInList(t *testing.T) {
	rs := []Record{
		{Key: 0.125, Value: []byte("a")},
		{Key: math.Copysign(0, -1), Value: []byte("minus zero")},
		{Key: 0.75, Value: bytes.Repeat([]byte{7}, 300)},
		{Key: 0.125, Value: []byte("shadowed")},
		{Key: math.NaN(), Value: []byte("never matches")},
		{Key: 0.5},
	}
	data := AppendList(nil, rs)
	for _, key := range []float64{0.125, 0, math.Copysign(0, -1), 0.75, 0.5, 0.3, math.NaN()} {
		enc, err := FindInList(data, key)
		if err != nil {
			t.Fatalf("FindInList(%v): %v", key, err)
		}
		i := FindByKey(rs, key)
		if (enc != nil) != (i >= 0) {
			t.Fatalf("FindInList(%v) found %v, FindByKey says %d", key, enc != nil, i)
		}
		if i < 0 {
			continue
		}
		got, err := DecodeRecord(enc)
		if err != nil || math.Float64bits(got.Key) != math.Float64bits(rs[i].Key) || !bytes.Equal(got.Value, rs[i].Value) {
			t.Errorf("FindInList(%v) = %v, %v, want record %d %v", key, got, err, i, rs[i])
		}
		if len(got.Value) > 0 && &got.Value[0] == &enc[len(enc)-len(got.Value)] {
			t.Errorf("DecodeRecord(%v) aliases its input", key)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = FindInList(data, 0.75) }); n != 0 {
		t.Errorf("FindInList: %v allocations, want 0", n)
	}

	one := AppendList(nil, rs[:1])
	for name, bad := range map[string][]byte{
		"empty":              {},
		"count past the end": binary.AppendUvarint(nil, 1<<40),
		"truncated":          data[:len(data)-1],
		"trailing byte":      append(append([]byte(nil), data...), 0),
		"padded count":       append([]byte{0x81, 0x00}, one[1:]...),
	} {
		if _, err := DecodeList(bad); err == nil {
			t.Fatalf("%s: DecodeList accepts it", name)
		}
		// A hit before the damage must not come back either.
		if enc, err := FindInList(bad, 0.125); err == nil {
			t.Errorf("%s: FindInList walked it without error (hit: %v)", name, enc != nil)
		}
	}
	for name, bad := range map[string][]byte{
		"empty":         {},
		"short key":     one[1:5],
		"short value":   one[1 : len(one)-1],
		"trailing byte": append(append([]byte(nil), one[1:]...), 0),
	} {
		if r, err := DecodeRecord(bad); err == nil {
			t.Errorf("%s: DecodeRecord returned %v", name, r)
		}
	}
}
