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
