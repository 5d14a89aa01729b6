package pht

import (
	"bytes"
	"reflect"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/record"
)

func TestNodeCodecRoundTripAllFields(t *testing.T) {
	nodes := []*Node{
		{Label: bitlabel.TreeRoot, Leaf: true},
		{Label: bitlabel.MustParse("#01")}, // internal marker
		{Label: bitlabel.MustParse("#0110"), Leaf: true, Epoch: 1 << 33,
			Prev: bitlabel.MustParse("#010"), HasPrev: true, Next: bitlabel.MustParse("#0111"), HasNext: true,
			Records: []record.Record{{Key: 0.8, Value: []byte("v")}, {Key: 0.81}}},
	}
	for _, n := range nodes {
		data, err := EncodeNode(n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeNode(data)
		if err != nil {
			t.Fatalf("%v: %v", n, err)
		}
		for i := range data {
			data[i] = 0xAA // the node must not alias its input
		}
		if !reflect.DeepEqual(got, n) {
			t.Errorf("round trip: got %+v, want %+v", got, n)
		}
		again, _ := EncodeNode(got)
		if want, _ := EncodeNode(n); !bytes.Equal(again, want) {
			t.Errorf("%v: re-encoding differs", n)
		}
	}
}

// TestNodeCodecEveryLabelLength: a node round-trips at every label
// length, and each of its three labels takes one byte and a byte per
// eight bits, so a node's size grows with its labels' depths.
func TestNodeCodecEveryLabelLength(t *testing.T) {
	bits := "#0110100111010001011101100101001110100010111011001010011101000101"
	for n := 0; n <= bitlabel.MaxBits; n++ {
		l := bitlabel.MustParse(bits[:1+n])
		prev := bitlabel.MustParse(bits[:1+n/2])
		node := &Node{Label: l, Leaf: true, Prev: prev, HasPrev: true, Next: l}
		data, err := EncodeNode(node)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 + 2*(1+(n+7)/8) + 1 + 1 + (n/2+7)/8 + 1; len(data) != want {
			t.Errorf("%s: encoded in %d bytes, want %d", l, len(data), want)
		}
		got, err := DecodeNode(data)
		if err != nil || !reflect.DeepEqual(got, node) {
			t.Errorf("%s: round trip = %+v, %v", l, got, err)
		}
	}
}

func TestDecodeNodeMalformed(t *testing.T) {
	good, _ := EncodeNode(&Node{Label: bitlabel.MustParse("#01"), Leaf: true,
		Records: []record.Record{{Key: 0.6, Value: []byte("v")}}})
	label, _ := bitlabel.MustParse("#01").MarshalBinary()
	flagsAt := 2 + len(label) // version, one-byte epoch, label
	cases := map[string][]byte{
		"empty":           nil,
		"unknown version": append([]byte{9}, good[1:]...),
		"unknown flag":    func() []byte { d := append([]byte(nil), good...); d[flagsAt] |= 0x80; return d }(),
		"bad neighbour":   func() []byte { d := append([]byte(nil), good...); d[flagsAt+1] = 99; return d }(),
		"truncated":       good[:len(good)-1],
		"header only":     good[:10],
		"trailing byte":   append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeNode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestNodeClone(t *testing.T) {
	n := &Node{Label: bitlabel.MustParse("#01"), Leaf: true, Records: []record.Record{{Key: 0.6}}}
	c := n.Clone()
	first := &c.Records[0]
	c.Records[0].Key = 0.7
	c.Records = append(c.Records, record.Record{Key: 0.9})
	if n.Records[0].Key != 0.6 || len(n.Records) != 1 {
		t.Fatalf("Clone aliases the original: %v", n)
	}
	if &c.Records[0] != first {
		t.Error("one append after Clone reallocated the record slice")
	}
	if (&Node{Label: n.Label}).Clone().Records != nil {
		t.Error("Clone of nil records should stay nil")
	}
}
