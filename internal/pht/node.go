// Package pht implements the Prefix Hash Tree (Ramabhadran et al., PODC
// 2004; Chawathe et al., SIGCOMM 2005), the baseline the paper compares
// against as the prior state of the art in maintenance efficiency
// (sections 8.2 and 9).
//
// PHT is a binary trie over the same [0, 1) key space: every trie node -
// internal nodes included - is stored in the DHT directly under its own
// label, leaves hold the records, and neighboring leaves are chained with
// B+-tree-style prev/next links. Consequences the paper measures:
//
//   - a leaf split rewrites the leaf as an internal marker in place but
//     must push *both* children to other peers (their labels changed) and
//     patch two neighbor links: theta records moved and 4 DHT-lookups,
//     versus LHT's theta/2 and 1 (equations 1-2);
//   - lookup binary-searches all D prefix lengths (log D probes, versus
//     LHT's log(D/2));
//   - range queries either walk the leaf chain (near-optimal bandwidth,
//     sequential latency) or fan out through the trie from the range's
//     LCA (parallel latency, about twice the bandwidth).
//
// The implementation mirrors internal/lht's structure so experiments
// exercise both through identical harnesses.
package pht

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// Node is one trie node as stored in the DHT under its label's key.
type Node struct {
	// Label is the trie node's label; its key in the DHT.
	Label bitlabel.Label
	// Leaf marks leaf nodes; internal nodes are empty markers that exist
	// so the lookup binary search can distinguish "descend" from "too
	// deep".
	Leaf bool
	// Records are the stored records (leaf nodes only).
	Records []record.Record
	// Prev and Next are the B+-tree leaf links (leaf nodes only). The
	// flags distinguish "no neighbor" from the zero label.
	Prev, Next       bitlabel.Label
	HasPrev, HasNext bool
	// Epoch is a per-node version, bumped on every mutation; conditional
	// substrate writes compare against it, exactly as lht.Bucket.Epoch.
	Epoch uint64
}

// DHTEpoch implements dht.Epocher so epoch-guarded conditional writes
// serialize concurrent mutations of one trie node.
func (n *Node) DHTEpoch() uint64 { return n.Epoch }

// Clone returns a copy of the node, for mutating without aliasing the
// pointer an in-process substrate may be sharing with readers. The record
// slice is fresh, with room for one more record so the insert path's
// clone-then-append does not reallocate it; the read-only record values
// are shared.
func (n *Node) Clone() *Node {
	out := *n
	if n.Records != nil {
		out.Records = make([]record.Record, len(n.Records), len(n.Records)+1)
		copy(out.Records, n.Records)
	}
	return &out
}

// Weight is the node's storage occupancy: records plus one label slot,
// the same accounting as lht.Bucket so the comparison is like for like.
func (n *Node) Weight() int { return len(n.Records) + 1 }

// Interval returns the key interval the node covers.
func (n *Node) Interval() keyspace.Interval { return keyspace.IntervalOf(n.Label) }

// Contains reports whether the node's interval covers delta.
func (n *Node) Contains(delta float64) bool { return n.Interval().Contains(delta) }

// String summarizes the node for logs and test failures.
func (n *Node) String() string {
	kind := "internal"
	if n.Leaf {
		kind = fmt.Sprintf("leaf, %d records", len(n.Records))
	}
	return fmt.Sprintf("pht(%s, %s)", n.Label, kind)
}

// Node wire format 2, the one serialized form of a trie node: what
// EncodeNode returns and what a network substrate ships and stores (Node
// is a dht.WireValue). It shares lht.Bucket's building blocks: uv is a
// shortest-form unsigned varint, a label its binary form (bit count u8,
// then the bits in ceil(count/8) bytes, pad bits zero), whose length
// each reader takes from its first byte. Version 1, with 9-byte labels,
// is no node to the decoder.
//
//	version u8 = 2
//	uv epoch
//	label        binary form
//	flags u8     bit 0 leaf, bit 1 has-prev, bit 2 has-next
//	prev, next   binary form each
//	record list  uv count, count x (key u64 BE, uv vlen, value)
const (
	nodeWireVersion = 2
	// nodeWireKind is Node's dht.WireValue kind byte.
	nodeWireKind = 2

	flagLeaf    = 1 << 0
	flagHasPrev = 1 << 1
	flagHasNext = 1 << 2
)

func init() {
	dht.RegisterWireKind(nodeWireKind, func(data []byte) (dht.Value, error) { return DecodeNode(data) })
}

// WireKind implements dht.WireValue.
func (n *Node) WireKind() byte { return nodeWireKind }

// AppendWire implements dht.WireValue: it appends the node's wire format
// to dst.
func (n *Node) AppendWire(dst []byte) []byte {
	dst = append(dst, nodeWireVersion)
	dst = binary.AppendUvarint(dst, n.Epoch)
	dst, _ = n.Label.AppendBinary(dst) // never fails
	var flags byte
	if n.Leaf {
		flags |= flagLeaf
	}
	if n.HasPrev {
		flags |= flagHasPrev
	}
	if n.HasNext {
		flags |= flagHasNext
	}
	dst = append(dst, flags)
	dst, _ = n.Prev.AppendBinary(dst)
	dst, _ = n.Next.AppendBinary(dst)
	return record.AppendList(dst, n.Records)
}

// EncodeNode serializes a node into a buffer sized for it. The error is
// always nil; the signature predates the hand-rolled format.
func EncodeNode(n *Node) ([]byte, error) {
	size := 1 + binary.MaxVarintLen64 + 3*bitlabel.MaxBinaryLen + 1 + record.ListSize(n.Records)
	return n.AppendWire(make([]byte, 0, size)), nil
}

// DecodeNode is the inverse of EncodeNode. It copies data once and the
// node's record values are capacity-clipped sub-slices of that copy, so
// data may be a pooled buffer and the values must be treated as
// read-only; malformed input costs O(len(data)) memory and an error.
func DecodeNode(data []byte) (*Node, error) {
	n, err := decodeNode(append([]byte(nil), data...))
	if err != nil {
		return nil, fmt.Errorf("decode pht node: %w", err)
	}
	return n, nil
}

// decodeNode parses buf, which the returned node takes ownership of.
func decodeNode(buf []byte) (*Node, error) {
	if len(buf) == 0 || buf[0] != nodeWireVersion {
		return nil, errors.New("unknown wire version")
	}
	n := new(Node)
	var err error
	if n.Epoch, buf, err = record.ReadUvarint(buf[1:]); err != nil {
		return nil, err
	}
	if n.Label, buf, err = bitlabel.ReadBinary(buf); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return nil, errors.New("truncated header")
	}
	flags := buf[0]
	if flags&^(flagLeaf|flagHasPrev|flagHasNext) != 0 {
		return nil, fmt.Errorf("unknown flags %#x", flags)
	}
	n.Leaf, n.HasPrev, n.HasNext = flags&flagLeaf != 0, flags&flagHasPrev != 0, flags&flagHasNext != 0
	if n.Prev, buf, err = bitlabel.ReadBinary(buf[1:]); err != nil {
		return nil, err
	}
	if n.Next, buf, err = bitlabel.ReadBinary(buf); err != nil {
		return nil, err
	}
	if n.Records, err = record.DecodeList(buf); err != nil {
		return nil, err
	}
	return n, nil
}
