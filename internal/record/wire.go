package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the record-list wire layout shared by the bucket codecs of
// lht.Bucket and pht.Node:
//
//	uv count, count x (key u64 BE = math.Float64bits, uv vlen, value)
//
// uv is an unsigned varint in its shortest form. The layout is canonical:
// every accepted byte string is the encoding of exactly one record list,
// so re-encoding a decoded list reproduces the input bit for bit (key
// bits, NaN payloads included, travel untouched).

// minRecordLen is the smallest encoded record: the key and a zero length.
const minRecordLen = 9

var (
	errTruncated = errors.New("record: truncated list")
	errPadded    = errors.New("record: varint not in shortest form")
)

// ReadUvarint reads one shortest-form unsigned varint off the front of b
// and returns it with the bytes that follow. Padded encodings, which
// binary.Uvarint accepts, are rejected so that the codecs built on it
// stay canonical.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, errPadded
	}
	return v, b[n:], nil
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ListSize returns len(AppendList(nil, rs)), so an encoder can size its
// buffer once.
func ListSize(rs []Record) int {
	n := uvarintLen(uint64(len(rs)))
	for i := range rs {
		n += 8 + uvarintLen(uint64(len(rs[i].Value))) + len(rs[i].Value)
	}
	return n
}

// AppendList appends the wire form of rs to b. A nil and an empty list
// encode alike, as do a nil and an empty value.
func AppendList(b []byte, rs []Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for i := range rs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(rs[i].Key))
		b = binary.AppendUvarint(b, uint64(len(rs[i].Value)))
		b = append(b, rs[i].Value...)
	}
	return b
}

// DecodeList parses a record list that occupies all of buf. The returned
// values are capacity-clipped sub-slices of buf, not copies: the caller
// must own buf (decode from a private copy of anything pooled) and the
// records keep it alive. Every length is checked against the bytes that
// remain before anything is allocated, and the one allocation, the
// record slice, is bounded by len(buf). Zero records decode as a nil
// list and a zero-length value as a nil value.
func DecodeList(buf []byte) ([]Record, error) {
	count, buf, err := ReadUvarint(buf)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(buf)/minRecordLen) {
		return nil, fmt.Errorf("record: count %d exceeds the %d bytes that follow", count, len(buf))
	}
	var rs []Record
	if count > 0 {
		rs = make([]Record, count)
	}
	for i := range rs {
		if len(buf) < 8 {
			return nil, errTruncated
		}
		rs[i].Key = math.Float64frombits(binary.BigEndian.Uint64(buf))
		var n uint64
		if n, buf, err = ReadUvarint(buf[8:]); err != nil {
			return nil, err
		}
		if n > uint64(len(buf)) {
			return nil, errTruncated
		}
		if n > 0 {
			rs[i].Value = buf[:n:n]
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("record: %d bytes after the last record", len(buf))
	}
	return rs, nil
}
