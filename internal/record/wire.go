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

// UvarintLen is the encoded size of v in shortest form.
func UvarintLen(v uint64) int {
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
	n := UvarintLen(uint64(len(rs)))
	for i := range rs {
		n += 8 + UvarintLen(uint64(len(rs[i].Value))) + len(rs[i].Value)
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
	count, buf, err := readCount(buf)
	if err != nil {
		return nil, err
	}
	var rs []Record
	if count > 0 {
		rs = make([]Record, count)
	}
	for i := range rs {
		if buf, err = readRecord(&rs[i], buf); err != nil {
			return nil, err
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("record: %d bytes after the last record", len(buf))
	}
	return rs, nil
}

// readCount reads a list's record count off the front of buf, refusing
// one the bytes that follow could not hold.
func readCount(buf []byte) (count uint64, rest []byte, err error) {
	if count, rest, err = ReadUvarint(buf); err != nil {
		return 0, nil, err
	}
	if count > uint64(len(rest)/minRecordLen) {
		return 0, nil, fmt.Errorf("record: count %d exceeds the %d bytes that follow", count, len(rest))
	}
	return count, rest, nil
}

// readRecord reads one record (key, length, value) off the front of buf
// into r, which must be zero, and returns the bytes that follow. The
// value is a capacity-clipped view of buf, nil when empty.
func readRecord(r *Record, buf []byte) (rest []byte, err error) {
	if len(buf) < 8 {
		return nil, errTruncated
	}
	r.Key = math.Float64frombits(binary.BigEndian.Uint64(buf))
	var n uint64
	if n, buf, err = ReadUvarint(buf[8:]); err != nil {
		return nil, err
	}
	if n > uint64(len(buf)) {
		return nil, errTruncated
	}
	if n > 0 {
		r.Value = buf[:n:n]
	}
	return buf[n:], nil
}

// listSpan is what one validating walk over an encoded record list found:
// the list's shape, and where the first record with the wanted key sits.
type listSpan struct {
	// Count is the number of records in the list.
	Count uint64
	// Body is the offset of the first record: the length of the count.
	Body int
	// Hit and End bound the first record in list order whose key == the
	// wanted key, buf[Hit:End] (key, length, value); Hit is -1 when there
	// is none.
	Hit, End int
	// Last is the offset of the last record, len(buf) in an empty list.
	Last int
}

// locateInList is FindByKey on an encoded list: it walks buf, which a
// record list must occupy exactly, and reports where the first record
// with the given key (float ==, as FindByKey) lies. It accepts exactly
// the lists DecodeList accepts and walks them to the end either way, so
// nothing is ever cut from or spliced into a list that would not decode.
// It allocates nothing.
func locateInList(buf []byte, key float64) (listSpan, error) {
	count, rest, err := readCount(buf)
	if err != nil {
		return listSpan{}, err
	}
	s := listSpan{Count: count, Body: len(buf) - len(rest), Hit: -1, Last: len(buf)}
	for ; count > 0; count-- {
		var r Record
		at := len(buf) - len(rest)
		if rest, err = readRecord(&r, rest); err != nil {
			return listSpan{}, err
		}
		if s.Hit < 0 && r.Key == key {
			s.Hit, s.End = at, len(buf)-len(rest)
		}
		s.Last = at
	}
	if len(rest) != 0 {
		return listSpan{}, fmt.Errorf("record: %d bytes after the last record", len(rest))
	}
	return s, nil
}

// FindInList returns the encoded form (key, length, value: a view of buf)
// of the record locateInList finds, or nil when there is none.
func FindInList(buf []byte, key float64) (enc []byte, err error) {
	s, err := locateInList(buf, key)
	if err != nil || s.Hit < 0 {
		return nil, err
	}
	return buf[s.Hit:s.End], nil
}

// CountList is the validating walk on its own: it accepts exactly the
// lists DecodeList accepts, returns their record count and allocates
// nothing.
func CountList(list []byte) (uint64, error) {
	s, err := locateInList(list, math.NaN()) // NaN == nothing: no record is sought
	return s.Count, err
}

// AppendHalf appends to dst the encoded list, count and all, of one side
// of list's records cut at mid — the keys below it (low), or the rest —
// in list order, and returns how many records it kept. That is a leaf
// split's partition: a key that is not below mid, NaN and +Inf included,
// goes with the rest. list is validated whole first and left out of dst
// altogether when it does not parse; dst grows and nothing else is
// allocated.
func AppendHalf(dst, list []byte, mid float64, low bool) (out []byte, n uint64, err error) {
	if n, err = CountHalf(list, mid, low); err != nil {
		return dst, 0, err
	}
	dst = binary.AppendUvarint(dst, n)
	_, body, _ := readCount(list) // validated above
	for rest := body; len(rest) > 0; {
		var r Record
		next, _ := readRecord(&r, rest) // validated above
		if (r.Key < mid) == low {
			dst = append(dst, rest[:len(rest)-len(next)]...)
		}
		rest = next
	}
	return dst, n, nil
}

// CountHalf is AppendHalf's count alone: how many of list's records fall
// on the side of mid that low names. It validates list whole and
// allocates nothing.
func CountHalf(list []byte, mid float64, low bool) (n uint64, err error) {
	count, rest, err := readCount(list)
	if err != nil {
		return 0, err
	}
	for i := count; i > 0; i-- {
		var r Record
		if rest, err = readRecord(&r, rest); err != nil {
			return 0, err
		}
		if (r.Key < mid) == low {
			n++
		}
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("record: %d bytes after the last record", len(rest))
	}
	return n, nil
}

// ErrNoRecord reports a DeleteFromList of a key the list does not hold.
var ErrNoRecord = errors.New("record: no record with that key in the list")

// UpsertInList appends to dst the encoded list that list becomes when the
// one encoded record rec (key, length, value, as FindInList returns it)
// is stored into it the way the indexes do on the decoded form: in place
// of the first record with rec's key, or else after the last record. It
// returns the new record count. Both inputs are validated whole; dst
// grows and nothing else is allocated.
func UpsertInList(dst, list, rec []byte) (out []byte, count uint64, err error) {
	var r Record
	if rest, err := readRecord(&r, rec); err != nil {
		return dst, 0, err
	} else if len(rest) != 0 {
		return dst, 0, fmt.Errorf("record: %d bytes after the record", len(rest))
	}
	s, err := locateInList(list, r.Key)
	if err != nil {
		return dst, 0, err
	}
	if s.Hit >= 0 {
		dst = append(dst, list[:s.Hit]...)
		dst = append(dst, rec...)
		return append(dst, list[s.End:]...), s.Count, nil
	}
	dst = binary.AppendUvarint(dst, s.Count+1)
	dst = append(dst, list[s.Body:]...)
	return append(dst, rec...), s.Count + 1, nil
}

// DeleteFromList appends to dst the encoded list that list becomes when
// the first record with the given key is deleted the way the indexes do
// on the decoded form: the last record moves into the hole. It returns
// the new record count, or ErrNoRecord. dst grows and nothing else is
// allocated.
func DeleteFromList(dst, list []byte, key float64) (out []byte, count uint64, err error) {
	s, err := locateInList(list, key)
	if err != nil {
		return dst, 0, err
	}
	if s.Hit < 0 {
		return dst, 0, ErrNoRecord
	}
	dst = binary.AppendUvarint(dst, s.Count-1)
	dst = append(dst, list[s.Body:s.Hit]...)
	if s.Hit != s.Last {
		dst = append(dst, list[s.Last:]...)
		dst = append(dst, list[s.End:s.Last]...)
	}
	return dst, s.Count - 1, nil
}
