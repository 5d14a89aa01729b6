package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the packed run: the form a range query's records take on
// the wire. A run holds records of one leaf, whose keys all lie in the
// interval the leaf's label names, so each key ships as the offset of its
// bit pattern from the interval's low bound's, in only the bits the
// widest such offset needs; and one value length stands for every value
// when they all have it:
//
//	uv count; for a count above 0, then
//	uv vlen   the length of every value; or 0, then count x uv vlen
//	keys      count x (math.Float64bits(key) - Lo) in Width bits, most
//	          significant bit first, back to back, the last byte's pad
//	          bits zero
//	values    count x value, back to back
//
// Like a list, a run is canonical: every accepted byte string is the
// packing of exactly one sequence of records, so values that all have one
// nonzero length must write it once.

// KeyBits is a half-open range [Lo, Hi) of key bit patterns
// (math.Float64bits): those a packed run may carry. Over the nonnegative
// floats bit patterns order as the floats do, so the keys of an interval
// [lo, hi) are the patterns from Float64bits(lo) up to Float64bits(hi).
type KeyBits struct {
	Lo, Hi uint64
}

// Width is how many bits a key's offset from Lo takes in a run: the bit
// length of the widest offset, Hi-1-Lo.
func (k KeyBits) Width() uint {
	if k.Hi <= k.Lo {
		return 0
	}
	return uint(bits.Len64(k.Hi - 1 - k.Lo))
}

var (
	// ErrOutsideKeys reports a record AppendRun would ship whose key's bit
	// pattern lies outside the run's KeyBits, which no offset from Lo
	// reaches: a key stored as -0 has its sign bit set.
	ErrOutsideKeys = errors.New("record: a key outside the run's key bits")

	errRunCount    = errors.New("record: a run's count exceeds the bytes that follow")
	errRunLengths  = errors.New("record: a run writes its one value length per record")
	errRunPad      = errors.New("record: a pad bit set in a run's keys")
	errRunKey      = errors.New("record: a run's key offset past its key bits")
	errRunTrailing = errors.New("record: bytes after a run's last value")
)

// AppendRun appends to dst the packed run of the records of list, a
// record list, whose keys fall in [lo, hi), in list order. dst is left as
// it was when list does not parse or when a record in [lo, hi) has a key
// outside keys (ErrOutsideKeys). dst grows once and nothing else is
// allocated.
func AppendRun(dst, list []byte, lo, hi float64, keys KeyBits) ([]byte, error) {
	count, body, err := readCount(list)
	if err != nil {
		return dst, err
	}
	// The first walk validates the list, sizes the run and finds the span
	// of body, from the first record in range to the last, that the
	// second walk packs.
	var n, vlen, lensSize, valsSize, from, to int
	same := true
	rest := body
	for i := count; i > 0; i-- {
		var r Record
		at := len(body) - len(rest)
		if rest, err = readRecord(&r, rest); err != nil {
			return dst, err
		}
		if !(r.Key >= lo && r.Key < hi) {
			continue
		}
		if b := math.Float64bits(r.Key); b < keys.Lo || b >= keys.Hi {
			return dst, ErrOutsideKeys
		}
		if n == 0 {
			from, vlen = at, len(r.Value)
		}
		n, to = n+1, len(body)-len(rest)
		same = same && len(r.Value) == vlen
		lensSize += UvarintLen(uint64(len(r.Value)))
		valsSize += len(r.Value)
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("record: %d bytes after the last record", len(rest))
	}
	if dst = binary.AppendUvarint(dst, uint64(n)); n == 0 {
		return dst, nil
	}
	if same && vlen > 0 {
		dst, lensSize = binary.AppendUvarint(dst, uint64(vlen)), 0
	} else {
		dst = append(dst, 0)
	}
	w := keys.Width()
	lensAt := len(dst)
	keysAt := lensAt + lensSize
	valsAt := keysAt + (n*int(w)+7)/8
	dst = slices.Grow(dst, valsAt+valsSize-len(dst))[:valsAt+valsSize]
	clear(dst[keysAt:valsAt]) // the keys are or-ed in; lengths and values are written over
	lp, vp, pos := lensAt, valsAt, uint(0)
	for rest := body[from:to]; len(rest) > 0; {
		var r Record
		rest, _ = readRecord(&r, rest) // validated above
		if !(r.Key >= lo && r.Key < hi) {
			continue
		}
		if lensSize > 0 {
			lp += binary.PutUvarint(dst[lp:], uint64(len(r.Value)))
		}
		putBits(dst[keysAt:valsAt], pos, math.Float64bits(r.Key)-keys.Lo, w)
		pos += w
		vp += copy(dst[vp:], r.Value)
	}
	return dst, nil
}

// CountRun validates a packed run of keys whole and returns its record
// count. It allocates nothing: a count the bytes that follow could not
// hold is refused before anything else is read.
func CountRun(run []byte, keys KeyBits) (int, error) {
	_, n, err := unpackRun(nil, run, keys, math.NaN(), math.NaN()) // NaN bounds: no record is taken
	return n, err
}

// UnpackRun decodes a packed run of keys and appends to dst its records
// whose keys fall in [lo, hi), in run order. Like DecodeList's, the values
// are capacity-clipped views of run, which the caller must own, and a
// zero-length value is nil. run is validated whole: dst is returned as it
// was when run does not parse.
func UnpackRun(dst []Record, run []byte, keys KeyBits, lo, hi float64) ([]Record, error) {
	dst, _, err := unpackRun(dst, run, keys, lo, hi)
	return dst, err
}

// unpackRun is CountRun and UnpackRun in one walk.
func unpackRun(dst []Record, run []byte, keys KeyBits, lo, hi float64) ([]Record, int, error) {
	count, rest, err := ReadUvarint(run)
	switch {
	case err != nil:
		return dst, 0, err
	case count == 0 && len(rest) != 0:
		return dst, 0, errRunTrailing
	case count == 0:
		return dst, 0, nil
	case count > uint64(len(rest)):
		// Every record takes a byte at least: its value's or its length's.
		return dst, 0, errRunCount
	}
	vlen, rest, err := ReadUvarint(rest)
	if err != nil {
		return dst, 0, err
	}
	each := vlen == 0 // a length per record
	var lens []byte
	var size uint64 // the values' bytes
	switch {
	case each:
		lens = rest
		same := true
		for i := uint64(0); i < count; i++ {
			var l uint64
			if l, rest, err = ReadUvarint(rest); err != nil {
				return dst, 0, err
			}
			if size += l; l > uint64(len(rest)) || size > uint64(len(rest)) {
				return dst, 0, errTruncated
			}
			if i == 0 {
				vlen = l
			}
			same = same && l == vlen
		}
		if same && vlen > 0 {
			return dst, 0, errRunLengths
		}
	case vlen > uint64(len(rest))/count:
		return dst, 0, errTruncated
	default:
		size = vlen * count
	}
	w := keys.Width()
	kb := (count*uint64(w) + 7) / 8
	if kb > uint64(len(rest)) || size > uint64(len(rest))-kb {
		return dst, 0, errTruncated
	}
	block, vals := rest[:kb], rest[kb:]
	if size != uint64(len(vals)) {
		return dst, 0, errRunTrailing
	}
	if pad := kb*8 - count*uint64(w); pad > 0 && block[kb-1]&(1<<pad-1) != 0 {
		return dst, 0, errRunPad
	}
	if keys.Hi <= keys.Lo {
		return dst, 0, ErrOutsideKeys
	}
	start, last := len(dst), keys.Hi-1-keys.Lo
	for i, pos := uint64(0), uint(0); i < count; i, pos = i+1, pos+w {
		off := getBits(block, pos, w)
		if off > last {
			return dst[:start], 0, errRunKey
		}
		l := vlen
		if each {
			l, lens, _ = ReadUvarint(lens) // validated above
		}
		v := vals[:l:l]
		vals = vals[l:]
		if key := math.Float64frombits(keys.Lo + off); key >= lo && key < hi {
			r := Record{Key: key}
			if l > 0 {
				r.Value = v
			}
			dst = append(dst, r)
		}
	}
	return dst, int(count), nil
}

// putBits ors the w low bits of v, most significant first, into block at
// bit pos. block must be zero from bit pos on.
func putBits(block []byte, pos uint, v uint64, w uint) {
	if w == 0 {
		return
	}
	v <<= 64 - w
	i, s := pos/8, pos%8
	if i+9 <= uint(len(block)) { // a word and the byte past it
		binary.BigEndian.PutUint64(block[i:], binary.BigEndian.Uint64(block[i:])|v>>s)
		block[i+8] |= byte(v << (64 - s) >> 56)
		return
	}
	block[i] |= byte(v >> (56 + s))
	for v, left := v<<(8-s), int(w)-int(8-s); left > 0; v, left = v<<8, left-8 {
		i++
		block[i] = byte(v >> 56)
	}
}

// getBits reads the w bits of block at bit pos, most significant first,
// as putBits wrote them. Bits past block's end read as zero.
func getBits(block []byte, pos, w uint) uint64 {
	if w == 0 {
		return 0
	}
	i, s := pos/8, pos%8
	var x uint64
	if i+8 <= uint(len(block)) {
		x = binary.BigEndian.Uint64(block[i:])
	} else {
		for j := i; j < i+8; j++ {
			x <<= 8
			if j < uint(len(block)) {
				x |= uint64(block[j])
			}
		}
	}
	if x <<= s; s > 0 && i+8 < uint(len(block)) {
		x |= uint64(block[i+8]) >> (8 - s)
	}
	return x >> (64 - w)
}
