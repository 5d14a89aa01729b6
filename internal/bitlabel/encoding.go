package bitlabel

import (
	"encoding/binary"
	"fmt"
)

// BinaryLen is the size of a label's binary form.
const BinaryLen = 9

// MarshalBinary implements encoding.BinaryMarshaler. The format is one
// length byte followed by the bit string as a big-endian uint64, 9 bytes
// total; it is stable and used by the bucket codecs of the networked
// substrates.
func (l Label) MarshalBinary() ([]byte, error) {
	return l.AppendBinary(make([]byte, 0, BinaryLen))
}

// AppendBinary implements encoding.BinaryAppender: MarshalBinary's bytes
// appended to b, which is how the hand-rolled codecs write a label
// without allocating.
func (l Label) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, l.n)
	return binary.BigEndian.AppendUint64(b, l.val), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (l *Label) UnmarshalBinary(data []byte) error {
	if len(data) != BinaryLen {
		return fmt.Errorf("%w: binary label has %d bytes, want %d", ErrBadLabel, len(data), BinaryLen)
	}
	n := data[0]
	if n > MaxBits {
		return fmt.Errorf("%w: binary label has %d bits", ErrTooDeep, n)
	}
	val := binary.BigEndian.Uint64(data[1:])
	if n < 64 && val>>n != 0 {
		return fmt.Errorf("%w: binary label value wider than %d bits", ErrBadLabel, n)
	}
	if n > 0 && val>>(n-1)&1 != 0 {
		return fmt.Errorf("%w: binary label first bit must be 0", ErrBadLabel)
	}
	l.n = n
	l.val = val
	return nil
}
