package bitlabel

import "fmt"

// MaxBinaryLen is the size of the longest label's binary form, a label
// of MaxBits bits: a codec that reserves room for a label reserves this.
const MaxBinaryLen = 1 + (MaxBits+7)/8

// MarshalBinary implements encoding.BinaryMarshaler. The format is one
// length byte n followed by the n bits in ceil(n/8) bytes, most
// significant bit first, the pad bits of the last byte zero: 1 to
// MaxBinaryLen bytes, the virtual root one byte and a depth-20 label
// four. It is canonical — a label has exactly one binary form — stable,
// and used by the bucket and node codecs of the networked substrates,
// which read it with ReadBinary.
func (l Label) MarshalBinary() ([]byte, error) {
	return l.AppendBinary(make([]byte, 0, MaxBinaryLen))
}

// AppendBinary implements encoding.BinaryAppender: MarshalBinary's bytes
// appended to b, which is how the hand-rolled codecs write a label
// without allocating.
func (l Label) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, l.n)
	v := l.val << (64 - uint(l.n)) // the first bit at the top; 0 for the root
	for k := (int(l.n) + 7) / 8; k > 0; k-- {
		b = append(b, byte(v>>56))
		v <<= 8
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: data must be
// exactly one label's binary form.
func (l *Label) UnmarshalBinary(data []byte) error {
	got, rest, err := ReadBinary(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes past a binary label", ErrBadLabel, len(rest))
	}
	*l = got
	return nil
}

// ReadBinary reads a label's binary form off the front of data, its
// length from its own first byte, and returns the bytes that follow it.
// It refuses a length past MaxBits, a form cut short, a set pad bit and
// a first bit of 1, so what it accepts is the one form of a label.
func ReadBinary(data []byte) (l Label, rest []byte, err error) {
	if len(data) == 0 {
		return Label{}, nil, fmt.Errorf("%w: empty binary label", ErrBadLabel)
	}
	n := data[0]
	if n > MaxBits {
		return Label{}, nil, fmt.Errorf("%w: binary label has %d bits", ErrTooDeep, n)
	}
	k := (int(n) + 7) / 8
	if len(data) < 1+k {
		return Label{}, nil, fmt.Errorf("%w: binary label of %d bits has %d bytes", ErrBadLabel, n, len(data)-1)
	}
	var v uint64
	for _, c := range data[1 : 1+k] {
		v = v<<8 | uint64(c)
	}
	pad := uint(8*k) - uint(n)
	if v&(1<<pad-1) != 0 {
		return Label{}, nil, fmt.Errorf("%w: binary label has a pad bit set", ErrBadLabel)
	}
	v >>= pad
	if n > 0 && v>>(n-1)&1 != 0 {
		return Label{}, nil, fmt.Errorf("%w: binary label first bit must be 0", ErrBadLabel)
	}
	return Label{val: v, n: n}, data[1+k:], nil
}
