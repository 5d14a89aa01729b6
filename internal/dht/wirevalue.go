package dht

import "fmt"

// WireValue is a stored value that serialises itself. A substrate that
// crosses process boundaries ships such a value as its kind byte plus
// whatever AppendWire writes, with no reflection and no knowledge of the
// concrete type; the receiving side turns the bytes back into a value
// through the decoder registered for the kind.
type WireValue interface {
	// WireKind identifies the type's layout; see RegisterWireKind.
	WireKind() byte
	// AppendWire appends the value's serialized form to b.
	AppendWire(b []byte) []byte
}

// WireDecoder rebuilds a value from the bytes its AppendWire wrote. The
// input may be a pooled transport buffer that is reused as soon as the
// decoder returns, so the value must not alias it; the decoder rejects
// malformed input with an error and never panics on it.
type WireDecoder func(data []byte) (Value, error)

// wireDecoders maps a kind byte to its decoder. It is filled from
// package init functions only and read-only afterwards.
var wireDecoders [256]WireDecoder

// RegisterWireKind installs the decoder for one kind byte. Packages call
// it from init for each WireValue type they define (internal/lht's
// Bucket is kind 1, internal/pht's Node kind 2); registering a kind twice
// panics, which is how a collision between two packages surfaces.
func RegisterWireKind(kind byte, dec WireDecoder) {
	if wireDecoders[kind] != nil {
		panic(fmt.Sprintf("dht: wire kind %d registered twice", kind))
	}
	wireDecoders[kind] = dec
}

// DecodeWire decodes data with the decoder registered for kind.
func DecodeWire(kind byte, data []byte) (Value, error) {
	dec := wireDecoders[kind]
	if dec == nil {
		return nil, fmt.Errorf("dht: no decoder registered for wire kind %d", kind)
	}
	return dec(data)
}
