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

// WireTrimmer decides, on the peer that stores a value, how much of it a
// probe needs. data is the stored serialized form (what AppendWire wrote)
// and hint the prober's opaque word; the result is the length of the
// prefix of data to ship, len(data) meaning the whole value. It runs on
// bytes under the store's lock, so it neither decodes nor allocates, and
// like a WireDecoder it never panics on malformed input.
type WireTrimmer func(data []byte, hint uint64) int

// wireProbes holds, per kind, the optional probe plane: the storing
// side's trimmer and the probing side's decoder for what the trimmer may
// have left. Filled from init functions only, like wireDecoders.
var wireProbes [256]struct {
	trim WireTrimmer
	dec  WireDecoder
}

// RegisterWireProbe lets probes of one kind be answered with a prefix of
// the value (see Prober). trim picks the prefix on the storing peer; dec
// decodes a probe's reply, which is either the whole value or a prefix
// trim chose, and returns for a prefix a type of its own that is not the
// kind's WireValue. The kind's RegisterWireKind decoder keeps rejecting
// prefixes: only a probe can be answered with one. Kinds that register
// nothing are probed whole.
func RegisterWireProbe(kind byte, trim WireTrimmer, dec WireDecoder) {
	if wireProbes[kind].trim != nil {
		panic(fmt.Sprintf("dht: wire kind %d registered its probe plane twice", kind))
	}
	wireProbes[kind].trim, wireProbes[kind].dec = trim, dec
}

// TrimWire returns how many leading bytes of data, a stored value of the
// given kind, answer a probe carrying hint: what the kind's trimmer
// says when that is a proper prefix, else all of it.
func TrimWire(kind byte, data []byte, hint uint64) int {
	if trim := wireProbes[kind].trim; trim != nil {
		if n := trim(data, hint); n >= 0 && n < len(data) {
			return n
		}
	}
	return len(data)
}

// DecodeProbe decodes a probe's reply: with the kind's probe decoder
// when it registered one, else exactly as DecodeWire.
func DecodeProbe(kind byte, data []byte) (Value, error) {
	if dec := wireProbes[kind].dec; dec != nil {
		return dec(data)
	}
	return DecodeWire(kind, data)
}
