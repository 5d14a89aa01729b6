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
// Bucket is kind 1, internal/pht's Node kind 2, the test battery's
// dhttest.EpochValue kind 240); registering a kind twice
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

// WireProjector answers a probe on the peer that stores a value. data is
// the stored serialized form (what AppendWire wrote) and hint the
// prober's opaque word; the projector appends to dst what to ship and
// returns the extended slice. Appending data whole is always a legal
// answer; anything else must be a form the kind's probe decoder tells
// apart from a whole value. It runs on bytes under the store's lock, so
// it is append-only (it writes nothing but dst's tail and keeps no
// reference to either slice), neither decodes nor allocates beyond
// growing dst, costs O(len(data)), and like a WireDecoder never panics on
// malformed input.
type WireProjector func(dst, data []byte, hint uint64) []byte

// wireProbes holds, per kind, the optional probe plane: the storing
// side's projector and the probing side's decoder for what the projector
// may have shipped. Filled from init functions only, like wireDecoders.
var wireProbes [256]struct {
	project WireProjector
	dec     WireDecoder
}

// RegisterWireProbe lets probes of one kind be answered with less than
// the value (see Prober). project builds the reply on the storing peer;
// dec decodes a probe's reply, which is either the whole value or one of
// the projector's other forms, and returns for those a type of its own
// that is not the kind's WireValue. The kind's RegisterWireKind decoder
// keeps rejecting them: only a probe can be answered with one. Kinds that
// register nothing are probed whole.
func RegisterWireProbe(kind byte, project WireProjector, dec WireDecoder) {
	if wireProbes[kind].project != nil {
		panic(fmt.Sprintf("dht: wire kind %d registered its probe plane twice", kind))
	}
	wireProbes[kind].project, wireProbes[kind].dec = project, dec
}

// ProjectWire appends to dst the answer to a probe carrying hint of data,
// a stored value of the given kind: what the kind's projector ships, or
// all of data when the kind registered none.
func ProjectWire(dst []byte, kind byte, data []byte, hint uint64) []byte {
	if project := wireProbes[kind].project; project != nil {
		return project(dst, data, hint)
	}
	return append(dst, data...)
}

// DecodeProbe decodes a probe's reply: with the kind's probe decoder
// when it registered one, else exactly as DecodeWire.
func DecodeProbe(kind byte, data []byte) (Value, error) {
	if dec := wireProbes[kind].dec; dec != nil {
		return dec(data)
	}
	return DecodeWire(kind, data)
}

// WirePatcher applies a patch on the peer that stores a value. data is
// the stored serialized form (what AppendWire wrote) and patch the
// patcher's opaque bytes; the patcher appends to dst the serialized form
// of the patched value — byte for byte what AppendWire would write for
// it, so that every holder of the value and every writer that takes the
// long way agree — appends to reply what to tell the writer, and returns
// both with the new value's epoch. The reply is the new serialized form
// whole or a shorter form the kind's patch-reply decoder tells apart from
// it. ok == false refuses: the patch is not one the patcher will apply to
// these bytes, and nothing the call appended is used. A Patch carries no
// epoch, so the patcher is the whole guard of the write: it refuses every
// value the patch was not meant for, and the peer then answers the probe
// the Patch rode instead (see Patcher). Like a
// WireProjector it runs on bytes under the store's lock: it writes
// nothing but the tails of dst and reply, keeps no reference to any of
// its arguments, neither decodes nor allocates beyond growing the two,
// costs O(len(data)), and never panics on malformed input.
type WirePatcher func(dst, reply, data, patch []byte) (out, rep []byte, epoch uint64, ok bool)

// wirePatches holds, per kind, the optional patch plane: the storing
// side's patcher and the writing side's decoder for its reply. Filled
// from init functions only, like wireDecoders.
var wirePatches [256]struct {
	patch WirePatcher
	dec   WireDecoder
}

// RegisterWirePatch lets values of one kind be written by patch (see
// Patcher). patch builds the new value on the storing peer; dec decodes
// its reply, which is either the new value whole or the patcher's short
// form, for which it returns a type of its own that is not the kind's
// WireValue. Kinds that register nothing refuse every patch.
func RegisterWirePatch(kind byte, patch WirePatcher, dec WireDecoder) {
	if wirePatches[kind].patch != nil {
		panic(fmt.Sprintf("dht: wire kind %d registered its patch plane twice", kind))
	}
	wirePatches[kind].patch, wirePatches[kind].dec = patch, dec
}

// PatchWire runs the kind's patcher (see WirePatcher), refusing for a
// kind that registered none.
func PatchWire(dst, reply []byte, kind byte, data, patch []byte) (out, rep []byte, epoch uint64, ok bool) {
	if p := wirePatches[kind].patch; p != nil {
		return p(dst, reply, data, patch)
	}
	return dst, reply, 0, false
}

// DecodePatchReply decodes what the kind's patcher replied.
func DecodePatchReply(kind byte, data []byte) (Value, error) {
	dec := wirePatches[kind].dec
	if dec == nil {
		return nil, fmt.Errorf("dht: no patch plane registered for wire kind %d", kind)
	}
	return dec(data)
}
