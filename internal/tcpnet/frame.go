package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"lht/internal/dht"
)

// This file is the framed binary wire codec (wire format 2). It uses no
// reflection and recycles every buffer it touches, so the encode/decode
// hot path allocates nothing beyond the returned value bytes.
//
// A connection opens with the 4-byte magic "LHT5"; a server closes one
// that opens with anything else — an LHT4 peer of the generation before
// this one included — before serving a frame. Nodes and clients of one
// generation upgrade together. After the magic, both directions speak
// length-prefixed frames:
//
//	+---------+------------+--------+---------------------+
//	| len u32 | request id | op u8  | payload (len-9 B)   |
//	| big-end |   u64 BE   |        |                     |
//	+---------+------------+--------+---------------------+
//
// len counts the bytes after the length field (id + op + payload), so a
// frame occupies 4+len bytes on the wire. The id correlates a response
// with its request: responses may arrive in any order, which is what lets
// a client keep many requests in flight on one connection. The op byte is
// uint8(dht.OpKind); responses echo the request's id and op.
//
// Request payloads (uv = unsigned varint; "rest" = to the frame's end):
//
//	ping                    (empty): the handshake every connection opens with
//	get                     uv klen, key [, hint u64 BE]
//	take / remove           uv klen, key
//	put / write             uv klen, key, value(rest)
//	putnewer                uv klen, key, value(rest); stored only if no
//	                        strictly newer epoch tag is already held
//	putif / writeif         uv klen, key, uv ifEpoch, value(rest)
//	createif                uv klen, key, value(rest)
//	removeif                uv klen, key, uv ifEpoch
//	patchif                 uv klen, key, mode u8, then for mode 0 hint
//	                        u64 BE, for modes 1 and 2 uv ifEpoch; patch(rest)
//	getbatch                uv count, count x (uv klen, key) [, hint u64 BE]
//	putbatch                uv count, count x (uv klen, key, uv vlen, value)
//
// A value is a tag byte followed by its serialized form:
//
//	tagRaw  0  the bytes ARE the dht.Value (a []byte travels with zero
//	           serialization work)
//	        1  retired: encoding/gob, which nothing writes or reads any
//	           more; a snapshot holding it is refused at load (persist.go)
//	tagEpoch 2 uv epoch, then the inner tagged form: the prefix a value
//	           whose type implements dht.Epocher travels with, so the
//	           server can serve CAS comparisons without ever decoding a
//	           value
//	tagWire 3  kind u8, then what the value's own AppendWire wrote (a
//	           dht.WireValue: the index's buckets), encoded straight into
//	           the frame buffer and decoded through dht.DecodeWire with no
//	           reflection and no knowledge of the type here
//
// A value of any other type has no stored form: the client refuses it,
// with an error that is not transient, before any frame is sent. Servers
// store values with their tags, exactly as the wire delivered them.
//
// A get may end in an 8-byte hint, which makes it a probe (dht.Prober):
// the requester can perhaps do without most of the value. The reply to a
// hinted get of a tagWire value carries the stored tags and kind byte,
// then what the kind's dht.WireProjector appended given the hint: the
// value's own bytes whole, or a smaller form the kind defines. For the
// index's buckets (internal/lht, "Probe replies") that is the header
// alone when the leaf does not cover the hinted key, and the header plus
// the one record asked for when it does and the hint says the record is
// all the requester wants. The requester decodes with dht.DecodeProbe.
// The server builds the reply without decoding anything; every other
// tag, and a kind with no projector, is answered whole, and a get with no
// hint is served exactly as before the hint existed.
//
// A getbatch may end in one such hint (dht.Prober's ProbeBatch), and each
// found slot is then answered as the hinted get of its key would be. After
// the keys comes nothing or the 8-byte hint; anything else is malformed.
//
// A patchif (dht.Patcher) ships a change in place of the value: the node
// hands the stored bytes of a tagEpoch-over-tagWire value and the opaque
// patch to the kind's dht.WirePatcher, stores what that builds under the
// epoch it returns, and replies with what it replied. Like a probe's
// projector the patcher works on bytes, under the store lock, and the kind
// byte is all the node knows of the type; for the index's buckets
// (internal/lht, "Patches") a patch upserts or deletes one record and the
// reply is the new record count; or, when the writer must split the
// leaf, the new header with what the split moves (the local half's record
// count and the remote half's records); or the new bucket whole when the
// writer may merge it (or it is too deep to split); or it marks, commits
// or clears a split or merge intent, and the reply is the record count. The mode byte says whose
// write this is:
//
//	0 probe    the serializer's dht.Patcher Patch: a hinted get that
//	           carries a write. No epoch guards it; the patcher alone
//	           decides. Applied, the node replies ok with the epoch of the
//	           value it patched; refused — the stored form has no patcher,
//	           or the patcher will not apply this patch to these bytes —
//	           it answers as the hinted get would have, under the
//	           patch-refused status; absent, not-found. One lookup in every
//	           outcome, the get's, and a failed get for an absent key
//	1 newer    propagation of a patch the serializer applied, to another
//	           holder: ifEpoch is the epoch the serializer patched (mode 0
//	           replies it, mode 2 sent it); applied iff the stored epoch ==
//	           ifEpoch; a stored epoch > ifEpoch is ok (superseded, as
//	           putnewer keeps the newer value); < ifEpoch or absent is a
//	           CAS conflict, and the sender ships the whole value through
//	           putnewer instead
//	2 in place the serializer's writeif (dht.Patcher's WritePatchIf):
//	           applied iff the stored epoch == ifEpoch, else a CAS
//	           conflict; an absent key is not-found. Free, as writeif is:
//	           it charges no lookup whatever the outcome
//
// Newer mode rests on "same epoch means same bytes": a holder applies the
// patch to whatever it stores at ifEpoch and nothing compares the result
// with the serializer's. One serializer per key makes that so. Where it
// fails — two writers whose breakers disagree on who is reachable each
// commit epoch E+1 on a different acting serializer — a putif's
// propagation, the whole value by putnewer, overwrites the odd holder at
// the next commit; a patch carries the difference forward, until that
// key's next whole value: a split, a merge, or any holder's conflict or
// refusal above.
//
// A stored form the node cannot patch (raw, no epoch tag, a kind with no
// patcher) and a patch the patcher will not apply write nothing: mode 0
// answers the get it rides, modes 1 and 2 answer patch-refused alone.
//
// Response payloads:
//
//	status u8: 0 ok, 1 not-found, 2 server error, 3 CAS conflict,
//	           4 patch refused
//	ok   get/take            value(rest); after a hinted get possibly
//	                         a projection of it, see above
//	ok   ping                (empty)
//	ok   put/remove/write    (empty)
//	ok   putif/createif/removeif/writeif  (empty)
//	ok   patchif probe       uv epoch patched, kind u8, the patcher's
//	                         reply(rest)
//	ok   patchif in place    kind u8, the patcher's reply(rest)
//	ok   patchif newer       (empty)
//	ok   getbatch/putbatch   uv count, count x slot
//	not-found                (empty)
//	error                    message(rest)
//	cas-conflict             exists u8, uv winnerEpoch
//	patch-refused            patchif probe: value(rest), what the hinted
//	                         get would have answered; otherwise (empty)
//
// A batch slot is: status u8; ok = uv n, n bytes (a tagged value for a
// get slot, after a hinted getbatch possibly a projection of it, as for a
// hinted get; n=0 for a put slot); not-found = nothing; error = uv n,
// n-byte message.
const (
	// wireMagic opens every connection; the server closes one without it.
	wireMagic = "LHT5"

	// frameHeaderLen is the id+op prefix counted inside the length field.
	frameHeaderLen = 9

	// maxFrameLen bounds a frame's length field: decoders reject anything
	// larger before allocating, so a garbage or hostile header can never
	// balloon memory.
	maxFrameLen = 64 << 20

	// maxPooledBuf is the largest buffer the frame pool retains; bigger
	// ones (oversized batch frames) are left to the garbage collector so
	// one huge request does not pin memory forever.
	maxPooledBuf = 1 << 20
)

// Response status bytes.
const (
	statusOK           = 0
	statusNotFound     = 1
	statusErr          = 2
	statusCASConflict  = 3 // payload: exists u8, uv winnerEpoch
	statusPatchRefused = 4
)

// A patchif's mode byte.
const (
	patchProbe   = 0 // the serializer's Patch: the patcher decides, else the hinted get's answer
	patchNewer   = 1 // propagation: a stored epoch past ifEpoch supersedes
	patchInPlace = 2 // the serializer's free writeif: stored epoch must equal ifEpoch
)

// errUnknownOp is what a node answers an op byte it does not serve.
const errUnknownOp = "unknown op"

// Value tag bytes.
const (
	tagRaw     = 0 // the bytes are the dht.Value (a []byte) verbatim
	tagRetired = 1 // encoding/gob, retired: refused at snapshot load
	tagEpoch   = 2 // uv epoch then an inner tagged value; serves CAS compares
	tagWire    = 3 // kind u8 then the dht.WireValue's own serialized form
)

var (
	errFrameTooLarge = errors.New("tcpnet: frame exceeds size limit")
	errFrameTooSmall = errors.New("tcpnet: frame shorter than header")
	errTruncated     = errors.New("tcpnet: truncated frame payload")
)

// bufPool recycles frame buffers across requests; the hot path gets and
// puts, it never allocates in steady state.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// newFrame starts a request frame in a pooled buffer: length placeholder,
// zero id placeholder, op byte. The pooled pointer travels with the frame
// (builders reassign *bp after appending) so the encode path allocates no
// fresh slice header per request; finishFrame stamps the real id and
// length in place.
func newFrame(op dht.OpKind) *[]byte {
	bp := getBuf()
	*bp = append((*bp)[:0], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(op))
	return bp
}

// finishFrame stamps the frame's id and length fields in place.
func finishFrame(b []byte, id uint64) {
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-4))
	binary.BigEndian.PutUint64(b[4:12], id)
}

// appendUv appends an unsigned varint.
func appendUv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendLenBytes appends a varint-length-prefixed byte string.
func appendLenBytes(b, p []byte) []byte {
	b = appendUv(b, uint64(len(p)))
	return append(b, p...)
}

// appendLenString is appendLenBytes for a string without conversion copies.
func appendLenString(b []byte, s string) []byte {
	b = appendUv(b, uint64(len(s)))
	return append(b, s...)
}

// closeLen writes the varint length of what follows b[at], a one-byte
// placeholder, into its place: a field whose length is known only once it
// is written (a self-serialising value, a probe's projection) goes in
// after the placeholder and is shifted up when the length needs more.
func closeLen(b []byte, at int) []byte {
	n := len(b) - at - 1
	var lenBuf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(lenBuf[:], uint64(n))
	b = append(b, lenBuf[:w-1]...)
	copy(b[at+w:], b[at+1:at+1+n])
	copy(b[at:], lenBuf[:w])
	return b
}

// storable fails a value that has no stored form: anything but a []byte
// or a dht.WireValue. The error is not transient, so a retry policy does
// not spin on it.
func storable(v dht.Value) error {
	switch v.(type) {
	case []byte, dht.WireValue:
		return nil
	}
	return fmt.Errorf("tcpnet: a %T has no stored form (store a []byte or a dht.WireValue)", v)
}

// appendValue appends the tagged wire form of v: a []byte travels raw, a
// dht.WireValue writes itself into b, any other type is refused. A value
// carrying a CAS epoch (dht.Epocher) is prefixed with tagEpoch and the
// epoch varint so the server can compare epochs on pure bytes.
func appendValue(b []byte, v dht.Value) ([]byte, error) {
	if e, ok := v.(dht.Epocher); ok {
		b = append(b, tagEpoch)
		b = appendUv(b, e.DHTEpoch())
	}
	switch v := v.(type) {
	case []byte:
		b = append(b, tagRaw)
		return append(b, v...), nil
	case dht.WireValue:
		b = append(b, tagWire, v.WireKind())
		return v.AppendWire(b), nil
	}
	return nil, storable(v)
}

// decodeTaggedValue is the inverse of appendValue. The input's backing
// array may be a pooled buffer, so raw bytes are copied out (and a
// dht.WireDecoder copies what it keeps).
func decodeTaggedValue(tv []byte) (dht.Value, error) { return decodeTagged(tv, false) }

// decodeTagged is decodeTaggedValue for a get that was a probe when probe
// is set: its reply, or its slot of a hinted getbatch, may be a tagWire
// value the server projected, which dht.DecodeProbe decodes.
func decodeTagged(tv []byte, probe bool) (dht.Value, error) {
	if len(tv) == 0 {
		return nil, fmt.Errorf("tcpnet: empty wire value")
	}
	switch tv[0] {
	case tagRaw:
		out := make([]byte, len(tv)-1)
		copy(out, tv[1:])
		return out, nil
	case tagWire:
		if len(tv) < 2 {
			return nil, fmt.Errorf("tcpnet: truncated wire-kind tag")
		}
		if probe {
			return dht.DecodeProbe(tv[1], tv[2:])
		}
		return dht.DecodeWire(tv[1], tv[2:])
	case tagEpoch:
		// The epoch only exists for the server's CAS compare; the decoded
		// value carries its own version, so the prefix is simply stripped.
		c := cursor{b: tv[1:]}
		if _, err := c.uvarint(); err != nil {
			return nil, fmt.Errorf("tcpnet: truncated epoch tag")
		}
		if len(c.b) == 0 || c.b[0] == tagEpoch {
			return nil, fmt.Errorf("tcpnet: malformed epoch-tagged value")
		}
		return decodeTagged(c.b, probe)
	default:
		return nil, fmt.Errorf("tcpnet: unknown value tag %d", tv[0])
	}
}

// appendProbed appends the reply value of a get carrying hint, given the
// stored tagged value tv: for a tagWire value (under its tagEpoch prefix
// or bare) the tags and kind byte, then whatever the kind's projector
// ships; for anything else all of tv. Pure byte work on the stored value:
// nothing is decoded or allocated, and the kind byte is all the server
// knows of the type.
func appendProbed(out, tv []byte, hint uint64) []byte {
	in := innerValue(tv)
	if len(in) < 2 || in[0] != tagWire {
		return append(out, tv...)
	}
	out = append(out, tv[:len(tv)-len(in)+2]...)
	return dht.ProjectWire(out, in[1], in[2:], hint)
}

// innerValue returns the tagged value under tv's tagEpoch prefix, tv
// itself when it has none, and nil when the prefix is truncated.
func innerValue(tv []byte) []byte {
	if len(tv) == 0 || tv[0] != tagEpoch {
		return tv
	}
	c := cursor{b: tv[1:]}
	if _, err := c.uvarint(); err != nil {
		return nil
	}
	return c.b
}

// readFrameBody reads one frame from br into buf (grown as needed) and
// returns the body (id + op + payload). The length field is validated
// before any allocation, so malformed or hostile headers cannot cause an
// oversized allocation.
func readFrameBody(br *bufio.Reader, buf []byte) ([]byte, error) {
	// The length field is read byte-wise: a stack array passed through
	// io.ReadFull's interface would escape and cost one allocation per
	// frame.
	var n uint32
	for i := 0; i < 4; i++ {
		c, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		n = n<<8 | uint32(c)
	}
	if n < frameHeaderLen {
		return buf, errFrameTooSmall
	}
	if n > maxFrameLen {
		return buf, errFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// cursor walks a frame payload; every accessor reports truncation as an
// error instead of panicking, which is what the fuzz target leans on.
type cursor struct{ b []byte }

func (c *cursor) empty() bool { return len(c.b) == 0 }

func (c *cursor) u8() (byte, error) {
	if len(c.b) < 1 {
		return 0, errTruncated
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, errTruncated
	}
	c.b = c.b[n:]
	return v, nil
}

// count reads a batch element count and bounds it by the bytes that
// remain: every element occupies at least one byte, so a garbage count
// can never drive an oversized allocation downstream.
func (c *cursor) count() (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(c.b)) {
		return 0, fmt.Errorf("tcpnet: batch count %d exceeds frame size", v)
	}
	return int(v), nil
}

// lenBytes reads a varint-length-prefixed byte string as a view into the
// frame buffer (no copy; the caller copies if it must outlive the frame).
func (c *cursor) lenBytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)) {
		return nil, errTruncated
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v, nil
}

// rest consumes and returns everything left.
func (c *cursor) rest() []byte {
	v := c.b
	c.b = nil
	return v
}
