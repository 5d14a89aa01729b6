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

// This file is the framed binary wire codec. It uses no reflection and
// recycles every buffer it touches, so the encode/decode hot path
// allocates nothing beyond the returned value bytes.
//
// A connection opens with the 4-byte magic "LH10"; a server closes one
// that opens with anything else — an LHT9 peer of the generation before
// this one included — before serving a frame. Nodes and clients of one
// generation upgrade together. After the magic, both directions speak
// length-prefixed frames whose header is two unsigned varints:
//
//	request  +--------+-------+-------+---------+
//	         | uv len | uv id | op u8 | payload |
//	         +--------+-------+-------+---------+
//	reply    +--------+-------+-----------+---------+
//	         | uv len | uv id | status u8 | payload |
//	         +--------+-------+-----------+---------+
//
// len counts the bytes after the length field, so a frame occupies len
// plus one to four bytes on the wire: len is at most maxFrameLen, and a
// reader refuses a longer varint, a larger length, or an id that leaves
// no byte for the op or status, before it allocates anything. The id
// correlates a reply with its request: replies may arrive in any order,
// which is what lets a client keep many requests in flight on one
// connection. An id is a slot of its connection, not a serial number.
// The handshake ping is 0; a client gives a request a free id, the one
// freed last, and a new one (1, 2, 3, …) only when none is free. An id is
// freed once the reply to it has been read, or at once when its frame was
// never queued; the id of a request whose caller gave up is freed only
// when its late reply arrives, and that reply is dropped. So no two
// requests in flight share an id, a reply finds the request it answers,
// and ids stay at or below the connection's in-flight high-water mark: a
// connection that never has more than 127 requests in flight sends every
// id in one byte. A node echoes the id's bytes verbatim, and not the op:
// the client knows what it sent. The op byte is uint8(dht.OpKind).
//
// Request payloads (uv = unsigned varint; "rest" = to the frame's end;
// key = a key field, below):
//
//	ping                    (empty): the handshake every connection opens with
//	get                     key [, hint u64 BE]
//	take                    key: Client.Take's fetch-and-delete
//	remove                  key
//	put / write             key, value(rest)
//	putnewer                key, value(rest); stored only if no strictly
//	                        newer epoch tag is already held
//	putif / writeif         key, uv ifEpoch, value(rest)
//	createif                key, value(rest)
//	removeif                key, uv ifEpoch
//	patchif                 key, mode u8, then for mode 0 hint u64 BE, for
//	                        modes 1 and 2 uv ifEpoch; patch(rest)
//	getbatch                uv count, count x key [, hint u64 BE]
//	putbatch                uv count, count x (key, uv vlen, value)
//	gossip                  the sender's view (membership.go)
//	status                  (empty)
//
// Keys. Every key field is uv x, then the key. The index's keys are
// label names (bitlabel), '#' and a bit string, and such a key of at most
// 64 bits travels packed: x = nbits<<1 | 1, then ceil(nbits/8) bytes of
// the bits, most significant first, the pad bits of the last byte zero —
// "#0110" is the two bytes 0x09 0x60. Any other key travels raw: x =
// len<<1, then its bytes. A node expands a packed key back to its '#'
// string before it looks it up, so the store, the ring and snapshots hold
// the same strings either way; it refuses, as malformed, a packed form of
// more than 64 bits or with a pad bit set. Addresses are no keys: they
// stay uv len, then the bytes.
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
// Probe replies. A get may end in an 8-byte hint, which makes it a probe
// (dht.Prober): the requester can perhaps do without most of the value.
// The reply to a hinted get of a tagWire value, bare or under its
// tagEpoch prefix, is tagWire, the kind byte, then what the kind's
// dht.WireProjector appended given the hint: the value's own bytes whole,
// or a smaller form the kind defines. The epoch prefix stays behind: a
// prober reads no epoch (a whole value carries its own version), so the
// prefix would be bytes nobody reads. For the index's buckets
// (internal/lht, "Probe replies") the smaller forms are the leaf's label
// alone when the leaf does not cover the hinted key, and the label plus
// the value of the one record asked for, or word that it is absent, when
// it does and the hint says the record is all the requester wants; to a
// range hint, the label plus the leaf's records in the range, packed: each
// key as its offset inside the leaf's interval, one length for values
// that share it. The requester
// decodes with dht.DecodeProbe. The server builds the reply without
// decoding anything; every other tag is answered as stored, a kind with
// no projector whole, and a get with no hint is served the stored bytes
// verbatim, epoch prefix and all: re-replication (EnsureReplicated)
// compares the epochs of plain gets and forwards the donor's bytes as
// they came.
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
// fails — two writers whose dials disagree on who is reachable each
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
//	ok   get/take            value(rest), as stored; after a hinted get
//	                         of a tagWire value tagWire, kind u8 and the
//	                         projection, see "Probe replies"
//	ok   ping                (empty)
//	ok   put/remove/write    (empty)
//	ok   putif/createif/removeif/writeif  (empty)
//	ok   patchif probe       uv epoch patched, kind u8, the patcher's
//	                         reply(rest)
//	ok   patchif in place    kind u8, the patcher's reply(rest)
//	ok   patchif newer       (empty)
//	ok   getbatch/putbatch   uv count, count x slot
//	ok   gossip/status       view: the node's, merged with the sender's
//	                         for a gossip; nothing follows it
//	not-found                (empty)
//	error                    message(rest)
//	cas-conflict             exists u8, uv winnerEpoch
//	patch-refused            patchif probe: value(rest), what the hinted
//	                         get would have answered; otherwise (empty)
//
// A batch slot is: status u8; ok = uv n, n bytes (a tagged value for a
// get slot, after a hinted getbatch answered as the hinted get of its key
// is; n=0 for a put slot); not-found = nothing; error = uv n, n-byte
// message.
const (
	// wireMagic opens every connection; the server closes one without it.
	wireMagic = "LH10"

	// maxFrameLen bounds a frame's length field: decoders reject anything
	// larger before allocating, so a garbage or hostile header can never
	// balloon memory.
	maxFrameLen = 64 << 20

	// lenReserve is the room a frame keeps for its length varint while it
	// is built: maxFrameLen's varint takes four bytes.
	lenReserve = 4

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
	errFrameID       = errors.New("tcpnet: frame id overflows 64 bits")
	errTruncated     = errors.New("tcpnet: truncated frame payload")
	errKeyForm       = errors.New("tcpnet: packed key past 64 bits or with a pad bit set")
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

// newFrame starts request id's frame in a pooled buffer: the length
// reserve, the id, the op byte. The pooled pointer travels with the frame
// (builders reassign *bp after appending) so the encode path allocates no
// fresh slice header per request; finishFrame writes the length.
func newFrame(id uint64, op dht.OpKind) *[]byte {
	bp := getBuf()
	*bp = append(appendUv(append((*bp)[:0], 0, 0, 0, 0), id), byte(op))
	return bp
}

// finishFrame writes the length of the frame built in b after its
// lenReserve bytes, right-aligned into them, and returns where the frame
// starts: b[off:] is what crosses the wire. The frame is at most
// maxFrameLen bytes past the reserve.
func finishFrame(b []byte) (off int) {
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(b)-lenReserve))
	off = lenReserve - k
	copy(b[off:], n[:k])
	return off
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

// maxPackedBits is the most bits a key's packed form carries.
const maxPackedBits = 64

// keyScratch is what cursor.key expands a packed key into.
type keyScratch [1 + maxPackedBits]byte

// appendKey appends a key field: a label's name, '#' and up to
// maxPackedBits '0'/'1' bytes, packed eight bits a byte; any other key
// raw (see "Keys" in the package comment).
func appendKey(b []byte, key string) []byte {
	if !packable(key) {
		b = appendUv(b, uint64(len(key))<<1)
		return append(b, key...)
	}
	n := len(key) - 1
	b = appendUv(b, uint64(n)<<1|1)
	var acc byte
	for i := 1; i <= n; i++ {
		if acc = acc<<1 | (key[i] - '0'); i%8 == 0 {
			b, acc = append(b, acc), 0
		}
	}
	if n%8 != 0 {
		b = append(b, acc<<(8-n%8))
	}
	return b
}

// packable reports whether key has a packed form.
func packable(key string) bool {
	if len(key) == 0 || key[0] != '#' || len(key) > 1+maxPackedBits {
		return false
	}
	for i := 1; i < len(key); i++ {
		if key[i] != '0' && key[i] != '1' {
			return false
		}
	}
	return true
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
// or bare) tagWire and the kind byte, then whatever the kind's projector
// ships — never the epoch prefix, which no prober reads; for anything
// else all of tv. Pure byte work on the stored value: nothing is decoded
// or allocated, and the kind byte is all the server knows of the type.
func appendProbed(out, tv []byte, hint uint64) []byte {
	in := innerValue(tv)
	if len(in) < 2 || in[0] != tagWire {
		return append(out, tv...)
	}
	return dht.ProjectWire(append(out, in[:2]...), in[1], in[2:], hint)
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

// frameReader reads frames off a connection whose reads a deadline may
// cut short at any byte: the part of a frame read so far, its header's
// varints too, stays here, so the next read, maybe another caller's,
// resumes it.
type frameReader struct {
	br    *bufio.Reader
	n     uint32                      // the frame's length, as far as read
	hdr   int                         // bytes of the length varint read
	sized bool                        // the length varint is whole
	idn   int                         // bytes of the id varint read into id
	id    [binary.MaxVarintLen64]byte // the id varint as it arrived
	body  *[]byte                     // the body read so far; nil until the header is whole
	// keep, when set, is the one buffer every body is read into, for an
	// owner done with each body before it reads the next; nil gives each
	// body a pooled buffer of its own.
	keep *[]byte
}

// next reads the frame in progress to its end and returns its id's bytes,
// valid until the next call, and its body after them (op + payload, or
// status + payload) in a pooled buffer, or in keep. The header is read a byte at a
// time and checked as it arrives — the length's varint at most
// lenReserve bytes and its value at most maxFrameLen, the id's varint
// leaving a byte for the op or status — so a malformed or hostile header
// is refused before anything is allocated.
func (f *frameReader) next() (id []byte, body *[]byte, err error) {
	for f.body == nil {
		// Byte-wise: a stack array passed through io.ReadFull's interface
		// would escape and cost one allocation per frame.
		c, err := f.br.ReadByte()
		if err != nil {
			if f.hdr > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, nil, err
		}
		if err := f.header(c); err != nil {
			return nil, nil, err
		}
	}
	for b, want := *f.body, int(f.n)-f.idn; len(b) < want; b = *f.body {
		k, err := f.br.Read(b[len(b):want])
		*f.body = b[:len(b)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, nil, err
		}
	}
	id, body = f.id[:f.idn], f.body
	f.n, f.hdr, f.sized, f.idn, f.body = 0, 0, false, 0, nil
	return id, body, nil
}

// header takes the next header byte c: the length's varint, then the
// id's. Once the id is whole it readies a buffer for the bytes that
// remain, the body.
func (f *frameReader) header(c byte) error {
	if !f.sized {
		f.n |= uint32(c&0x7f) << (7 * f.hdr)
		f.hdr++
		switch {
		case c >= 0x80 && f.hdr == lenReserve:
			return errFrameTooLarge // a fifth length byte: past maxFrameLen
		case c >= 0x80:
			return nil
		case f.n > maxFrameLen:
			return errFrameTooLarge
		case f.n < 2:
			return errFrameTooSmall // no room for an id and an op
		}
		f.sized = true
		return nil
	}
	if f.idn+2 > int(f.n) {
		return errFrameTooSmall // the id runs into the op's byte, or past the end
	}
	if f.idn == len(f.id) {
		return errFrameID
	}
	f.id[f.idn] = c
	if f.idn++; c >= 0x80 {
		return nil
	}
	if _, k := binary.Uvarint(f.id[:f.idn]); k <= 0 {
		return errFrameID
	}
	if f.body = f.keep; f.body == nil {
		f.body = getBuf()
	}
	if want := int(f.n) - f.idn; cap(*f.body) < want {
		*f.body = make([]byte, 0, want)
	}
	*f.body = (*f.body)[:0]
	return nil
}

// ready reports whether a whole frame is buffered, so next returns it
// without a syscall.
func (f *frameReader) ready() bool {
	if f.hdr != 0 {
		return false
	}
	b, _ := f.br.Peek(min(f.br.Buffered(), lenReserve))
	n, k := binary.Uvarint(b)
	return k > 0 && f.br.Buffered()-k >= int(n)
}

// frameID is the value of a frame id's varint bytes, as next returns them.
func frameID(id []byte) uint64 {
	v, _ := binary.Uvarint(id)
	return v
}

// drop recycles the frame in progress of a connection that failed.
func (f *frameReader) drop() {
	putBuf(f.body)
	f.body = nil
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

// key reads a key field appendKey wrote: a raw key as a view into the
// frame buffer, a packed one expanded into scratch, valid until scratch's
// next use. A packed form of more than maxPackedBits bits, or with a pad
// bit set, is malformed; a cut-short one is truncated.
func (c *cursor) key(scratch *keyScratch) ([]byte, error) {
	x, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	n := x >> 1
	if x&1 == 0 {
		if n > uint64(len(c.b)) {
			return nil, errTruncated
		}
		v := c.b[:n]
		c.b = c.b[n:]
		return v, nil
	}
	if n > maxPackedBits {
		return nil, errKeyForm
	}
	k := int(n+7) / 8
	if k > len(c.b) {
		return nil, errTruncated
	}
	packed := c.b[:k]
	if n%8 != 0 && packed[k-1]<<(n%8) != 0 {
		return nil, errKeyForm
	}
	scratch[0] = '#'
	for i := 0; i < int(n); i++ {
		scratch[1+i] = '0' + packed[i/8]>>(7-i%8)&1
	}
	c.b = c.b[k:]
	return scratch[:1+n], nil
}

// rest consumes and returns everything left.
func (c *cursor) rest() []byte {
	v := c.b
	c.b = nil
	return v
}
