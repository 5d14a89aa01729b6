package tcpnet

import (
	"bufio"
	"encoding/binary"
	"net"

	"lht/internal/dht"
	"lht/internal/metrics"
)

// errMalformed is the server's reply to a frame whose payload does not
// parse; the connection survives (the frame boundary is intact, only the
// payload was garbage).
const errMalformed = "malformed request"

// errReplyTooLarge is the server's reply to a request whose answer would
// not fit in one frame.
const errReplyTooLarge = "reply exceeds the frame size limit"

// handleBinary serves the framed protocol on one connection, after the
// magic has been consumed from br. Requests are processed in arrival
// order into reused buffers — steady-state service allocates only what a
// whole-value write stores, and the string of a key the node never held
// (a write to a held key reuses the store's string, see Server.put; an
// applied patch builds its value in the spare, see patchStored) — and
// responses are flushed only once the read buffer holds no further input,
// so a pipelined burst of requests is answered with one write. A buffer
// grown past maxPooledBuf by one huge request or reply is dropped once
// the reply is buffered for writing, so it does not stay pinned for the
// connection's life.
func (s *Server) handleBinary(conn net.Conn, br *bufio.Reader) {
	bw := bufio.NewWriterSize(conn, wireBufSize)
	in := getBuf()
	out := getBuf()
	defer func() { putBuf(in); putBuf(out) }()
	fr := frameReader{br: br, keep: in}
	for {
		id, body, err := fr.next()
		if err != nil {
			// Framing is broken (EOF, truncation, oversized length):
			// nothing sane can follow, drop the connection.
			return
		}
		var off int
		*out, off = s.applyFrame(id, *body, (*out)[:0])
		_, err = bw.Write((*out)[off:])
		if cap(*in) > maxPooledBuf {
			*in = nil
		}
		if cap(*out) > maxPooledBuf {
			*out = nil
		}
		if err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// applyFrame serves one request frame — id, its id varint's bytes, and
// body, its op and payload, as frameReader.next returns them — and
// appends the reply frame to out past a lenReserve: the frame is
// reply[off:]. It never panics on garbage payloads — malformed requests
// get a statusErr response — and a reply longer than maxFrameLen is
// replaced by a statusErr one.
func (s *Server) applyFrame(id, body, out []byte) (reply []byte, off int) {
	base := len(out)
	out = append(append(out, 0, 0, 0, 0), id...)
	start := len(out)
	out = s.respond(dht.OpKind(body[0]), body[1:], out)
	if len(out)-base-lenReserve > maxFrameLen {
		out = appendStatusErr(out[:start], errReplyTooLarge)
	}
	return out, base + finishFrame(out[base:])
}

func appendStatusErr(out []byte, msg string) []byte {
	out = append(out, statusErr)
	return append(out, msg...)
}

// appendCASConflict appends a statusCASConflict response: whether a value
// exists under the contested key, and the winning stored epoch.
func appendCASConflict(out []byte, exists bool, winner uint64) []byte {
	out = append(out, statusCASConflict)
	if exists {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return appendUv(out, winner)
}

// respond appends the status + payload of op's response. Counter
// discipline is the cost model's (TestCodecOracle pins it against
// dht.Local): every routed op charges one lookup per key, misses charge
// failed gets, Write is free, batches feed the batch counters. Batch
// payloads are validated in full before any counter is charged or key
// served, so a malformed frame has no side effects.
func (s *Server) respond(op dht.OpKind, payload, out []byte) []byte {
	c := cursor{b: payload}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case dht.OpPing:
		if !c.empty() {
			return appendStatusErr(out, errMalformed)
		}
		return append(out, statusOK)

	case dht.OpGet, dht.OpTake:
		key, err := c.key(&s.keys)
		// A get may carry a probe hint after the key; a take never does.
		hinted := op == dht.OpGet && len(c.b) == 8
		if err != nil || !(c.empty() || hinted) {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, 1)
		v, ok := s.get(key)
		if !ok {
			s.c.Add(metrics.FailedGets, 1)
			return append(out, statusNotFound)
		}
		if op == dht.OpTake {
			delete(s.store, string(key))
		}
		out = append(out, statusOK)
		if hinted {
			return appendProbed(out, v, binary.BigEndian.Uint64(c.b))
		}
		return append(out, v...)

	case dht.OpPut:
		key, err := c.key(&s.keys)
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, 1)
		s.put(key, append([]byte(nil), c.rest()...))
		return append(out, statusOK)

	case dht.OpPutNewer:
		// Replica propagation of a primary-serialized commit: store unless
		// a strictly newer epoch already landed. Fan-outs of successive
		// commits may arrive out of order; the epoch guard keeps the newest
		// accepted write in place, so a late-arriving older fan-out can
		// never leave this holder durably stale. Charged like OpPut — the
		// cost model sees propagation identically either way.
		key, err := c.key(&s.keys)
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		val := c.rest()
		if len(val) == 0 {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, 1)
		if cur, ok := s.get(key); ok && storedEpoch(cur) > storedEpoch(val) {
			return append(out, statusOK) // superseded: keep the newer value
		}
		s.put(key, append([]byte(nil), val...))
		return append(out, statusOK)

	case dht.OpRemove:
		key, err := c.key(&s.keys)
		if err != nil || !c.empty() {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, 1)
		delete(s.store, string(key))
		return append(out, statusOK)

	case dht.OpWrite:
		key, err := c.key(&s.keys)
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		// Free in the cost model: the client already routed here.
		if _, ok := s.get(key); !ok {
			return append(out, statusNotFound)
		}
		s.put(key, append([]byte(nil), c.rest()...))
		return append(out, statusOK)

	case dht.OpPutIf, dht.OpWriteIf:
		key, err := c.key(&s.keys)
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		ifEpoch, err := c.uvarint()
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		val := c.rest()
		if len(val) == 0 {
			return appendStatusErr(out, errMalformed)
		}
		if op == dht.OpPutIf {
			s.c.Add(metrics.Lookups, 1) // WriteIf, like Write, is free
		}
		cur, ok := s.get(key)
		if !ok {
			if op == dht.OpWriteIf {
				return append(out, statusNotFound) // matches Write
			}
			return appendCASConflict(out, false, 0)
		}
		if w := storedEpoch(cur); w != ifEpoch {
			return appendCASConflict(out, true, w)
		}
		s.put(key, append([]byte(nil), val...))
		return append(out, statusOK)

	case dht.OpCreateIf:
		key, err := c.key(&s.keys)
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		val := c.rest()
		if len(val) == 0 {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, 1)
		if cur, ok := s.get(key); ok {
			return appendCASConflict(out, true, storedEpoch(cur))
		}
		s.put(key, append([]byte(nil), val...))
		return append(out, statusOK)

	case dht.OpRemoveIf:
		key, err := c.key(&s.keys)
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		ifEpoch, err := c.uvarint()
		if err != nil || !c.empty() {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, 1)
		cur, ok := s.get(key)
		if !ok {
			return append(out, statusOK) // already gone: the removal is done
		}
		if w := storedEpoch(cur); w != ifEpoch {
			return appendCASConflict(out, true, w)
		}
		delete(s.store, string(key))
		return append(out, statusOK)

	case dht.OpGetBatch:
		n, err := c.count()
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		cc := c
		for i := 0; i < n; i++ {
			if _, err := cc.key(&s.keys); err != nil {
				return appendStatusErr(out, errMalformed)
			}
		}
		// The keys may be followed by one probe hint for every slot.
		hinted := len(cc.b) == 8
		if !(cc.empty() || hinted) {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, int64(n))
		s.c.Add(metrics.BatchOps, 1)
		s.c.Add(metrics.BatchedKeys, int64(n))
		out = append(out, statusOK)
		out = appendUv(out, uint64(n))
		for i := 0; i < n; i++ {
			key, _ := c.key(&s.keys)
			v, ok := s.get(key)
			if !ok {
				s.c.Add(metrics.FailedGets, 1)
				out = append(out, statusNotFound)
				continue
			}
			out = append(out, statusOK)
			if hinted {
				at := len(out)
				out = closeLen(appendProbed(append(out, 0), v, binary.BigEndian.Uint64(cc.b)), at)
				continue
			}
			out = appendLenBytes(out, v)
		}
		return out

	case dht.OpPutBatch:
		n, err := c.count()
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		cc := c
		for i := 0; i < n; i++ {
			if _, err := cc.key(&s.keys); err != nil {
				return appendStatusErr(out, errMalformed)
			}
			if _, err := cc.lenBytes(); err != nil {
				return appendStatusErr(out, errMalformed)
			}
		}
		if !cc.empty() {
			return appendStatusErr(out, errMalformed)
		}
		s.c.Add(metrics.Lookups, int64(n))
		s.c.Add(metrics.BatchOps, 1)
		s.c.Add(metrics.BatchedKeys, int64(n))
		for i := 0; i < n; i++ { // in order: a duplicate key's last pair wins
			key, _ := c.key(&s.keys)
			val, _ := c.lenBytes()
			s.put(key, append([]byte(nil), val...))
		}
		out = append(out, statusOK)
		out = appendUv(out, uint64(n))
		for i := 0; i < n; i++ {
			out = append(out, statusOK)
			out = appendUv(out, 0)
		}
		return out

	case dht.OpGossip, dht.OpStatus:
		return s.respondMembership(op, &c, out)

	case dht.OpPatchIf:
		key, err := c.key(&s.keys)
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		mode, err := c.u8()
		if err != nil || mode > patchInPlace {
			return appendStatusErr(out, errMalformed)
		}
		if mode == patchProbe {
			if len(c.b) < 8 {
				return appendStatusErr(out, errMalformed)
			}
			hint := binary.BigEndian.Uint64(c.b)
			c.b = c.b[8:]
			// Charged as the get it rides, applied or not.
			s.c.Add(metrics.Lookups, 1)
			cur, ok := s.get(key)
			if !ok {
				s.c.Add(metrics.FailedGets, 1)
				return append(out, statusNotFound)
			}
			reply, ok := s.patchStored(key, cur, c.rest(), appendUv(append(out, statusOK), storedEpoch(cur)))
			if !ok {
				return appendProbed(append(out, statusPatchRefused), cur, hint)
			}
			return reply
		}
		ifEpoch, err := c.uvarint()
		if err != nil {
			return appendStatusErr(out, errMalformed)
		}
		// Charged as the putnewer (newer) or writeif (in place: nothing)
		// it replaces, once the outcome is one of theirs; a refused patch
		// is free, as dht.Patcher has it: the whole-value write that
		// follows is the lookup.
		lookups := int64(1)
		if mode == patchInPlace {
			lookups = 0
		}
		cur, ok := s.get(key)
		if !ok {
			if mode == patchInPlace {
				return append(out, statusNotFound) // matches writeif
			}
			s.c.Add(metrics.Lookups, lookups)
			return appendCASConflict(out, false, 0)
		}
		if w := storedEpoch(cur); w != ifEpoch {
			s.c.Add(metrics.Lookups, lookups)
			if mode == patchNewer && w > ifEpoch {
				return append(out, statusOK) // superseded: keep the newer value
			}
			return appendCASConflict(out, true, w)
		}
		reply, ok := s.patchStored(key, cur, c.rest(), append(out, statusOK))
		if !ok {
			return append(out, statusPatchRefused)
		}
		s.c.Add(metrics.Lookups, lookups)
		if mode == patchNewer {
			return reply[:len(out)+1] // a holder's word is its status
		}
		return reply

	default:
		return appendStatusErr(out, errUnknownOp)
	}
}

// maxEpochTagLen is the longest prefix a tagEpoch-over-tagWire value has
// before the wire value's own bytes: both tags, the epoch, the kind.
const maxEpochTagLen = 1 + binary.MaxVarintLen64 + 2

// patchStored applies patch to cur, the tagged value stored under key,
// with the dht.WirePatcher of its kind, stores the result in cur's place
// under the epoch the patcher returned, and returns reply extended by the
// kind byte and the patcher's reply. ok is false, and the store untouched,
// when cur is not a tagEpoch-over-tagWire value or the patcher refuses.
// Callers hold s.mu.
//
// No stored value's bytes are seen outside s.mu (replies and snapshots
// copy them under it), so the new value is built in place in s.spare, and
// cur's array becomes the next spare: once the spare has grown to the
// values it holds, an applied patch allocates nothing: put stores the
// result under the string the store already has for key. The patcher
// appends past a reserve of maxEpochTagLen bytes, into which the tags and
// epoch are written right-aligned. No stored value keeps an array more
// than twice its length: a value that much smaller than the spare is copied
// back into cur's array (or a new one, when that is far larger too), and
// the spare is kept.
func (s *Server) patchStored(key, cur, patch, reply []byte) (rep []byte, ok bool) {
	c := cursor{b: cur}
	if tag, _ := c.u8(); tag != tagEpoch {
		return reply, false
	}
	if _, err := c.uvarint(); err != nil || len(c.b) < 2 || c.b[0] != tagWire {
		return reply, false
	}
	kind, data := c.b[1], c.b[2:]
	out, rep, epoch, ok := dht.PatchWire(append(s.spare[:0], make([]byte, maxEpochTagLen)...), append(reply, kind), kind, data, patch)
	s.spare = out[:0]
	if !ok {
		return reply, false
	}
	var tags [maxEpochTagLen]byte
	prefix := append(appendUv(append(tags[:0], tagEpoch), epoch), tagWire, kind)
	next := out[maxEpochTagLen-len(prefix):]
	copy(next, prefix)
	switch {
	case cap(next) <= 2*len(next):
		s.spare = cur[:0]
	case cap(cur) <= 2*len(next):
		next = append(cur[:0], next...)
	default:
		next = append([]byte(nil), next...)
	}
	s.put(key, next)
	return rep, true
}
