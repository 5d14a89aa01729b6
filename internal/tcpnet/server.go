package tcpnet

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"lht/internal/dht"
	"lht/internal/metrics"
)

// Server is one storage node: a byte store behind the framed binary
// protocol (frame.go), with the legacy gob protocol auto-detected per
// connection — a connection that opens with the "LHT2" magic speaks
// frames, anything else speaks gob, and both land on the same store.
// Create with NewServer, start with Serve, stop with Close.
type Server struct {
	mu sync.Mutex
	// store holds tagged values (see frame.go for the tags), the framed
	// protocol's value form; the gob handler wraps and unwraps the tag so
	// both wire formats interoperate on one store.
	store map[string][]byte
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  bool

	// mem is the gossip participant (nil until EnableMembership); hints is
	// the hinted-handoff park: holder address -> key -> the tagged value a
	// failed fan-out left for it (see membership.go).
	mem   *Membership
	hints map[string]map[string][]byte

	c metrics.Counters

	wg sync.WaitGroup
}

// NewServer returns a server with an empty store.
func NewServer() *Server {
	return &Server{
		store: make(map[string][]byte),
		conns: make(map[net.Conn]struct{}),
	}
}

// Metrics returns the node's served-traffic counters: every routed
// request charges one lookup (Write is free, per the cost model), misses
// count as failed gets, and batch requests feed the batch counters.
// cmd/lht-node serves them on its /metrics endpoint.
func (s *Server) Metrics() metrics.Snapshot { return s.c.Snapshot() }

// Counters exposes the live counters for chaining or export.
func (s *Server) Counters() *metrics.Counters { return &s.c }

// Serve accepts connections on ln until Close is called. It blocks; run
// it in the caller's goroutine of choice (cmd/lht-node simply calls it
// from main).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return errors.New("tcpnet: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.done
			s.mu.Unlock()
			if done {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Close stops accepting, closes open connections, and waits for handlers
// to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Len returns the number of stored keys.
func (s *Server) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.store)
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// Protocol detection: framed binary connections open with the magic,
	// legacy gob streams start with a gob type descriptor that cannot
	// collide with it. Peeking leaves the bytes for the gob decoder.
	br := bufio.NewReaderSize(conn, wireBufSize)
	magic, err := br.Peek(len(wireMagic))
	if err != nil {
		return // connection died before identifying itself
	}
	if string(magic) == wireMagic {
		_, _ = br.Discard(len(wireMagic))
		s.handleBinary(conn, br)
		return
	}
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Connection torn down mid-request; nothing to answer.
				return
			}
			return
		}
		if err := enc.Encode(s.apply(req)); err != nil {
			return
		}
	}
}

// tagWrap converts a legacy wire value (gob bytes) into the tagged form
// the store holds.
func tagWrap(val []byte) []byte {
	out := make([]byte, 1+len(val))
	out[0] = tagGob
	copy(out[1:], val)
	return out
}

// tagWrapEpoch is tagWrap for a legacy value whose request carried the
// value's own epoch: it produces the same epoch-tagged byte form the
// framed wire stores, so the two wires leave byte-identical stores.
func tagWrapEpoch(val []byte, epoch uint64, known bool) []byte {
	if !known {
		return tagWrap(val)
	}
	out := make([]byte, 0, 2+binary.MaxVarintLen64+len(val))
	out = append(out, tagEpoch)
	out = binary.AppendUvarint(out, epoch)
	out = append(out, tagGob)
	return append(out, val...)
}

// storedEpoch reads the CAS epoch off a stored tagged value: the varint
// after a tagEpoch prefix, or 0 for untagged values (matching
// dht.EpochOf's treatment of values without a version).
func storedEpoch(v []byte) uint64 {
	if len(v) < 2 || v[0] != tagEpoch {
		return 0
	}
	e, n := binary.Uvarint(v[1:])
	if n <= 0 {
		return 0
	}
	return e
}

// detagValue converts a stored tagged value into the legacy wire form:
// gob bytes travel as-is, raw []byte values are gob-encoded so a legacy
// client can decode a value a framed client stored, and a self-serialised
// value is transcoded — decoded through the dht kind registry and
// gob-encoded — which is the one place a server looks inside a value, and
// only for a legacy client. The server never decodes gob itself; for
// framed clients it stays a pure byte store.
func detagValue(v []byte) ([]byte, error) {
	if len(v) == 0 {
		return nil, errors.New("tcpnet: corrupt stored value")
	}
	switch v[0] {
	case tagGob:
		return v[1:], nil
	case tagRaw:
		return encodeValue(dht.Value(v[1:]))
	case tagWire:
		val, err := decodeTaggedValue(v)
		if err != nil {
			return nil, err
		}
		return encodeValue(val)
	case tagEpoch:
		// Strip the CAS epoch prefix; the decoded value carries its own
		// version, so a legacy client loses nothing.
		_, n := binary.Uvarint(v[1:])
		if n <= 0 {
			return nil, errors.New("tcpnet: corrupt stored value")
		}
		return detagValue(v[1+n:])
	default:
		return nil, fmt.Errorf("tcpnet: unknown stored value tag %d", v[0])
	}
}

// errNotFound is the wire form of dht.ErrNotFound.
const errNotFound = "not found"

// errCASConflict is the wire form of dht.ErrCASConflict; the response's
// ConflictExists/Winner fields carry the detail.
const errCASConflict = "cas conflict"

// casConflictResponse builds the legacy wire form of a CAS conflict.
func casConflictResponse(exists bool, winner uint64) response {
	return response{Err: errCASConflict, ConflictExists: exists, Winner: winner}
}

func (s *Server) apply(req request) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case opPing:
		return response{Found: true}
	case opGet:
		s.c.AddLookups(1)
		v, ok := s.store[req.Key]
		if !ok {
			s.c.AddFailedGets(1)
			return response{Err: errNotFound}
		}
		data, err := detagValue(v)
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{Found: true, Val: data}
	case opPut:
		s.c.AddLookups(1)
		s.store[req.Key] = tagWrapEpoch(req.Val, req.Epoch, req.EpochKnown)
		return response{Found: true}
	case opTake:
		s.c.AddLookups(1)
		v, ok := s.store[req.Key]
		if !ok {
			s.c.AddFailedGets(1)
			return response{Err: errNotFound}
		}
		data, err := detagValue(v)
		if err != nil {
			return response{Err: err.Error()}
		}
		delete(s.store, req.Key)
		return response{Found: true, Val: data}
	case opRemove:
		s.c.AddLookups(1)
		delete(s.store, req.Key)
		return response{Found: true}
	case opWrite:
		// Free in the cost model: the client already routed here.
		if _, ok := s.store[req.Key]; !ok {
			return response{Err: errNotFound}
		}
		s.store[req.Key] = tagWrapEpoch(req.Val, req.Epoch, req.EpochKnown)
		return response{Found: true}
	case opPutIf:
		s.c.AddLookups(1)
		cur, ok := s.store[req.Key]
		if !ok {
			return casConflictResponse(false, 0)
		}
		if w := storedEpoch(cur); w != req.IfEpoch {
			return casConflictResponse(true, w)
		}
		s.store[req.Key] = tagWrapEpoch(req.Val, req.Epoch, req.EpochKnown)
		return response{Found: true}
	case opCreateIf:
		s.c.AddLookups(1)
		if cur, ok := s.store[req.Key]; ok {
			return casConflictResponse(true, storedEpoch(cur))
		}
		s.store[req.Key] = tagWrapEpoch(req.Val, req.Epoch, req.EpochKnown)
		return response{Found: true}
	case opRemoveIf:
		s.c.AddLookups(1)
		cur, ok := s.store[req.Key]
		if !ok {
			return response{Found: true} // already gone: the removal is done
		}
		if w := storedEpoch(cur); w != req.IfEpoch {
			return casConflictResponse(true, w)
		}
		delete(s.store, req.Key)
		return response{Found: true}
	case opWriteIf:
		// Free in the cost model, like opWrite.
		cur, ok := s.store[req.Key]
		if !ok {
			return response{Err: errNotFound}
		}
		if w := storedEpoch(cur); w != req.IfEpoch {
			return casConflictResponse(true, w)
		}
		s.store[req.Key] = tagWrapEpoch(req.Val, req.Epoch, req.EpochKnown)
		return response{Found: true}
	case opGetBatch:
		s.c.AddLookups(int64(len(req.Keys)))
		s.c.AddBatchOps(1)
		s.c.AddBatchedKeys(int64(len(req.Keys)))
		out := make([]batchReply, len(req.Keys))
		for i, k := range req.Keys {
			v, ok := s.store[k]
			if !ok {
				s.c.AddFailedGets(1)
				out[i] = batchReply{Err: errNotFound}
				continue
			}
			data, err := detagValue(v)
			if err != nil {
				out[i] = batchReply{Err: err.Error()}
				continue
			}
			out[i] = batchReply{Val: data}
		}
		return response{Found: true, Batch: out}
	case opPutBatch:
		s.c.AddLookups(int64(len(req.KVs)))
		s.c.AddBatchOps(1)
		s.c.AddBatchedKeys(int64(len(req.KVs)))
		for _, kv := range req.KVs { // in order: a duplicate key's last pair wins
			s.store[kv.Key] = tagWrapEpoch(kv.Val, kv.Epoch, kv.EpochKnown)
		}
		return response{Found: true, Batch: make([]batchReply, len(req.KVs))}
	default:
		return response{Err: "unknown op"}
	}
}
