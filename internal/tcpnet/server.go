package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"

	"lht/internal/metrics"
)

// Server is one storage node: a byte store behind the framed binary
// protocol (frame.go). A connection opens with the "LH10" magic or is
// closed unserved. Create with NewServer, start with Serve, stop with
// Close.
type Server struct {
	mu sync.Mutex
	// store holds tagged values (see frame.go for the tags), exactly the
	// bytes the wire delivered, each beside the map's own string of its
	// key. Writes go through put, which stores under that string when the
	// key is already held, so only a key the node never held allocates
	// its string; reads go through get.
	store map[string]entry
	// spare is the array the next applied patch builds its value in: the
	// array of the value the last one replaced (see patchStored). Like
	// the store's values it is touched only under mu.
	spare []byte
	// keys is where a request's packed key is expanded to its string
	// (cursor.key); like spare it is touched only under mu.
	keys  keyScratch
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  bool

	// mem is the gossip participant (nil until EnableMembership).
	mem *Membership

	c metrics.Counters

	wg sync.WaitGroup
}

// NewServer returns a server with an empty store.
func NewServer() *Server {
	return &Server{
		store: make(map[string]entry),
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

// Close stops accepting, closes open connections and the membership
// plane's peer connections, and waits for handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	ln, mem := s.ln, s.mem
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	if mem != nil {
		mem.closePeers()
	}
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
	br := bufio.NewReaderSize(conn, wireBufSize)
	magic, err := br.Peek(len(wireMagic))
	if err != nil || string(magic) != wireMagic {
		return // died before identifying itself, or speaks something else
	}
	_, _ = br.Discard(len(wireMagic))
	s.handleBinary(conn, br)
}

// entry is one stored value and the string its key is stored under.
type entry struct {
	key string
	val []byte
}

// get returns the value stored under key. Callers hold s.mu.
func (s *Server) get(key []byte) ([]byte, bool) {
	e, ok := s.store[string(key)]
	return e.val, ok
}

// put stores val under key, keeping val's array. A key the node already
// holds is stored under the string the store has for it, so the write
// allocates nothing for the key; a new key allocates its string once.
// Callers hold s.mu.
func (s *Server) put(key, val []byte) {
	if e, ok := s.store[string(key)]; ok {
		s.store[e.key] = entry{e.key, val}
		return
	}
	k := string(key)
	s.store[k] = entry{k, val}
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
