package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lht/internal/dht"
)

// mconn is one pipelined, multiplexed connection to a node. Any number of
// goroutines issue requests concurrently; a writer goroutine coalesces
// their frames into the socket and a reader goroutine correlates response
// frames back to waiters through a request-id-keyed pending table. A
// cancelled caller abandons its pending slot and walks away — the
// connection (and everyone else's in-flight requests) keeps going.
//
// The connection dials lazily and redials after a failure; every dial is
// health-checked with a synchronous ping before the connection is handed
// to the multiplexer, so a half-dead endpoint (listener up, server
// wedged) is caught at reconnect time rather than poisoning the pending
// table.
type mconn struct {
	addr string
	dial ContextDialer // nil = plain net.Dialer

	mu     sync.Mutex
	st     *wireState // nil until dialed; replaced on reconnect
	gate   redialGate // lazy-redial cooldown (breaker-backed when health is on)
	closed bool
	hwm    int // high-water mark of in-flight requests, across generations
}

// wireState is one generation of an mconn's underlying connection: a
// fresh one is built per (re)dial, so a failure sweeps exactly the
// requests that were riding the broken socket.
type wireState struct {
	conn    net.Conn
	sendq   chan *[]byte
	dead    chan struct{} // closed by fail; err is set before the close
	pending map[uint64]*pending
	nextID  uint64
	failed  bool
	err     error
}

// pending is one in-flight request's rendezvous. Exactly one result is
// delivered per registration (by the reader or by fail), so the struct
// and its channel are pooled and reused across requests.
type pending struct{ ch chan result }

// result carries a response frame body (a pooled buffer the waiter must
// recycle) or the connection failure that ended the wait.
type result struct {
	buf *[]byte
	err error
}

var pendingPool = sync.Pool{New: func() any { return &pending{ch: make(chan result, 1)} }}

// wireBufSize sizes the per-connection read and write buffers: large
// enough to coalesce dozens of pipelined frames per syscall.
const wireBufSize = 64 << 10

var errClientClosed = errors.New("tcpnet: client closed")

// connect ensures the connection is dialed and healthy; DialContext uses
// it as the bootstrap liveness probe.
func (m *mconn) connect(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.ensureLocked(ctx)
	return err
}

// ensureLocked returns the live wireState, dialing (with a health-check
// ping) if there is none. Called with m.mu held; the dial happens under
// the lock, which serializes concurrent reconnect attempts.
func (m *mconn) ensureLocked(ctx context.Context) (*wireState, error) {
	if m.closed {
		return nil, errClientClosed
	}
	if m.st != nil {
		return m.st, nil
	}
	if err := m.gate.check(m.addr); err != nil {
		return nil, err
	}
	conn, err := dialWith(ctx, m.dial, m.addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		err = dht.MarkTransient(fmt.Errorf("tcpnet: dial %q: %w", m.addr, err))
		m.gate.failure(err)
		return nil, err
	}
	if err := handshake(ctx, conn); err != nil {
		_ = conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		err = dht.MarkTransient(fmt.Errorf("tcpnet: handshake %q: %w", m.addr, err))
		m.gate.failure(err)
		return nil, err
	}
	m.gate.success()
	st := &wireState{
		conn:    conn,
		sendq:   make(chan *[]byte, 64),
		dead:    make(chan struct{}),
		pending: make(map[uint64]*pending),
		nextID:  1,
	}
	m.st = st
	go m.writeLoop(st)
	go m.readLoop(st)
	return st, nil
}

// handshakeTimeout bounds the health-check ping when the caller's
// context has no deadline of its own: a wedged or black-holed endpoint
// must fail the probe, never hang it.
const handshakeTimeout = 5 * time.Second

// handshake sends the protocol magic and a health-check ping frame, and
// reads the ping response, all synchronously on the fresh connection
// (nothing else can be using it yet). The context's deadline bounds it
// (capped at handshakeTimeout when absent), and cancelling the context
// closes the socket to unblock the read.
func handshake(ctx context.Context, conn net.Conn) error {
	dl, _ := ctx.Deadline()
	if lim := time.Now().Add(handshakeTimeout); dl.IsZero() || dl.After(lim) {
		dl = lim
	}
	_ = conn.SetDeadline(dl)
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	frame := newFrame(dht.OpPing)
	finishFrame(*frame, 0)
	msg := append([]byte(wireMagic), *frame...)
	_, err := conn.Write(msg)
	putBuf(frame)
	if err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 256)
	body, err := readFrameBody(br, nil)
	if err != nil {
		return err
	}
	if br.Buffered() != 0 {
		return fmt.Errorf("unexpected bytes after ping response")
	}
	c := cursor{b: body[frameHeaderLen:]}
	if status, err := c.u8(); err != nil || status != statusOK || !c.empty() {
		return fmt.Errorf("ping rejected (status %d, %v, %d bytes more)", status, err, len(c.b))
	}
	return nil
}

// fail tears down one connection generation: marks it broken, closes the
// socket, and delivers err to every in-flight request. Idempotent per
// generation; a later request redials a fresh generation.
func (m *mconn) fail(st *wireState, err error) {
	m.mu.Lock()
	if st.failed {
		m.mu.Unlock()
		return
	}
	st.failed = true
	st.err = err
	if m.st == st {
		m.st = nil
	}
	pend := st.pending
	st.pending = nil
	m.mu.Unlock()

	_ = st.conn.Close()
	close(st.dead)
	for _, p := range pend {
		p.ch <- result{err: err}
	}
	// Recycle frames that were queued but never written.
	for {
		select {
		case b := <-st.sendq:
			putBuf(b)
		default:
			return
		}
	}
}

// close shuts the connection down for good; subsequent calls fail fast.
func (m *mconn) close() {
	m.mu.Lock()
	m.closed = true
	st := m.st
	m.mu.Unlock()
	if st != nil {
		m.fail(st, errClientClosed)
	}
}

// writeLoop drains the send queue into the socket, coalescing every frame
// already queued into one buffered flush (many pipelined requests per
// syscall).
func (m *mconn) writeLoop(st *wireState) {
	bw := bufio.NewWriterSize(st.conn, wireBufSize)
	for {
		select {
		case <-st.dead:
			return
		case buf := <-st.sendq:
			for {
				_, err := bw.Write(*buf)
				putBuf(buf)
				if err != nil {
					m.fail(st, m.transport(err))
					return
				}
				select {
				case buf = <-st.sendq:
					continue
				default:
				}
				break
			}
			if err := bw.Flush(); err != nil {
				m.fail(st, m.transport(err))
				return
			}
		}
	}
}

// readLoop reads response frames and hands each to its waiter by request
// id. Responses whose waiter has abandoned the slot (cancellation) are
// dropped on the floor — that is the entire cost of a cancelled request.
func (m *mconn) readLoop(st *wireState) {
	br := bufio.NewReaderSize(st.conn, wireBufSize)
	for {
		bufp := getBuf()
		body, err := readFrameBody(br, *bufp)
		*bufp = body // keep the (possibly re-grown) backing array pooled
		if err != nil {
			putBuf(bufp)
			m.fail(st, m.transport(err))
			return
		}
		id := binary.BigEndian.Uint64(body[:8])
		m.mu.Lock()
		p, ok := st.pending[id]
		if ok {
			delete(st.pending, id)
		}
		m.mu.Unlock()
		if !ok {
			putBuf(bufp)
			continue
		}
		p.ch <- result{buf: bufp}
	}
}

// transport wraps a connection-level failure as a transient fault.
func (m *mconn) transport(err error) error {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return errClientClosed
	}
	return dht.MarkTransient(fmt.Errorf("tcpnet: node %q unreachable: %w", m.addr, err))
}

// call performs one framed round trip: build encodes the request payload
// (called once per attempt, appending to a pooled frame). A transport
// failure is retried once on a fresh connection; context cancellation and
// server-level responses are returned as-is. The returned buffer is the
// response frame body (id+op+payload) and must be recycled with putBuf.
func (m *mconn) call(ctx context.Context, op dht.OpKind, build func([]byte) ([]byte, error)) (*[]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		body, err, retry := m.attempt(ctx, op, build)
		if err == nil {
			return body, nil
		}
		if !retry || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// attempt runs one send/receive cycle. retry reports whether the failure
// was transport-level on an established connection (worth one redial).
func (m *mconn) attempt(ctx context.Context, op dht.OpKind, build func([]byte) ([]byte, error)) (_ *[]byte, err error, retry bool) {
	m.mu.Lock()
	st, err := m.ensureLocked(ctx)
	if err != nil {
		m.mu.Unlock()
		return nil, err, false
	}
	id := st.nextID
	st.nextID++
	p := pendingPool.Get().(*pending)
	st.pending[id] = p
	if n := len(st.pending); n > m.hwm {
		m.hwm = n
	}
	m.mu.Unlock()

	bufp := newFrame(op)
	built, err := build(*bufp)
	if err != nil {
		// Encoding failed before anything hit the wire: unregister and
		// surface the caller's error (not a transport fault).
		putBuf(bufp)
		m.forget(st, id, p)
		return nil, err, false
	}
	*bufp = built
	finishFrame(*bufp, id)

	select {
	case st.sendq <- bufp:
	case <-st.dead:
		putBuf(bufp)
		m.forget(st, id, p)
		return nil, st.err, true
	case <-ctx.Done():
		putBuf(bufp)
		m.forget(st, id, p)
		return nil, ctx.Err(), false
	}

	select {
	case res := <-p.ch:
		pendingPool.Put(p)
		if res.err != nil {
			return nil, res.err, !errors.Is(res.err, errClientClosed)
		}
		return res.buf, nil, false
	case <-ctx.Done():
		m.forget(st, id, p)
		return nil, ctx.Err(), false
	}
}

// forget abandons a pending slot. If the reader (or fail) got there
// first, the delivered result is drained and recycled so the pooled
// pending is clean for its next user.
func (m *mconn) forget(st *wireState, id uint64, p *pending) {
	m.mu.Lock()
	_, mine := st.pending[id]
	if mine {
		delete(st.pending, id)
	}
	m.mu.Unlock()
	if !mine {
		res := <-p.ch
		if res.buf != nil {
			putBuf(res.buf)
		}
	}
	pendingPool.Put(p)
}

// maxInFlight reports the connection's in-flight high-water mark.
func (m *mconn) maxInFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hwm
}
