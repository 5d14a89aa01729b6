package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"lht/internal/dht"
)

// mconn is one pipelined, multiplexed connection to a node. Any number of
// goroutines issue requests concurrently, and they do the connection's
// I/O themselves: no goroutine runs per connection, so an idle one holds
// none and a round trip hands nothing to another goroutine. With one
// caller at a time a round trip is that caller's write and read.
//
// A round trip is two halves, and call is the one followed by the other:
// send takes a request id, queues the frame and flushes the queue if
// nobody is flushing it; wait takes the reader token, or parks until the
// reply is in. A batch sends its frame to each of its nodes and then
// waits for each reply in turn, all on its caller's goroutine, so every
// node's frame is out before any reply is read. Between the halves the
// request is away: its caller may be waiting on another connection, so
// nobody hands it the reader token (handOff passes it over), or the
// callers parked behind it would wait for that other connection too.
//
// Writing: a caller appends its frame to the connection's write queue.
// If no flush is in progress it becomes the flusher and writes the queue
// itself, and every frame queued behind it while it writes — many
// pipelined requests per syscall. The queue is bounded: a caller that
// finds wireBufSize bytes queued behind a flush waits for the flusher to
// take them.
//
// Reading: one waiter at a time holds the reader token. It reads response
// frames and hands each to its waiter by request id, through a pending
// table; once its own reply is in, it leaves the token to a waiter still
// parked (leader/follower).
//
// Both duties run under a deadline, the earlier of the holder's context
// deadline and recheck from now, so a holder looks up at least that often:
// a cancelled one leaves, a reader finds a queue nobody is flushing. A
// deadline cuts nothing: the frame reader keeps the part of a frame it
// has read, and a flush cut short leaves its unwritten tail queued. A
// cancelled caller abandons its pending slot and walks away; the
// connection, and everyone else's in-flight requests, keep going, and the
// slot's id stays taken until the late reply to it is read and dropped. A
// socket error fails every request riding the connection, and a
// connection that died idle is found by the next call's I/O, which call's
// one retry on a fresh dial covers.
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
	gate   redialGate // lazy-redial cooldown
	closed bool
	hwm    int // high-water mark of in-flight requests, across generations
}

// wireState is one generation of an mconn's underlying connection: a
// fresh one is built per (re)dial, so a failure sweeps exactly the
// requests that were riding the broken socket. The mconn's mu guards it,
// except what only a duty holder touches (see fr and the deadlines).
type wireState struct {
	conn    net.Conn
	pending map[uint64]*pending // by request id; nil for an abandoned request whose reply is due
	free    []uint64            // ids whose requests are over, to hand out again, last freed first
	nextID  uint64              // the next new id, for when none is free
	failed  bool

	queue   []byte     // frames queued and not yet taken by a flusher
	spare   []byte     // the buffer the last flush wrote, reused for the queue
	full    []*pending // callers waiting for room in the queue
	flusher *pending   // the caller writing the queue out; nil when none
	reader  *pending   // the caller holding the reader token; nil when none

	fr  frameReader // the reader token holder's alone
	rdl time.Time   // the read deadline last set, the token holder's alone
	wdl time.Time   // the write deadline last set, the flusher's alone
}

// pending is one in-flight request's rendezvous, guarded by the mconn's
// mu. sent is set once its frame is queued; away while its caller, having
// sent it, has not yet come to wait for it; done is set once, with res,
// by the reader that read its reply or by fail. wake nudges its waiter to
// look again — its reply is in, or there is a duty it may take — and
// every waiter looks again under the lock before it parks, so a nudge is
// never lost and a stray one is harmless: the struct is pooled and reused
// across requests.
type pending struct {
	wake chan struct{}
	sent bool
	away bool
	done bool
	res  result
}

// result carries a response frame body (a pooled buffer the waiter must
// recycle) or the connection failure that ended the wait.
type result struct {
	buf *[]byte
	err error
}

var pendingPool = sync.Pool{New: func() any { return &pending{wake: make(chan struct{}, 1)} }}

// nudge wakes p's waiter if it is parked, or makes its next park return
// at once.
func (p *pending) nudge() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// wireBufSize sizes the per-connection read buffer and bounds the write
// queue: large enough to coalesce dozens of pipelined frames per syscall.
const wireBufSize = 64 << 10

// recheck is the longest a duty holder stays in one socket call: the
// flusher's write and the reader's read run under a deadline no later.
const recheck = 20 * time.Millisecond

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
		pending: make(map[uint64]*pending),
		nextID:  1,
		fr:      frameReader{br: bufio.NewReaderSize(conn, wireBufSize)},
	}
	m.st = st
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
	frame := newFrame(0, dht.OpPing)
	off := finishFrame(*frame)
	msg := append([]byte(wireMagic), (*frame)[off:]...)
	_, err := conn.Write(msg)
	putBuf(frame)
	if err != nil {
		return err
	}
	fr := frameReader{br: bufio.NewReaderSize(conn, 256)}
	_, body, err := fr.next()
	if err != nil {
		return err
	}
	defer putBuf(body)
	if fr.br.Buffered() != 0 {
		return fmt.Errorf("unexpected bytes after ping response")
	}
	c := cursor{b: *body}
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
	if m.st == st {
		m.st = nil
	}
	for _, p := range st.pending {
		if p != nil {
			p.done, p.res = true, result{err: err}
			p.nudge()
		}
	}
	st.pending = nil
	st.queue, st.spare, st.full = nil, nil, nil
	m.mu.Unlock()
	_ = st.conn.Close()
}

// close shuts the connection down for good; subsequent calls fail fast.
// Closing the socket unblocks a caller parked in its read or write.
func (m *mconn) close() {
	m.mu.Lock()
	m.closed = true
	st := m.st
	m.mu.Unlock()
	if st != nil {
		m.fail(st, errClientClosed)
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

// call performs one framed round trip: send, then wait. build encodes
// the request payload, appending to a pooled frame, once per attempt. The
// returned buffer is the reply frame's body (status + payload) and must
// be recycled with putBuf.
func (m *mconn) call(ctx context.Context, op dht.OpKind, build func([]byte) ([]byte, error)) (*[]byte, error) {
	t, err := m.send(ctx, op, build)
	if err != nil {
		return nil, err
	}
	return m.wait(ctx, t, op, build)
}

// ticket is a request whose frame send has queued, for wait to take up.
type ticket struct {
	st *wireState
	id uint64
	p  *pending
}

// send takes a slot for a request, queues its frame, built by build, and
// flushes the queue if nobody is flushing it; it reads nothing. The
// request is away from then until wait takes it up, and nobody hands it
// the reader token meanwhile. A failure before the frame is queued — the
// context, the dial, build's error — or a context that ends during the
// flush gives the slot up and is returned; a connection that fails once
// the slot is taken is wait's to report.
func (m *mconn) send(ctx context.Context, op dht.OpKind, build func([]byte) ([]byte, error)) (ticket, error) {
	if err := ctx.Err(); err != nil {
		return ticket{}, err
	}
	m.mu.Lock()
	st, err := m.ensureLocked(ctx)
	if err != nil {
		m.mu.Unlock()
		return ticket{}, err
	}
	id := st.takeID()
	p := pendingPool.Get().(*pending)
	st.pending[id] = p
	if n := len(st.pending); n > m.hwm {
		m.hwm = n
	}
	m.mu.Unlock()

	bufp := newFrame(id, op)
	built, err := build(*bufp)
	*bufp = built
	if err == nil && len(built)-lenReserve > maxFrameLen {
		err = errFrameTooLarge
	}
	if err != nil {
		// Encoding failed before anything hit the wire: unregister and
		// surface the caller's error (not a transport fault).
		putBuf(bufp)
		m.mu.Lock()
		m.leave(st, id, p)
		return ticket{}, err
	}
	frame := built[finishFrame(built):]

	m.mu.Lock()
	for !p.sent && !p.done && err == nil {
		if st.flusher != nil && len(st.queue) >= wireBufSize {
			st.full = append(st.full, p)
			err = m.park(ctx, p)
		} else {
			st.queue = append(st.queue, frame...)
			p.sent = true
		}
	}
	putBuf(bufp)
	if p.sent && st.flusher == nil {
		_, err = m.flush(ctx, st, p)
	}
	if err != nil {
		m.leave(st, id, p)
		return ticket{}, err
	}
	p.away = true
	m.mu.Unlock()
	return ticket{st, id, p}, nil
}

// wait takes up t and returns its reply. A transport failure on an
// established connection is retried once while ctx lives: the request,
// built again by build, is sent on a fresh dial and waited for. Context
// cancellation and server-level responses are returned as they are.
func (m *mconn) wait(ctx context.Context, t ticket, op dht.OpKind, build func([]byte) ([]byte, error)) (*[]byte, error) {
	body, err, retry := m.await(ctx, t)
	if retry && ctx.Err() == nil {
		if t, err = m.send(ctx, op, build); err != nil {
			return nil, err
		}
		body, err, _ = m.await(ctx, t)
	}
	return body, err
}

// await waits for t's reply, taking on the connection's I/O — the flush
// of the queue, the reader token — whenever nobody else holds it, until
// the reply is in or ctx ends, and gives t's slot up. retry reports a
// failure at the transport on an established connection (worth one
// redial).
func (m *mconn) await(ctx context.Context, t ticket) (_ *[]byte, err error, retry bool) {
	st, p := t.st, t.p
	m.mu.Lock()
	p.away = false
	stalled := false // the last flush ran out of recheck with ctx alive
	for !p.done && err == nil {
		switch {
		case len(st.queue) > 0 && st.flusher == nil && !stalled:
			stalled, err = m.flush(ctx, st, p)
		case st.reader == nil:
			// After a stalled flush, read before writing again: the node
			// may have stopped reading until its replies are read.
			stalled = false
			st.reader = p
			m.mu.Unlock()
			err = m.read(ctx, st, p)
			m.mu.Lock()
			st.reader = nil
		default:
			stalled = false
			err = m.park(ctx, p)
		}
	}
	res := p.res
	m.leave(st, t.id, p)
	if res.buf != nil {
		return res.buf, nil, false
	}
	if res.err != nil {
		return nil, res.err, !errors.Is(res.err, errClientClosed)
	}
	return nil, err, false
}

// takeID hands out a request id: the one freed last, or a new one when
// none is free. Called with m.mu held.
func (st *wireState) takeID() uint64 {
	if n := len(st.free); n > 0 {
		id := st.free[n-1]
		st.free = st.free[:n-1]
		return id
	}
	st.nextID++
	return st.nextID - 1
}

// leave unregisters p, recycles it and releases m.mu. A p that gave up
// before its reply came in keeps its id taken if its frame was queued: the
// reply is still due, and deliver drops it on the floor and frees the id —
// that is the entire cost of a cancelled request. An id whose frame never
// was queued is freed at once. Whatever duty nobody holds now goes to a
// waiter still parked.
func (m *mconn) leave(st *wireState, id uint64, p *pending) {
	switch {
	case p.done: // deliver freed the id, or the connection failed
	case p.sent:
		st.pending[id] = nil // st.full may still hold p: a stray nudge is harmless
	default:
		delete(st.pending, id)
		st.free = append(st.free, id)
	}
	m.handOff(st)
	m.mu.Unlock()
	p.sent, p.done, p.away, p.res = false, false, false, result{}
	pendingPool.Put(p)
}

// handOff nudges one parked waiter whose frame is queued when the reader
// token is free or the queue has no flusher, so that it takes them on. A
// request that is away is passed over: its caller is busy elsewhere, and
// a duty handed to it would wait for it while the parked ones stall.
// Called with m.mu held.
func (m *mconn) handOff(st *wireState) {
	if st.reader != nil && (st.flusher != nil || len(st.queue) == 0) {
		return
	}
	for _, q := range st.pending {
		if q != nil && q.sent && !q.away && q != st.reader && q != st.flusher {
			q.nudge()
			return
		}
	}
}

// park waits, with m.mu released, for p's nudge or the end of ctx.
func (m *mconn) park(ctx context.Context, p *pending) (err error) {
	m.mu.Unlock()
	select {
	case <-p.wake:
	case <-ctx.Done():
		err = ctx.Err()
	}
	m.mu.Lock()
	return err
}

// flush writes the queue out as p, and whatever is queued behind it while
// it writes, until the queue is empty, ctx ends (its error is returned)
// or a write runs out of recheck (stalled). A write cut short puts its
// unwritten tail back at the head of the queue. Called and returns with
// m.mu held.
func (m *mconn) flush(ctx context.Context, st *wireState, p *pending) (stalled bool, err error) {
	st.flusher = p
	for len(st.queue) > 0 && !st.failed {
		buf := st.queue
		st.queue, st.spare = st.spare[:0], nil
		wakeFull(st)
		m.mu.Unlock()
		if dl, set := ioDeadline(ctx, st.wdl); set {
			_ = st.conn.SetWriteDeadline(dl)
			st.wdl = dl
		}
		n, werr := st.conn.Write(buf)
		if werr != nil && !errors.Is(werr, os.ErrDeadlineExceeded) {
			m.fail(st, m.transport(werr))
			m.mu.Lock()
			break
		}
		m.mu.Lock()
		if werr == nil {
			if cap(buf) <= maxPooledBuf {
				st.spare = buf[:0]
			}
			continue
		}
		if st.failed {
			break
		}
		rest := append(buf[:0], buf[n:]...)
		st.queue, st.spare = append(rest, st.queue...), st.queue[:0]
		err = ctxDone(ctx)
		stalled = err == nil
		break
	}
	st.flusher = nil
	wakeFull(st)
	return stalled, err
}

// wakeFull nudges the callers waiting for room in the queue: it has room
// now. Called with m.mu held.
func wakeFull(st *wireState) {
	for _, q := range st.full {
		q.nudge()
	}
	clear(st.full)
	st.full = st.full[:0]
}

// read holds the reader token for p: it reads reply frames and hands each
// to its waiter until p's own is in, then hands over the replies already
// buffered too, which costs no syscall. It also returns when a read runs
// out of recheck, with nil, so that its caller looks around, and when ctx
// ends, with ctx's error; a socket error fails the connection. Called
// without m.mu.
func (m *mconn) read(ctx context.Context, st *wireState, p *pending) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if dl, set := ioDeadline(ctx, st.rdl); set {
			_ = st.conn.SetReadDeadline(dl)
			st.rdl = dl
		}
		id, body, err := st.fr.next()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return ctxDone(ctx)
		}
		if err != nil {
			st.fr.drop()
			m.fail(st, m.transport(err))
			return nil
		}
		if m.deliver(st, frameID(id), body, p) != p {
			continue
		}
		for st.fr.ready() {
			id, body, err := st.fr.next()
			if err != nil {
				st.fr.drop()
				m.fail(st, m.transport(err))
				return nil
			}
			m.deliver(st, frameID(id), body, p)
		}
		return nil
	}
}

// deliver hands request id's reply to its waiter, nudging it unless it is
// the reader, frees the id and returns that waiter; nil when it has
// abandoned its slot, or the id is none of the connection's, and the
// reply is dropped.
func (m *mconn) deliver(st *wireState, id uint64, body *[]byte, reader *pending) *pending {
	m.mu.Lock()
	q, ok := st.pending[id]
	if ok {
		delete(st.pending, id)
		st.free = append(st.free, id)
	}
	if q != nil {
		q.done, q.res = true, result{buf: body}
		if q != reader {
			q.nudge()
		}
	}
	m.mu.Unlock()
	if q == nil {
		putBuf(body)
	}
	return q
}

// ioDeadline returns the deadline a duty done for ctx runs under — the
// earlier of ctx's deadline and recheck from now — given the one last set
// (cur), and whether it must be set. A deadline past half of recheck from
// now is kept, so a run of round trips does not set one each.
func ioDeadline(ctx context.Context, cur time.Time) (time.Time, bool) {
	now := time.Now()
	dl := now.Add(recheck)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		return d, !d.Equal(cur)
	}
	if cur.After(now.Add(recheck/2)) && !cur.After(dl) {
		return cur, false
	}
	return dl, true
}

// ctxDone is ctx's error once a socket deadline expired: nil while ctx
// lives on, and once ctx's own deadline has passed, ctx's error when its
// timer fires, which can be a moment after the socket's.
func ctxDone(ctx context.Context) error {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		<-ctx.Done()
	}
	return ctx.Err()
}

// maxInFlight reports the connection's in-flight high-water mark.
func (m *mconn) maxInFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hwm
}
