package tcpnet

// Graceful degradation for the cluster client: a pluggable dialer (the
// injection point for the netchaos plane), the redial gate, and
// per-operation deadline budgets for replica failover. Hedged reads
// (dht.WithHedging) race a slow holder from above the client.
//
// The redial gate is a node's one failure memory. A failed dial or
// handshake backs the node's redials off for a short, jittered,
// exponentially growing window, during which every operation against it
// fails instantly with a transient error — so a replicated read moves
// straight to the next holder, and a dead primary costs microseconds, not
// a timeout. On a cluster client the same failure marks the member
// suspect in the client's view, which spreads the doubt on the next
// gossip exchange; a refreshed view that reports the member alive again
// at a newer incarnation resets its gates (RefreshView).

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"lht/internal/dht"
)

// ContextDialer is the pluggable transport factory: anything with
// net.Dialer's DialContext shape. The netchaos package's Chaos type
// implements it, which is how fault schedules are injected under a real
// client without touching the servers.
type ContextDialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// dialWith dials through d, falling back to a plain net.Dialer. It
// rejects TCP self-connects: dialing a dead node whose port fell back
// into the ephemeral range can make the kernel pick that same port as
// the source, yielding a socket connected to itself — the handshake
// would then read back its own magic and hang instead of failing fast.
func dialWith(ctx context.Context, d ContextDialer, addr string) (net.Conn, error) {
	var conn net.Conn
	var err error
	if d != nil {
		conn, err = d.DialContext(ctx, "tcp", addr)
	} else {
		var nd net.Dialer
		conn, err = nd.DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	if la, ra := conn.LocalAddr(), conn.RemoteAddr(); la != nil && ra != nil && la.String() == ra.String() {
		_ = conn.Close()
		return nil, fmt.Errorf("tcpnet: dial %q: self-connect", addr)
	}
	return conn, nil
}

// Redial backoff bounds: the first failed dial backs subsequent attempts
// off for ~dialBackoffBase, doubling per consecutive failure up to
// dialBackoffMax, jittered over [d/2, d).
const (
	dialBackoffBase = 5 * time.Millisecond
	dialBackoffMax  = 250 * time.Millisecond
)

// redialGate is the lazy-redial cooldown a connection consults before
// dialing: a dead node costs one dial per backoff window, not one
// per operation. All methods must be called under the owning
// connection's lock.
type redialGate struct {
	fails   int       // consecutive dial/handshake failures
	next    time.Time // earliest next dial attempt
	lastErr error
	// suspect marks a cluster client's member suspect (nil for a gossip
	// peer). failure calls it under the connection's lock: the lock order
	// is the connection's, then the client's viewMu.
	suspect func()
}

// check reports whether a dial may proceed now, returning the fast-fail
// error when the gate is closed.
func (g *redialGate) check(addr string) error {
	if g.fails > 0 && time.Now().Before(g.next) {
		return dht.MarkTransient(fmt.Errorf(
			"tcpnet: dial %q backing off after %d failures: %w", addr, g.fails, g.lastErr))
	}
	return nil
}

// failure records a failed dial or handshake, schedules the next
// attempt window, and reports the node suspect.
func (g *redialGate) failure(err error) {
	g.fails++
	g.lastErr = err
	d := dialBackoffBase << (g.fails - 1)
	if g.fails > 16 || d > dialBackoffMax || d <= 0 {
		d = dialBackoffMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	g.next = time.Now().Add(d)
	if g.suspect != nil {
		g.suspect()
	}
}

// success resets the gate after a healthy dial.
func (g *redialGate) success() {
	g.fails = 0
	g.lastErr = nil
}

// revive resets the gate of every connection of n, so the next operation
// dials at once: the view has newer evidence that the node is back than
// the gate's failures. A dial in flight holds its connection's lock, and
// revive waits it out.
func (n *clientNode) revive() {
	for _, m := range n.conns {
		m.mu.Lock()
		m.gate.success()
		m.mu.Unlock()
	}
}

// stepCtx splits the caller's remaining deadline budget evenly over the
// remaining failover steps: with 3 holders left and 300ms on the clock,
// the next attempt gets 100ms, so one black-holed holder can never eat
// the budget the caller meant for the whole read. Without a deadline
// (or on the final step) the context passes through untouched.
func stepCtx(ctx context.Context, stepsLeft int) (context.Context, context.CancelFunc) {
	if stepsLeft <= 1 {
		return ctx, func() {}
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, time.Now().Add(rem/time.Duration(stepsLeft)))
}

// verifyDegraded probes every node concurrently like verifyAll, but a
// dead node does not fail the construction: its failed connect has
// already backed its gate off and marked it suspect, so it fails fast
// until a later dial finds it back and adopts it. Construction fails only
// if no node at all is reachable.
func (c *Client) verifyDegraded(ctx context.Context) error {
	var (
		mu   sync.Mutex
		up   int
		last error
		wg   sync.WaitGroup
	)
	for _, n := range c.ringNodes() {
		wg.Add(1)
		go func(n *clientNode) {
			defer wg.Done()
			err := n.conns[0].connect(ctx) // dials and pings
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				up++
			} else {
				last = err
			}
		}(n)
	}
	wg.Wait()
	if up == 0 {
		return fmt.Errorf("tcpnet: degraded start: no reachable nodes: %w", last)
	}
	return nil
}
