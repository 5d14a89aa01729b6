package tcpnet

// Graceful degradation for the cluster client: per-node circuit breakers
// over the shared dht.Breaker state machine, a pluggable dialer (the
// injection point for the netchaos plane), redial backoff, and
// per-operation deadline budgets for replica failover.
//
// The health plane is opt-in (ClusterConfig.Health): without it the client keeps
// its original contract — every operation attempts its node, transport
// faults are transient, and the policy layer above owns all pacing. With
// it, each node gets a breaker: a run of consecutive transport failures
// opens the node for a capped, jittered, exponentially growing cooldown
// during which every operation against it fails instantly with a typed
// *dht.UnavailableError (still transient, so retry loops keep working);
// the first operation after the cooldown is admitted as the half-open
// probe whose dial + handshake ping decides recovery. Replicated reads
// treat the fast-fail as an immediate failover signal — an open primary
// costs microseconds, not a timeout, before the read moves to the next
// holder.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"lht/internal/dht"
	"lht/internal/metrics"
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

// Redial backoff bounds for connections without a breaker: the first
// failed dial backs subsequent attempts off for ~dialBackoffBase,
// doubling per consecutive failure up to dialBackoffMax, jittered over
// [d/2, d). With a breaker the breaker's own (longer, also jittered)
// open window is the shared cooldown instead.
const (
	dialBackoffBase = 5 * time.Millisecond
	dialBackoffMax  = 250 * time.Millisecond
)

// redialGate is the lazy-redial cooldown a connection consults before
// dialing: a dead node costs one dial per backoff window, not one
// per operation. All methods must be called under the owning
// connection's lock.
type redialGate struct {
	br      *dht.Breaker // shared per-node breaker; nil below the health plane
	fails   int          // consecutive dial/handshake failures
	next    time.Time    // earliest next dial attempt
	lastErr error
}

// check reports whether a dial may proceed now, returning the fast-fail
// error when the gate is closed.
func (g *redialGate) check(addr string) error {
	if g.br != nil {
		if _, backing := g.br.Backoff(); backing {
			return g.br.Unavailable(addr)
		}
		return nil
	}
	if g.fails > 0 && time.Now().Before(g.next) {
		return dht.MarkTransient(fmt.Errorf(
			"tcpnet: dial %q backing off after %d failures: %w", addr, g.fails, g.lastErr))
	}
	return nil
}

// failure records a failed dial or handshake and schedules the next
// attempt window.
func (g *redialGate) failure(err error) {
	g.fails++
	g.lastErr = err
	d := dialBackoffBase << (g.fails - 1)
	if g.fails > 16 || d > dialBackoffMax || d <= 0 {
		d = dialBackoffMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	g.next = time.Now().Add(d)
}

// success resets the gate after a healthy dial.
func (g *redialGate) success() {
	g.fails = 0
	g.lastErr = nil
}

// minTimeoutCharge is the least wall-clock an attempt must have consumed
// before its context.DeadlineExceeded counts against the node's breaker.
// A caller whose deadline was already (nearly) spent on entry times out
// in microseconds through no fault of the node, and a burst of such
// calls must not trip breakers on healthy peers.
const minTimeoutCharge = 5 * time.Millisecond

// opToken is what allow returns for an admitted operation: whether this
// operation holds the breaker's single half-open probe slot, and when it
// was admitted. record needs both to classify the outcome.
type opToken struct {
	probe bool
	start time.Time
}

// allow is the health gate every per-node operation passes: it admits
// without the health plane or through a closed breaker, and returns the
// typed fast-fail when the node's breaker is open. Allow itself claims
// the half-open probe slot, so the first operation after a cooldown IS
// the probe — the token records that so record can settle the slot.
func (n *clientNode) allow() (opToken, error) {
	if n.br == nil {
		return opToken{}, nil
	}
	ok, probe := n.br.AllowProbe()
	if !ok {
		n.counters.Add(metrics.BreakerFastFails, 1)
		return opToken{}, n.br.Unavailable(n.addr)
	}
	return opToken{probe: probe, start: time.Now()}, nil
}

// record feeds one finished operation's outcome to the node's breaker.
// The classification is deliberate:
//
//   - nil, ErrNotFound, CAS conflicts, and other server-level errors are
//     successes — the node answered;
//   - transport faults (dht.IsTransient) are failures;
//   - context.DeadlineExceeded is a failure only when the attempt ran
//     for at least minTimeoutCharge: a black-holed node never answers,
//     so the deadline expiring while waiting on it is the only signal it
//     gives — but a caller whose own deadline was already (nearly) spent
//     on entry says nothing about the node;
//   - context.Canceled is neutral — a hedge losing its race or a caller
//     walking away says nothing about the node;
//   - our own breaker fast-fails and client-closed are neutral: no
//     contact was made.
//
// A neutral outcome on the operation holding the half-open probe slot
// relinquishes it (Breaker.CancelProbe): the hedger cancels its losing
// arm, and if that arm was the probe, keeping the slot claimed would
// wedge the breaker half-open forever — no later operation could ever be
// admitted to close or re-open it.
func (n *clientNode) record(tok opToken, err error) {
	if n.br == nil {
		return
	}
	neutral := false
	switch {
	case err == nil:
		n.br.Success()
	case errors.Is(err, context.Canceled),
		errors.Is(err, errClientClosed),
		dht.IsUnavailable(err):
		neutral = true
	case errors.Is(err, context.DeadlineExceeded):
		if time.Since(tok.start) < minTimeoutCharge {
			neutral = true
		} else {
			n.br.Failure(err)
		}
	case dht.IsTransient(err):
		n.br.Failure(err)
	default:
		n.br.Success()
	}
	if neutral && tok.probe {
		n.br.CancelProbe()
	}
}

// Health reports the breaker state for one node address, or
// BreakerClosed when the health plane is off. Exposed for tests and
// operational introspection.
func (c *Client) Health(addr string) dht.BreakerState {
	for _, n := range c.ringNodes() {
		if n.addr == addr && n.br != nil {
			return n.br.State()
		}
	}
	return dht.BreakerClosed
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

// verifyDegraded probes every node concurrently like DialContext's
// strict path, but instead of failing the construction on the first dead
// node it trips that node's breaker — the node starts open, fails fast,
// and is adopted by the first successful half-open probe after it comes
// back. Construction fails only if no node at all is reachable.
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
				return
			}
			last = err
			n.br.Trip(err)
		}(n)
	}
	wg.Wait()
	if up == 0 {
		return fmt.Errorf("tcpnet: degraded start: no reachable nodes: %w", last)
	}
	return nil
}
