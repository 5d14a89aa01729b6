// Package netchaos is a deterministic, scriptable network fault injector
// for the real socket substrate: a net.Conn / dialer wrapper that can
// drop, delay, jitter, duplicate, throttle, black-hole, and
// asymmetrically partition individual links on a replayable schedule.
//
// A Chaos wraps a ContextDialer (plain net.Dialer by default) and is
// injected into a tcpnet client as its ClusterConfig.Dialer, so every
// connection the client opens — including the lazy redials its redial
// gate paces — passes through the plane. Faults are expressed as
// Rules: each names a destination address (the link, from this client's
// point of view), a time window relative to Start, an optional duty
// cycle for flapping, and an Effect. The schedule is a pure function of
// (rules, seed, elapsed time since Start): replaying the same rules with
// the same seed injects the same faults at the same offsets, which is
// what lets ablation A11 and the CI chaos job pin scenarios across runs.
//
// Effects compose the failure modes real deployments see:
//
//   - RefuseDial: new connections to the link fail immediately, like a
//     dead host with an RST-ing network stack.
//   - BlackholeDial: new connections hang until the dial context
//     expires, like a silently dropped SYN.
//   - DropConns: established connections are severed at the next I/O.
//   - Latency + Jitter: each write is delayed by Latency plus a seeded
//     uniform draw from [0, Jitter) — a slow node or congested link.
//   - ThrottleBps: writes are paced to the given bytes/sec.
//   - DropWrites: writes report success but nothing reaches the peer —
//     the outbound half of an asymmetric partition.
//   - DropReads: inbound data is withheld until the connection dies —
//     the inbound half (requests arrive, responses are lost).
//   - DupWrites: each write is sent twice, exercising duplicate
//     delivery of whole frames.
//
// A one-way partition is DropWrites or DropReads alone; a full
// partition is both (or RefuseDial+DropConns for the hard variant).
package netchaos

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ContextDialer is the dialing capability Chaos wraps; *net.Dialer
// implements it.
type ContextDialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// Effect is the set of faults active on one link while a rule holds.
// The zero Effect is "healthy".
type Effect struct {
	RefuseDial    bool          // new dials fail immediately
	BlackholeDial bool          // new dials hang until the context expires
	DropConns     bool          // established conns are severed at next I/O
	Latency       time.Duration // added to each write
	Jitter        time.Duration // seeded uniform extra [0, Jitter) per write
	ThrottleBps   int           // write bandwidth cap, bytes/sec (0 = none)
	DropWrites    bool          // writes succeed but are discarded (outbound partition)
	DropReads     bool          // inbound data withheld (inbound partition)
	DupWrites     bool          // every write is duplicated
}

// healthy reports whether the effect injects nothing.
func (e Effect) healthy() bool { return e == Effect{} }

// merge overlays o on e: booleans OR, durations and rates take the
// maximum, so overlapping rules stack to the harsher fault.
func (e Effect) merge(o Effect) Effect {
	e.RefuseDial = e.RefuseDial || o.RefuseDial
	e.BlackholeDial = e.BlackholeDial || o.BlackholeDial
	e.DropConns = e.DropConns || o.DropConns
	e.DropWrites = e.DropWrites || o.DropWrites
	e.DropReads = e.DropReads || o.DropReads
	e.DupWrites = e.DupWrites || o.DupWrites
	if o.Latency > e.Latency {
		e.Latency = o.Latency
	}
	if o.Jitter > e.Jitter {
		e.Jitter = o.Jitter
	}
	if o.ThrottleBps > 0 && (e.ThrottleBps == 0 || o.ThrottleBps < e.ThrottleBps) {
		e.ThrottleBps = o.ThrottleBps // tighter cap wins
	}
	return e
}

// Rule scopes an Effect to a link and a window of the schedule.
type Rule struct {
	// Addr is the destination address the rule applies to; empty means
	// every link.
	Addr string
	// From and Until bound the active window, as offsets from Start.
	// Until 0 means "forever".
	From, Until time.Duration
	// Period and Duty, when Period > 0, flap the rule: within its
	// window the rule is active only during the first Duty fraction of
	// each Period — a peer that is up, then gone, then up again, on a
	// deterministic clock.
	Period time.Duration
	Duty   float64
	Effect Effect
}

// active reports whether the rule applies at elapsed time t.
func (r Rule) active(t time.Duration) bool {
	if t < r.From {
		return false
	}
	if r.Until > 0 && t >= r.Until {
		return false
	}
	if r.Period > 0 {
		phase := (t - r.From) % r.Period
		if float64(phase) >= r.Duty*float64(r.Period) {
			return false
		}
	}
	return true
}

// Chaos is the injector. Create with New, add rules, inject as a
// tcpnet.ClusterConfig's Dialer (or use DialContext directly), then Start
// the schedule clock. Safe for concurrent use.
type Chaos struct {
	base ContextDialer

	mu      sync.Mutex
	rules   []Rule
	started bool
	start   time.Time
	seed    int64
	jitters map[string]*rand.Rand // per-link seeded jitter streams
	conns   map[*conn]struct{}    // live wrapped connections

	// now is the schedule clock, injectable for tests.
	now func() time.Time

	dialsRefused atomic.Int64
	writesLost   atomic.Int64
	writesDuped  atomic.Int64
}

// New returns a Chaos over the default net.Dialer. The seed drives every
// random draw (jitter); two Chaos with equal rules, seed, and Start
// produce identical fault schedules.
func New(seed int64) *Chaos {
	return NewWith(&net.Dialer{}, seed)
}

// NewWith wraps a specific underlying dialer.
func NewWith(base ContextDialer, seed int64) *Chaos {
	return &Chaos{
		base:    base,
		seed:    seed,
		jitters: make(map[string]*rand.Rand),
		conns:   make(map[*conn]struct{}),
		now:     time.Now,
	}
}

// Add appends a rule to the schedule. Rules may be added before or
// after Start; the schedule evaluates all of them on every operation.
func (c *Chaos) Add(rules ...Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules = append(c.rules, rules...)
}

// Clear removes all rules, healing every link (established connections
// that were severed stay severed; the next dial is clean).
func (c *Chaos) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules = nil
}

// Start begins the schedule clock: rule windows are measured from this
// instant. Before Start every link is healthy, so a client can be
// dialed and warmed deterministically before the chaos begins. Calling
// Start again rewinds the clock.
func (c *Chaos) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	c.start = c.now()
}

// elapsed returns the schedule time, or -1 before Start.
func (c *Chaos) elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return -1
	}
	return c.now().Sub(c.start)
}

// effect resolves the merged active effect for a link at schedule time t.
func (c *Chaos) effect(addr string) Effect {
	t := c.elapsed()
	if t < 0 {
		return Effect{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var e Effect
	for _, r := range c.rules {
		if r.Addr != "" && r.Addr != addr {
			continue
		}
		if r.active(t) {
			e = e.merge(r.Effect)
		}
	}
	return e
}

// jitterFor draws a deterministic jitter in [0, j) for the link: each
// link has its own rand stream derived from the seed, so the draw
// sequence per link is replayable regardless of cross-link
// interleaving.
func (c *Chaos) jitterFor(addr string, j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rng, ok := c.jitters[addr]
	if !ok {
		h := int64(0)
		for _, b := range []byte(addr) {
			h = h*131 + int64(b)
		}
		rng = rand.New(rand.NewSource(c.seed ^ h))
		c.jitters[addr] = rng
	}
	return time.Duration(rng.Int63n(int64(j)))
}

// DialsRefused reports dials the plane rejected or black-holed.
func (c *Chaos) DialsRefused() int64 { return c.dialsRefused.Load() }

// WritesLost reports writes discarded by DropWrites black-holing.
func (c *Chaos) WritesLost() int64 { return c.writesLost.Load() }

// WritesDuped reports writes duplicated by DupWrites.
func (c *Chaos) WritesDuped() int64 { return c.writesDuped.Load() }

// DialContext implements ContextDialer: it applies the link's dial
// effects, then wraps the resulting connection so per-operation effects
// apply for the connection's lifetime.
func (c *Chaos) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	e := c.effect(addr)
	if e.RefuseDial {
		c.dialsRefused.Add(1)
		return nil, fmt.Errorf("netchaos: dial %s refused by schedule", addr)
	}
	if e.BlackholeDial {
		c.dialsRefused.Add(1)
		<-ctx.Done()
		return nil, fmt.Errorf("netchaos: dial %s black-holed: %w", addr, ctx.Err())
	}
	inner, err := c.base.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	cc := &conn{Conn: inner, chaos: c, addr: addr}
	c.mu.Lock()
	c.conns[cc] = struct{}{}
	c.mu.Unlock()
	return cc, nil
}

// forget drops a closed connection from the live set.
func (c *Chaos) forget(cc *conn) {
	c.mu.Lock()
	delete(c.conns, cc)
	c.mu.Unlock()
}

// conn is one chaos-wrapped connection.
type conn struct {
	net.Conn
	chaos *Chaos
	addr  string

	severed atomic.Bool
	readDL  atomic.Int64 // read deadline, unix nanos; 0 = none
}

// SetDeadline mirrors the read half into the wrapper (so a reader parked
// in a DropReads window still observes it) before passing through.
func (cc *conn) SetDeadline(t time.Time) error {
	cc.storeReadDL(t)
	return cc.Conn.SetDeadline(t)
}

// SetReadDeadline mirrors the deadline into the wrapper before passing
// through.
func (cc *conn) SetReadDeadline(t time.Time) error {
	cc.storeReadDL(t)
	return cc.Conn.SetReadDeadline(t)
}

func (cc *conn) storeReadDL(t time.Time) {
	if t.IsZero() {
		cc.readDL.Store(0)
	} else {
		cc.readDL.Store(t.UnixNano())
	}
}

// readDeadlineExpired reports whether a read deadline is set and past.
func (cc *conn) readDeadlineExpired() bool {
	dl := cc.readDL.Load()
	return dl != 0 && !time.Now().Before(time.Unix(0, dl))
}

var errSevered = fmt.Errorf("netchaos: connection severed by schedule")

// apply resolves the link effect and handles connection-level faults;
// it returns the effect for the caller's per-op handling.
func (cc *conn) apply() (Effect, error) {
	if cc.severed.Load() {
		return Effect{}, errSevered
	}
	e := cc.chaos.effect(cc.addr)
	if e.DropConns {
		cc.severed.Store(true)
		_ = cc.Conn.Close()
		return Effect{}, errSevered
	}
	return e, nil
}

// Write applies latency, jitter, throttling, duplication and black-hole
// dropping before (or instead of) writing to the real connection.
func (cc *conn) Write(p []byte) (int, error) {
	e, err := cc.apply()
	if err != nil {
		return 0, err
	}
	if d := e.Latency + cc.chaos.jitterFor(cc.addr, e.Jitter); d > 0 {
		time.Sleep(d)
	}
	if e.ThrottleBps > 0 {
		// Pace the whole buffer at the cap; coarse but deterministic in
		// shape (sleep scales with bytes).
		time.Sleep(time.Duration(float64(len(p)) / float64(e.ThrottleBps) * float64(time.Second)))
	}
	if e.DropWrites {
		cc.chaos.writesLost.Add(1)
		return len(p), nil // swallowed by the void, reported as sent
	}
	if e.DupWrites {
		cc.chaos.writesDuped.Add(1)
		if n, err := cc.Conn.Write(p); err != nil {
			return n, err
		}
	}
	return cc.Conn.Write(p)
}

// Read withholds inbound data while DropReads holds: the caller blocks
// exactly as it would on a link whose return path is black-holed. The
// data is not consumed, so a window that ends releases the buffered
// stream intact — by then the requests it answers have typically been
// abandoned (their pending slots timed out), and the late responses are
// dropped by request-id correlation, which is precisely the asymmetric-
// partition behaviour the degradation machinery must survive.
//
// A parked reader still honours its read deadline (mirrored by the
// SetDeadline/SetReadDeadline wrappers): a black-holed return path makes
// reads time out, never hang past their budget — the handshake timeout
// on a half-open probe depends on exactly that.
func (cc *conn) Read(p []byte) (int, error) {
	for {
		e, err := cc.apply()
		if err != nil {
			return 0, err
		}
		if !e.DropReads {
			return cc.Conn.Read(p)
		}
		if cc.readDeadlineExpired() {
			return 0, &net.OpError{
				Op: "read", Net: "tcp",
				Source: cc.Conn.LocalAddr(), Addr: cc.Conn.RemoteAddr(),
				Err: os.ErrDeadlineExceeded,
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close unwraps and closes; it also marks the wrapper severed so a
// reader parked in a DropReads window unblocks instead of leaking.
func (cc *conn) Close() error {
	cc.severed.Store(true)
	cc.chaos.forget(cc)
	return cc.Conn.Close()
}
