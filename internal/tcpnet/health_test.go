package tcpnet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lht/internal/dht"
	"lht/internal/metrics"
)

// countingDialer wraps base (nil: the default dialer) and counts dial
// attempts, so tests can observe how often the client actually hits the
// network.
type countingDialer struct {
	base  ContextDialer
	dials atomic.Int64
	fail  atomic.Bool // refuse every dial when set
}

func (d *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.dials.Add(1)
	if d.fail.Load() {
		return nil, errors.New("dial refused by test dialer")
	}
	return dialWith(ctx, d.base, addr)
}

// TestBreakerOpensAndFastFails: a run of transport failures against one
// node trips its breaker; further operations fail instantly with the
// typed *dht.UnavailableError (still transient), and the counters
// record the open and the fast-fails.
func TestBreakerOpensAndFastFails(t *testing.T) {
	addrs, srvs := startServerMap(t, 1)
	agg := &metrics.Counters{}
	c, err := Dial(context.Background(), ClusterConfig{
		Seeds:    addrs,
		Counters: agg,
		Health:   &dht.BreakerConfig{Threshold: 2, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	if err := c.Put(ctx, "k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if got := c.Health(addrs[0]); got != dht.BreakerClosed {
		t.Fatalf("healthy node breaker = %v", got)
	}
	_ = srvs[addrs[0]].Close()

	// Two transport failures reach the threshold.
	for i := 0; i < 2; i++ {
		if _, err := c.Get(ctx, "k"); err == nil {
			t.Fatal("Get against a killed server succeeded")
		}
	}
	if got := c.Health(addrs[0]); got != dht.BreakerOpen {
		t.Fatalf("breaker after threshold failures = %v, want open", got)
	}

	_, err = c.Get(ctx, "k")
	if !dht.IsUnavailable(err) {
		t.Fatalf("open-breaker Get = %v, want *dht.UnavailableError", err)
	}
	if !dht.IsTransient(err) {
		t.Fatal("fast-fail must stay transient so retry loops keep working")
	}
	if errors.Is(err, dht.ErrNotFound) {
		t.Fatal("fast-fail mislabelled as a missing key")
	}
	f := agg.Snapshot()
	if f.Health.BreakerOpens != 1 || f.Health.BreakerFastFails < 1 {
		t.Fatalf("BreakerOpens=%d BreakerFastFails=%d, want 1/>=1", f.Health.BreakerOpens, f.Health.BreakerFastFails)
	}
	// Writes surface the same typed unavailability.
	if err := c.Put(ctx, "k2", []byte("2")); !dht.IsUnavailable(err) {
		t.Fatalf("open-breaker Put = %v, want *dht.UnavailableError", err)
	}
}

// flipProxy fronts a live server with a listener the test fully
// controls: in reject mode it kills existing links and closes every new
// accept on sight (a node that is down), in forward mode it pipes bytes
// to the backend (the node recovered). Failing and recovering a node
// this way keeps the advertised port bound for the whole test, so no
// assertion depends on re-binding a freed ephemeral port — which this
// kernel happily hands to the next outgoing connection, yielding
// self-connects and EADDRINUSE flakes.
type flipProxy struct {
	ln      net.Listener
	backend string

	mu     sync.Mutex
	reject bool
	conns  map[net.Conn]struct{}
}

func newFlipProxy(t *testing.T, backend string, reject bool) *flipProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flipProxy{ln: ln, backend: backend, reject: reject, conns: map[net.Conn]struct{}{}}
	go p.serve()
	t.Cleanup(func() {
		_ = ln.Close()
		p.setReject(true)
	})
	return p
}

func (p *flipProxy) addr() string { return p.ln.Addr().String() }

// setReject flips the proxy's mode; entering reject mode severs every
// established link so pooled client connections fail like the node died.
func (p *flipProxy) setReject(reject bool) {
	p.mu.Lock()
	p.reject = reject
	var doomed []net.Conn
	if reject {
		for c := range p.conns {
			doomed = append(doomed, c)
		}
		p.conns = map[net.Conn]struct{}{}
	}
	p.mu.Unlock()
	for _, c := range doomed {
		_ = c.Close()
	}
}

func (p *flipProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		rej := p.reject
		if !rej {
			p.conns[c] = struct{}{}
		}
		p.mu.Unlock()
		if rej {
			_ = c.Close()
			continue
		}
		go p.pipe(c)
	}
}

func (p *flipProxy) pipe(c net.Conn) {
	b, err := net.Dial("tcp", p.backend)
	if err != nil {
		_ = c.Close()
		return
	}
	p.mu.Lock()
	p.conns[b] = struct{}{}
	p.mu.Unlock()
	go func() {
		_, _ = io.Copy(b, c)
		_ = b.Close()
	}()
	_, _ = io.Copy(c, b)
	_ = c.Close()
	_ = b.Close()
}

// TestBreakerHalfOpenProbeRecoversClient: after the cooldown the first
// operation is admitted as the probe; with the server back, it succeeds
// and closes the breaker for everyone.
func TestBreakerHalfOpenProbeRecoversClient(t *testing.T) {
	backends, _ := startServerMap(t, 1)
	p := newFlipProxy(t, backends[0], false)
	addr := p.addr()

	c, err := Dial(context.Background(), ClusterConfig{
		Seeds:  []string{addr},
		Health: &dht.BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond, MaxCooldown: 60 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("1")); err != nil {
		t.Fatal(err)
	}

	p.setReject(true)
	if _, err := c.Get(ctx, "k"); err == nil {
		t.Fatal("Get through a severed node succeeded")
	}
	if got := c.Health(addr); got != dht.BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}

	p.setReject(false)

	// Within a few cooldown windows an operation must be admitted as the
	// half-open probe, find the node back, and close the breaker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, err := c.Get(ctx, "k"); err == nil && string(v.([]byte)) == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered through the half-open probe")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Health(addr); got != dht.BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", got)
	}
}

// TestOpenHolderFailsOverImmediately: with replication, a holder whose
// breaker is open costs the read a few microseconds before it moves to
// the next holder — never a timeout — and the failover counter records
// the reroute.
func TestOpenHolderFailsOverImmediately(t *testing.T) {
	addrs, srvs := startServerMap(t, 4)
	agg := &metrics.Counters{}
	c, err := Dial(context.Background(), ClusterConfig{
		Seeds:    addrs,
		Replicas: 2,
		Counters: agg,
		Health:   &dht.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	const key = "failover-key"
	if err := c.Put(ctx, key, []byte("7")); err != nil {
		t.Fatal(err)
	}
	primary := c.holders(key)[0]
	_ = srvs[primary.addr].Close()

	// The first read trips the primary's breaker (reads start there) and
	// falls back to the secondary — it must still succeed.
	v, err := c.Get(ctx, key)
	if err != nil || string(v.([]byte)) != "7" {
		t.Fatalf("Get with dead primary = %v, %v", v, err)
	}
	if got := c.Health(primary.addr); got != dht.BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", got)
	}

	// With the breaker open, reads keep succeeding and the dead holder
	// costs microseconds, not dial timeouts: 50 reads must finish far
	// inside what even one connect timeout would burn.
	start := time.Now()
	for i := 0; i < 50; i++ {
		if v, err := c.Get(ctx, key); err != nil || string(v.([]byte)) != "7" {
			t.Fatalf("read %d = %v, %v", i, v, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("50 reads through an open holder took %v", d)
	}
	if f := agg.Snapshot(); f.Health.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1", f.Health.Failovers)
	}
}

// TestDegradedStartAdoptsRecoveredNode is the degraded-dial satellite:
// Dial fails hard if any node is down; with
// ClusterConfig.DegradedStart the client comes up with the dead node's breaker
// open, keys it owns fail fast with the typed error, and the node is
// adopted once a half-open probe finds it recovered.
func TestDegradedStartAdoptsRecoveredNode(t *testing.T) {
	backends, _ := startServerMap(t, 2)
	p := newFlipProxy(t, backends[1], true) // node B starts down
	addrs := []string{backends[0], p.addr()}
	dead := p.addr()

	// The strict dial contract is unchanged: without the option, one
	// dead node still fails construction.
	if _, err := Dial(context.Background(), ClusterConfig{Seeds: addrs}); err == nil {
		t.Fatal("strict Dial succeeded with a dead node")
	}

	c, err := Dial(context.Background(), ClusterConfig{
		Seeds:         addrs,
		DegradedStart: true,
		Health:        &dht.BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond, MaxCooldown: 60 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("degraded Dial = %v, want a working client", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if got := c.Health(dead); got != dht.BreakerOpen {
		t.Fatalf("dead node breaker = %v, want open at start", got)
	}
	ctx := context.Background()

	// Find a key owned by each node: live-owned keys work immediately,
	// dead-owned keys fail fast with the typed error.
	var liveKey, deadKey string
	for i := 0; liveKey == "" || deadKey == ""; i++ {
		k := "probe-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if c.holders(k)[0].addr == dead {
			deadKey = k
		} else {
			liveKey = k
		}
	}
	if err := c.Put(ctx, liveKey, []byte("1")); err != nil {
		t.Fatalf("Put on live node = %v", err)
	}
	if err := c.Put(ctx, deadKey, []byte("2")); !dht.IsUnavailable(err) {
		t.Fatalf("Put on dead node = %v, want *dht.UnavailableError", err)
	}

	// Bring the dead node back; the next probes must adopt it.
	p.setReject(false)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Put(ctx, deadKey, []byte("2")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered node was never adopted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Health(dead); got != dht.BreakerClosed {
		t.Fatalf("adopted node breaker = %v, want closed", got)
	}
}

// TestCancelledProbeDoesNotWedgeBreaker pins the hedger-vs-breaker
// interaction: the hedger cancels its losing arm, and when that arm held
// the half-open probe slot the breaker used to keep the slot claimed
// forever — every later operation fast-failed and nothing could ever
// probe the node again. A cancelled (neutral) probe must relinquish the
// slot so the next operation is admitted as a fresh probe.
func TestCancelledProbeDoesNotWedgeBreaker(t *testing.T) {
	now := time.Unix(2000, 0)
	br := dht.NewBreaker(dht.BreakerConfig{
		Threshold: 1,
		Cooldown:  100 * time.Millisecond,
		Seed:      3,
		Clock:     func() time.Time { return now },
	})
	n := &clientNode{addr: "10.0.0.1:1", br: br}

	tok, err := n.allow()
	if err != nil {
		t.Fatal(err)
	}
	n.record(tok, dht.MarkTransient(errors.New("conn reset")))
	if br.State() != dht.BreakerOpen {
		t.Fatalf("breaker = %v, want open", br.State())
	}

	now = now.Add(100 * time.Millisecond)
	tok, err = n.allow()
	if err != nil {
		t.Fatalf("post-cooldown op not admitted: %v", err)
	}
	if !tok.probe {
		t.Fatal("post-cooldown op did not hold the probe slot")
	}
	// The hedge's losing arm: cancelled mid-flight, no verdict on the node.
	n.record(tok, context.Canceled)

	// Without the relinquish this allow() fast-fails forever.
	tok, err = n.allow()
	if err != nil {
		t.Fatalf("operation after a cancelled probe rejected: %v", err)
	}
	if !tok.probe {
		t.Fatal("next operation was not admitted as the fresh probe")
	}
	n.record(tok, nil)
	if br.State() != dht.BreakerClosed {
		t.Fatalf("breaker = %v, want closed after probe success", br.State())
	}
}

// TestExpiredDeadlineDoesNotTripBreaker: context.DeadlineExceeded counts
// against a node only when the attempt had real budget to wait in. A
// burst of calls whose deadlines were already (nearly) spent on entry
// must leave the breaker closed — the node never had a chance to answer.
func TestExpiredDeadlineDoesNotTripBreaker(t *testing.T) {
	br := dht.NewBreaker(dht.BreakerConfig{Threshold: 2})
	n := &clientNode{addr: "10.0.0.1:1", br: br}
	for i := 0; i < 10; i++ {
		tok, err := n.allow()
		if err != nil {
			t.Fatalf("call %d rejected: %v", i, err)
		}
		// The deadline fired (nearly) immediately: no budget was consumed.
		n.record(tok, context.DeadlineExceeded)
	}
	if br.State() != dht.BreakerClosed {
		t.Fatalf("breaker = %v after zero-budget timeouts, want closed", br.State())
	}

	// An attempt that actually waited out a meaningful budget still counts.
	for i := 0; i < 2; i++ {
		tok, err := n.allow()
		if err != nil {
			t.Fatal(err)
		}
		tok.start = tok.start.Add(-minTimeoutCharge) // ran >= the charge floor
		n.record(tok, context.DeadlineExceeded)
	}
	if br.State() != dht.BreakerOpen {
		t.Fatalf("breaker = %v after real timeouts, want open", br.State())
	}
}

// TestRedialBackoffLimitsDials is the lazy-redial satellite: without any
// breaker, a dead node must cost one dial per backoff window, not one
// dial per operation — rapid-fire calls mostly fail fast on the gate.
func TestRedialBackoffLimitsDials(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		addrs, srvs := startServerMap(t, 1)
		cd := &countingDialer{}
		c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Dialer: cd})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		ctx := context.Background()
		if err := c.Put(ctx, "k", []byte("1")); err != nil {
			t.Fatal(err)
		}

		_ = srvs[addrs[0]].Close()
		cd.fail.Store(true) // refuse instantly: no OS connect latency
		before := cd.dials.Load()
		const calls = 200
		for i := 0; i < calls; i++ {
			if _, err := c.Get(ctx, "k"); err == nil {
				t.Fatal("Get against dead node succeeded")
			} else if !dht.IsTransient(err) {
				t.Fatalf("backed-off Get = %v, want transient", err)
			}
		}
		dials := cd.dials.Load() - before
		if dials >= calls {
			t.Fatalf("%d calls cost %d dials: redial gate not limiting", calls, dials)
		}
	})
}
