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

// gateFails is the most consecutive dial failures any redial gate of
// addr's connections holds: 0 when every gate would dial, -1 when addr is
// not on the client's ring.
func gateFails(c *Client, addr string) int {
	for _, n := range c.ringNodes() {
		if n.addr != addr {
			continue
		}
		fails := 0
		for _, m := range n.conns {
			m.mu.Lock()
			fails = max(fails, m.gate.fails)
			m.mu.Unlock()
		}
		return fails
	}
	return -1
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

// TestOpenHolderFailsOverImmediately: with replication, a dead primary
// whose redial gate is backing off costs the read a few microseconds
// before it moves to the next holder — never a timeout, and no dial per
// read — and the failover counter records the reroute.
func TestOpenHolderFailsOverImmediately(t *testing.T) {
	addrs, srvs := startServerMap(t, 4)
	agg := &metrics.Counters{}
	cd := &countingDialer{}
	c, err := Dial(context.Background(), ClusterConfig{
		Seeds:    addrs,
		Replicas: 2,
		PoolSize: 1,
		Counters: agg,
		Dialer:   cd,
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

	// The first read finds the primary dead (reads start there), backs its
	// gate off and falls back to the secondary — it must still succeed.
	v, err := c.Get(ctx, key)
	if err != nil || string(v.([]byte)) != "7" {
		t.Fatalf("Get with dead primary = %v, %v", v, err)
	}
	if got := gateFails(c, primary.addr); got < 1 {
		t.Fatalf("primary gate holds %d failures, want >= 1", got)
	}

	// With the gate backing off, reads keep succeeding and the dead holder
	// costs microseconds, not a dial each: 50 reads must finish far inside
	// what even one connect timeout would burn, on a handful of dials.
	const reads = 50
	before := cd.dials.Load()
	start := time.Now()
	for i := 0; i < reads; i++ {
		if v, err := c.Get(ctx, key); err != nil || string(v.([]byte)) != "7" {
			t.Fatalf("read %d = %v, %v", i, v, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("%d reads through a dead holder took %v", reads, d)
	}
	if dials := cd.dials.Load() - before; dials >= reads/2 {
		t.Fatalf("%d reads cost %d dials of the dead primary: the gate is not holding", reads, dials)
	}
	if f := agg.Snapshot(); f.Health.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1", f.Health.Failovers)
	}
}

// TestDegradedStartAdoptsRecoveredNode is the degraded-dial satellite:
// Dial fails hard if any node is down; with ClusterConfig.DegradedStart
// the client comes up with the dead node's gate backing off and the node
// suspect in its view, keys it owns fail with a transient error, and the
// node is adopted once a dial finds it recovered.
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

	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, DegradedStart: true})
	if err != nil {
		t.Fatalf("degraded Dial = %v, want a working client", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if got := gateFails(c, dead); got < 1 {
		t.Fatalf("dead node gate holds %d failures at start, want >= 1", got)
	}
	if m, _ := c.View().Find(dead); m.State != dht.MemberSuspect {
		t.Fatalf("dead node is %v in the client's view, want suspect", m.State)
	}
	ctx := context.Background()

	// Find a key owned by each node: live-owned keys work immediately,
	// dead-owned keys fail transiently.
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
	if err := c.Put(ctx, deadKey, []byte("2")); !dht.IsTransient(err) || errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Put on dead node = %v, want a transient fault", err)
	}

	// Bring the dead node back; a dial after the gate's window adopts it.
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
	if v, err := c.Get(ctx, deadKey); err != nil || string(v.([]byte)) != "2" {
		t.Fatalf("Get on the adopted node = %v, %v", v, err)
	}
}

// TestRedialBackoffLimitsDials is the lazy-redial satellite: a dead node
// must cost one dial per backoff window, not one dial per operation —
// rapid-fire calls mostly fail fast on the gate.
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
