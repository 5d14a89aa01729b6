package tcpnet

// Goroutine-leak assertions for the degradation plane: Close must
// reclaim every goroutine even while hedged reads are in flight, redial
// gates are backing off, and handshakes are being cancelled mid-probe. The
// checker is hand-rolled (no external leak detector): capture a
// baseline, then poll until the count returns to it or dump all stacks.

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"lht/internal/dht"
	"lht/internal/metrics"
	"lht/internal/netchaos"
)

// checkGoroutines captures the current goroutine count and returns a
// function that fails the test if the count has not returned to the
// baseline within a grace window (server-side conn handlers need a
// moment to observe EOF after the client closes).
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("goroutine leak: %d at baseline, %d now\n%s", base, n, buf)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestCloseReclaimsInFlightHedgedReads: hedged reads are parked on a
// link whose return path is black-holed when the client closes
// underneath them; every waiter, hedge arm, and connection goroutine
// must unwind.
func TestCloseReclaimsInFlightHedgedReads(t *testing.T) {
	addrs, _ := startServerMap(t, 2)
	leak := checkGoroutines(t)

	chaos := netchaos.New(11)
	c, err := Dial(context.Background(), ClusterConfig{
		Seeds:    addrs,
		Dialer:   chaos,
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("1")); err != nil {
		t.Fatal(err)
	}

	h := dht.WithHedging(c, 2*time.Millisecond, &metrics.Counters{})

	// Black-hole every return path: reads (and their hedges) park.
	chaos.Add(netchaos.Rule{Effect: netchaos.Effect{DropReads: true}})
	chaos.Start()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Errors are expected (client closes underneath); the
			// assertion is that the goroutine comes back at all.
			_, _ = h.Get(ctx, "k")
		}()
	}
	time.Sleep(50 * time.Millisecond) // let reads and hedges park
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	leak()
}

// TestCloseReclaimsBackedOffGates: a client whose nodes' redial gates
// are all backing off holds no background goroutines — a gate is passive
// state, and so is the suspicion it feeds the client's view — so Close
// returns the process to baseline immediately.
func TestCloseReclaimsBackedOffGates(t *testing.T) {
	addrs, _ := startServerMap(t, 2)
	leak := checkGoroutines(t)

	chaos := netchaos.New(12)
	c, err := Dial(context.Background(), ClusterConfig{
		Seeds:  addrs,
		Dialer: chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Sever everything and back every node's gate off.
	chaos.Add(netchaos.Rule{Effect: netchaos.Effect{RefuseDial: true, DropConns: true}})
	chaos.Start()
	for _, addr := range addrs {
		for i := 0; i < 3; i++ {
			_, _ = c.Get(ctx, "owned-by-"+addr)
		}
	}
	backing := 0
	for _, addr := range addrs {
		if gateFails(c, addr) > 0 {
			backing++
		}
	}
	if backing == 0 {
		t.Fatal("no gate backed off; scenario did not arm")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	leak()
}

// TestCloseReclaimsCancelledHandshake: a redial whose handshake ping is
// black-holed is cancelled mid-probe; the cancellation must close the
// socket, unpark the handshake read, and leave nothing behind.
func TestCloseReclaimsCancelledHandshake(t *testing.T) {
	addrs, _ := startServerMap(t, 1)
	leak := checkGoroutines(t)

	chaos := netchaos.New(13)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Dialer: chaos})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("1")); err != nil {
		t.Fatal(err)
	}

	// Sever the pooled sockets directly (their reads are already parked
	// inside the real socket read, beyond the chaos plane's reach), then
	// withhold all inbound data: the next operation redials and its
	// handshake parks waiting for the ping response that never arrives.
	for _, n := range c.ringNodes() {
		for _, m := range n.conns {
			m.mu.Lock()
			if m.st != nil {
				_ = m.st.conn.Close()
			}
			m.mu.Unlock()
		}
	}
	chaos.Add(netchaos.Rule{Effect: netchaos.Effect{DropReads: true}})
	chaos.Start()
	time.Sleep(20 * time.Millisecond) // let the severed generations be swept

	opCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := c.Get(opCtx, "k")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // park the handshake in its ping read
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Get through a black-holed handshake succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled handshake never returned")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	leak()
}
