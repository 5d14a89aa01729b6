package tcpnet

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"lht/internal/dht"
)

// TestReconnectAfterServerRestart: killing a server breaks the client's
// established connection; once the server is back, a single client call
// must recover by redialing within the same round trip (the broken pipe
// surfaces on the first attempt, the retry dials fresh).
func TestReconnectAfterServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer()
	go func() { _ = srv.Serve(ln) }()

	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Put(context.Background(), "k", []byte("1")); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	srv2 := NewServer()
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { _ = srv2.Close() })

	// The client still holds the dead connection; this call must detect
	// the broken pipe and reconnect without caller involvement.
	if err := c.Put(context.Background(), "k2", []byte("2")); err != nil {
		t.Fatalf("Put after server restart = %v, want reconnect", err)
	}
	v, err := c.Get(context.Background(), "k2")
	if err != nil || string(v.([]byte)) != "2" {
		t.Fatalf("Get after reconnect = %v, %v", v, err)
	}
}

// TestServerKilledIsTransientAndPolicyRecovers is the fault-tolerance
// satellite: a server killed under a connected client makes requests fail
// with an error classified *transient* (never ErrNotFound), and a
// dht.Policy retrying with backoff rides out the outage while the server
// restarts.
func TestServerKilledIsTransientAndPolicyRecovers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer()
	go func() { _ = srv.Serve(ln) }()

	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Put(context.Background(), "k", []byte("1")); err != nil {
		t.Fatal(err)
	}

	// Kill the server mid-session: the client's connection is now broken
	// and redials are refused.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.Get(context.Background(), "k")
	if err == nil {
		t.Fatal("Get against a killed server succeeded")
	}
	if !dht.IsTransient(err) {
		t.Fatalf("outage not classified transient: %v", err)
	}
	if errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("outage mislabelled as a missing key: %v", err)
	}

	// Bring the server back shortly; a policy-wrapped client started
	// during the outage must absorb it.
	restarted := make(chan *Server, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		for i := 0; i < 100; i++ {
			ln2, err := net.Listen("tcp", addr)
			if err == nil {
				srv2 := NewServer()
				go func() { _ = srv2.Serve(ln2) }()
				restarted <- srv2
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		restarted <- nil
	}()

	p := dht.WithPolicy(c, dht.Policy{
		MaxAttempts: 60,
		BaseDelay:   20 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	})
	perr := p.Put(context.Background(), "k2", []byte("2"))
	srv2 := <-restarted
	if srv2 == nil {
		t.Skipf("port %s not reusable, cannot test recovery", addr)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	if perr != nil {
		t.Fatalf("policy did not ride out the outage: %v", perr)
	}
	v, err := p.Get(context.Background(), "k2")
	if err != nil || string(v.([]byte)) != "2" {
		t.Fatalf("Get after recovery = %v, %v", v, err)
	}
}
