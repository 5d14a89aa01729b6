package netchaos

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// echoServer accepts connections and echoes every byte back.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(done)
				return
			}
			go func() { _, _ = io.Copy(c, c); _ = c.Close() }()
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); <-done }
}

func roundTrip(t *testing.T, c net.Conn, msg string) (string, error) {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		return "", err
	}
	buf := make([]byte, len(msg))
	_, err := io.ReadFull(c, buf)
	return string(buf), err
}

// TestHealthyPassThrough: with no rules the plane is a transparent pipe.
func TestHealthyPassThrough(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := roundTrip(t, c, "hello")
	if err != nil || got != "hello" {
		t.Fatalf("round trip = %q, %v", got, err)
	}
}

// TestRefuseDial: a RefuseDial rule rejects new connections immediately,
// and only within its window.
func TestRefuseDial(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Add(Rule{Addr: addr, Until: 50 * time.Millisecond, Effect: Effect{RefuseDial: true}})
	ch.Start()
	if _, err := ch.DialContext(context.Background(), "tcp", addr); err == nil {
		t.Fatal("dial inside the refuse window succeeded")
	}
	if n := ch.DialsRefused(); n != 1 {
		t.Fatalf("DialsRefused = %d, want 1", n)
	}
	time.Sleep(60 * time.Millisecond)
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatalf("dial after the window: %v", err)
	}
	_ = c.Close()
}

// TestBlackholeDial: dials hang until the context gives up, like a
// dropped SYN, and the context's error is surfaced.
func TestBlackholeDial(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Add(Rule{Addr: addr, Effect: Effect{BlackholeDial: true}})
	ch.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ch.DialContext(ctx, "tcp", addr)
	if err == nil {
		t.Fatal("black-holed dial succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("dial gave up after %v, want it to hang to the deadline", d)
	}
}

// TestLatency: a latency rule delays traffic by at least the configured
// amount.
func TestLatency(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Healthy baseline first, then inject.
	if _, err := roundTrip(t, c, "warm"); err != nil {
		t.Fatal(err)
	}
	ch.Add(Rule{Addr: addr, Effect: Effect{Latency: 40 * time.Millisecond}})
	start := time.Now()
	if _, err := roundTrip(t, c, "slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 40ms", d)
	}
}

// TestJitterDeterministic: two planes with the same seed draw identical
// jitter sequences for a link; a different seed diverges.
func TestJitterDeterministic(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		ch := New(seed)
		var out []time.Duration
		for i := 0; i < 16; i++ {
			out = append(out, ch.jitterFor("10.0.0.1:99", 10*time.Millisecond))
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical jitter")
	}
}

// TestDropWritesIsOutboundPartition: writes report success, nothing
// arrives, and a read on the conn sees no echo within its deadline.
func TestDropWritesIsOutboundPartition(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Add(Rule{Addr: addr, Effect: Effect{DropWrites: true}})
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Write([]byte("void"))
	if err != nil || n != 4 {
		t.Fatalf("write into the void = %d, %v; want reported success", n, err)
	}
	if ch.WritesLost() != 1 {
		t.Fatalf("WritesLost = %d, want 1", ch.WritesLost())
	}
	_ = c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read returned data despite the dropped write")
	}
}

// TestDropReadsWithholdsThenReleases: the inbound half of an asymmetric
// partition. The echo is withheld while the window holds and delivered
// intact after it ends.
func TestDropReadsWithholdsThenReleases(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Add(Rule{Addr: addr, Until: 60 * time.Millisecond, Effect: Effect{DropReads: true}})
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	got, err := roundTrip(t, c, "later")
	if err != nil || got != "later" {
		t.Fatalf("round trip after window = %q, %v", got, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("read returned after %v, want it withheld for the window", d)
	}
}

// TestDropReadsHonorsReadDeadline: a reader parked in a DropReads window
// must still observe its read deadline — the tcpnet handshake bounds its
// health-check ping with SetDeadline, and a redial into an inbound
// partition has to fail within that bound, not hang for the whole drop
// window.
func TestDropReadsHonorsReadDeadline(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Add(Rule{Addr: addr, Effect: Effect{DropReads: true}}) // holds forever
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	// SetDeadline is what the tcpnet handshake uses; it must cover reads.
	_ = c.SetDeadline(time.Now().Add(40 * time.Millisecond))
	start := time.Now()
	buf := make([]byte, 4)
	_, err = c.Read(buf)
	if err == nil {
		t.Fatal("read inside an unbounded DropReads window returned data")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net.Error timeout", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > 2*time.Second {
		t.Fatalf("read returned after %v, want ~the 40ms deadline", d)
	}
}

// TestDropConnsSevers: an established connection dies at its next I/O
// once the rule activates.
func TestDropConnsSevers(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := roundTrip(t, c, "warm"); err != nil {
		t.Fatal(err)
	}
	ch.Add(Rule{Addr: addr, Effect: Effect{DropConns: true}})
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write on a severed connection succeeded")
	}
}

// TestDupWrites: each write goes out twice; the echo comes back doubled.
func TestDupWrites(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Add(Rule{Addr: addr, Effect: Effect{DupWrites: true}})
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abab" {
		t.Fatalf("echo = %q, want duplicated \"abab\"", buf)
	}
	if ch.WritesDuped() != 1 {
		t.Fatalf("WritesDuped = %d, want 1", ch.WritesDuped())
	}
}

// TestFlapScheduleDeterministic: a duty-cycled rule's on/off pattern is
// a pure function of elapsed time — replaying the clock replays the
// schedule exactly.
func TestFlapScheduleDeterministic(t *testing.T) {
	r := Rule{Period: 20 * time.Millisecond, Duty: 0.5}
	pattern := func() string {
		var b strings.Builder
		for ms := 0; ms < 100; ms += 5 {
			if r.active(time.Duration(ms) * time.Millisecond) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	p1, p2 := pattern(), pattern()
	if p1 != p2 {
		t.Fatalf("flap pattern not replayable: %s vs %s", p1, p2)
	}
	if !strings.Contains(p1, "1") || !strings.Contains(p1, "0") {
		t.Fatalf("flap pattern %s never toggles", p1)
	}
	// 50%% duty at 20ms period sampled every 5ms: on,on,off,off repeating.
	if want := "11001100110011001100"; p1 != want {
		t.Fatalf("flap pattern = %s, want %s", p1, want)
	}
}

// TestScheduleBeforeStartIsHealthy: rules do not fire until Start.
func TestScheduleBeforeStartIsHealthy(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	ch.Add(Rule{Addr: addr, Effect: Effect{RefuseDial: true}})
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatalf("dial before Start refused: %v", err)
	}
	_ = c.Close()
}

// TestThrottlePaces: a tight bytes/sec cap stretches a large write.
func TestThrottlePaces(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	ch := New(1)
	// 64 KiB/sec: a 4 KiB write must take >= ~60ms.
	ch.Add(Rule{Addr: addr, Effect: Effect{ThrottleBps: 64 << 10}})
	ch.Start()
	c, err := ch.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("throttled write took %v, want >= 50ms", d)
	}
}
