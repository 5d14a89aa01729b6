package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lht/internal/dht"
)

// countGoroutines samples the goroutine count with settling retries, so a
// leak check does not flake on goroutines that are mid-exit.
func countGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// batchServer is a stub that accepts one framed connection, answers the
// handshake ping, then holds every request until `hold` of them have
// accumulated — and releases them in REVERSE arrival order. A client that
// correlates responses by request id is unaffected; a client that assumes
// FIFO responses returns garbage. Reaching the release point at all
// proves the client truly had `hold` requests in flight at once.
func batchServer(t *testing.T, hold int) (addr string, done <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.Discard(len(wireMagic)); err != nil {
			return
		}
		// Handshake ping.
		body, err := readFrameBody(br, nil)
		if err != nil {
			return
		}
		id := binary.BigEndian.Uint64(body[:8])
		if _, err := conn.Write(buildFrame(id, dht.OpPing, []byte{statusOK})); err != nil {
			return
		}
		// Accumulate `hold` requests, then answer them newest-first. Each
		// get is answered with a raw value derived from its key, so the
		// caller can verify its response really was its own.
		type held struct {
			id  uint64
			key []byte
		}
		reqs := make([]held, 0, hold)
		for len(reqs) < hold {
			body, err := readFrameBody(br, nil)
			if err != nil {
				return
			}
			c := cursor{b: body[frameHeaderLen:]}
			key, err := c.lenBytes()
			if err != nil {
				return
			}
			reqs = append(reqs, held{
				id:  binary.BigEndian.Uint64(body[:8]),
				key: append([]byte(nil), key...),
			})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			payload := append([]byte{statusOK, tagRaw}, []byte("echo:")...)
			payload = append(payload, reqs[i].key...)
			if _, err := conn.Write(buildFrame(reqs[i].id, dht.OpGet, payload)); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), ch
}

// TestPipelineDepthAndCorrelation proves the multiplexer sustains >=64
// requests in flight on ONE connection and correlates out-of-order
// responses by request id: the stub server refuses to answer until 64
// requests have arrived, then answers them in reverse order.
func TestPipelineDepthAndCorrelation(t *testing.T) {
	const depth = 64
	addr, done := batchServer(t, depth)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{addr}, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%03d", i)
			v, err := c.Get(ctx, key)
			if err != nil {
				errs[i] = err
				return
			}
			want := "echo:" + key
			if got := string(v.([]byte)); got != want {
				errs[i] = fmt.Errorf("got %q, want %q (response misrouted)", got, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	<-done
	if got := c.MaxInFlight(); got < depth {
		t.Fatalf("max in-flight = %d, want >= %d", got, depth)
	}
}

// TestPipelinedClientStress is the -race satellite: many goroutines share
// one pipelined client, interleaving Get/Put/GetBatch with mid-flight
// cancellations, and every response must belong to its request (values
// are derived from keys). Afterwards the client tears down with zero
// leaked goroutines.
func TestPipelinedClientStress(t *testing.T) {
	base := runtime.NumGoroutine()

	addrs := startServers(t, 3)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 16
		rounds  = 60
	)
	ctx := context.Background()
	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%d-k%d", g, i)
				val := []byte("v:" + key)
				if err := c.Put(ctx, key, val); err != nil {
					t.Errorf("Put(%s): %v", key, err)
					return
				}
				switch rng.Intn(4) {
				case 0:
					// Cancel mid-flight: either outcome is fine, but the
					// connection must survive for everyone else.
					cctx, cancel := context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
					_, err := c.Get(cctx, key)
					cancel()
					if err != nil {
						if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
							t.Errorf("cancelled Get(%s): %v", key, err)
							return
						}
						cancelled.Add(1)
					}
				case 1:
					// Batch across all owners, mixed with a known miss.
					keys := []string{key, fmt.Sprintf("w%d-k%d", g, rng.Intn(i+1)), "absent-" + key}
					vals, errs := c.GetBatch(ctx, keys)
					for j := 0; j < 2; j++ {
						if errs[j] != nil {
							t.Errorf("GetBatch(%s)[%d]: %v", keys[j], j, errs[j])
							return
						}
						if got := string(vals[j].([]byte)); got != "v:"+keys[j] {
							t.Errorf("GetBatch(%s) = %q (misrouted)", keys[j], got)
							return
						}
					}
					if !errors.Is(errs[2], dht.ErrNotFound) {
						t.Errorf("GetBatch miss = %v", errs[2])
						return
					}
				default:
					v, err := c.Get(ctx, key)
					if err != nil {
						t.Errorf("Get(%s): %v", key, err)
						return
					}
					if got := string(v.([]byte)); got != "v:"+key {
						t.Errorf("Get(%s) = %q (misrouted)", key, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("max in-flight %d, %d cancellations", c.MaxInFlight(), cancelled.Load())

	// Every value survives the chaos with its own key's value.
	for g := 0; g < workers; g++ {
		key := fmt.Sprintf("w%d-k%d", g, rounds-1)
		v, err := c.Get(ctx, key)
		if err != nil || !bytes.Equal(v.([]byte), []byte("v:"+key)) {
			t.Fatalf("final Get(%s) = %v, %v", key, v, err)
		}
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The client's reader/writer goroutines must all be gone; only the
	// servers (owned by t.Cleanup) remain.
	if n := countGoroutines(base + 3*2); n > base+3*2+workers {
		t.Errorf("goroutine count %d after close, started at %d: leak", n, base)
	}
}

// TestNoGoroutinePerCall verifies the satellite that removed the per-call
// cancellation watcher: a burst of calls on a never-cancelled context must
// not grow the goroutine count (the old client spawned one goroutine per
// round trip; the framed path is goroutine-free per call).
func TestNoGoroutinePerCall(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		addrs := startServers(t, 1)
		c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		if err := c.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			if _, err := c.Get(ctx, "k"); err != nil {
				t.Fatal(err)
			}
		}
		if n := countGoroutines(base); n > base {
			t.Errorf("goroutine count grew %d -> %d over 200 sequential calls", base, n)
		}
	})
}

// TestCancellationAbandonsSlot pins the framed wire's cancellation
// semantics: cancelling one in-flight request leaves the connection and
// other requests untouched (no reconnect), and the abandoned response is
// dropped when it eventually arrives.
func TestCancellationAbandonsSlot(t *testing.T) {
	addrs := startServers(t, 1)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// A pre-cancelled context fails fast without touching the wire.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Get(cctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Get = %v", err)
	}

	// Cancel a few requests mid-flight, then immediately use the same
	// connection: if cancellation killed the connection (the legacy
	// behaviour), the next call would need a redial and the high-water
	// mark would reset.
	for i := 0; i < 10; i++ {
		cctx, cancel := context.WithTimeout(ctx, 50*time.Microsecond)
		_, _ = c.Get(cctx, "k")
		cancel()
	}
	v, err := c.Get(ctx, "k")
	if err != nil || !bytes.Equal(v.([]byte), []byte("v")) {
		t.Fatalf("Get after cancellations = %v, %v", v, err)
	}
}
