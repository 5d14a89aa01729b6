package tcpnet

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"lht/internal/dht"
)

// holdDialer, once armed, holds every reply on its connections until want
// request frames have been written, and counts the process's goroutines
// at that moment, on the goroutine that wrote the last of them.
type holdDialer struct {
	mu      sync.Mutex
	armed   bool
	want    int
	writes  int
	during  int
	release chan struct{}
}

func (d *holdDialer) arm(want int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed, d.want, d.writes, d.release = true, want, 0, make(chan struct{})
}

func (d *holdDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return holdConn{conn, d}, nil
}

type holdConn struct {
	net.Conn
	d *holdDialer
}

func (c holdConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	d := c.d
	d.mu.Lock()
	if d.armed {
		if d.writes++; d.writes == d.want {
			d.during = runtime.NumGoroutine()
			d.armed = false
			close(d.release)
		}
	}
	d.mu.Unlock()
	return n, err
}

func (c holdConn) Read(p []byte) (int, error) {
	c.d.mu.Lock()
	var held chan struct{}
	if c.d.armed {
		held = c.d.release
	}
	c.d.mu.Unlock()
	if held != nil {
		select {
		case <-held:
		case <-time.After(5 * time.Second): // the frames never all went out
		}
	}
	return c.Conn.Read(p)
}

// settledGoroutines is the goroutine count once it stops changing, so
// that goroutines still exiting from earlier tests are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestBatchStartsNoGoroutine: a batch over three nodes runs on its
// caller. Every reply is held until all three frames are out, and at that
// moment, with every round trip of a ProbeBatch and then of a PutBatch in
// flight, the process runs exactly the goroutines it ran idle.
func TestBatchStartsNoGoroutine(t *testing.T) {
	addrs := startServers(t, 3)
	d := &holdDialer{}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, PoolSize: 1, Dialer: d})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	nodes := c.ringNodes()
	kvs := make([]dht.KV, len(nodes))
	for i := range kvs {
		for j := 0; kvs[i].Key == ""; j++ {
			if k := fmt.Sprintf("k%d", j); ownerIndex(nodes, k) == i {
				kvs[i] = dht.KV{Key: k, Val: []byte("v:" + k)}
			}
		}
	}
	keys := make([]string, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
		if err := c.Put(ctx, kv.Key, kv.Val); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []struct {
		name string
		run  func() error
	}{
		{"ProbeBatch", func() error {
			vals, errs := c.ProbeBatch(ctx, keys, 0)
			for i, err := range errs {
				if err != nil || string(vals[i].([]byte)) != "v:"+keys[i] {
					return fmt.Errorf("slot %d = %v, %v", i, vals[i], err)
				}
			}
			return nil
		}},
		{"PutBatch", func() error {
			for _, err := range c.PutBatch(ctx, kvs) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		idle := settledGoroutines()
		d.arm(len(nodes))
		if err := b.run(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if d.during != idle {
			t.Errorf("%s over %d nodes, every reply held: %d goroutines, %d idle", b.name, len(nodes), d.during, idle)
		}
	}
}
