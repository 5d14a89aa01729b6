package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lht/internal/dht"
	"lht/internal/netchaos"
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
		id, _, err := readFrame(br)
		if err != nil {
			return
		}
		if _, err := conn.Write(buildReply(id, []byte{statusOK})); err != nil {
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
			id, body, err := readFrame(br)
			if err != nil {
				return
			}
			c := cursor{b: body[1:]}
			key, err := c.key(new(keyScratch))
			if err != nil {
				return
			}
			reqs = append(reqs, held{id: id, key: append([]byte(nil), key...)})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			payload := append([]byte{statusOK, tagRaw}, []byte("echo:")...)
			payload = append(payload, reqs[i].key...)
			if _, err := conn.Write(buildReply(reqs[i].id, payload)); err != nil {
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
	// Every caller's goroutine must be gone; only the servers (owned by
	// t.Cleanup) remain.
	if n := countGoroutines(base + 3*2); n > base+3*2+workers {
		t.Errorf("goroutine count %d after close, started at %d: leak", n, base)
	}
}

// TestNoGoroutinePerCall verifies that the client runs no goroutine of its
// own, per call or per connection: callers do every read and write. After
// Dial and a burst of calls on a never-cancelled context, the goroutines
// outside the in-process server are what they were before Dial.
func TestNoGoroutinePerCall(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		addrs := startServers(t, 1)
		base := clientGoroutines()
		c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		if err := c.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := c.Get(ctx, "k"); err != nil {
				t.Fatal(err)
			}
		}
		n := clientGoroutines()
		for i := 0; i < 50 && n != base; i++ {
			time.Sleep(10 * time.Millisecond)
			n = clientGoroutines()
		}
		if n != base {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines outside the server before Dial, %d after 200 calls:\n%s", base, n, buf[:runtime.Stack(buf, true)])
		}
	})
}

// clientGoroutines counts the goroutines that are not an in-process
// server's — its accept loop, maybe not yet started, and its connection
// handlers, some of them maybe a closed server's, still exiting — nor
// the test runner's of a test that has ended and is still exiting.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if !strings.Contains(g, "tcpnet.(*Server)") && !strings.Contains(g, "tcpnet.startServers") &&
			!strings.Contains(g, "testing.tRunner.func1()") {
			n++
		}
	}
	return n
}

// TestCancelledReaderPassesTheToken: the caller holding the reader token
// is cancelled while the node's replies are withheld. It returns by its
// deadline, the connection survives it (no redial, both requests on one
// connection), and the caller queued behind it takes the token and gets
// its own reply once the window ends, past the abandoned one.
func TestCancelledReaderPassesTheToken(t *testing.T) {
	addrs := startServers(t, 1)
	chaos := netchaos.New(21)
	dialer := &countingDialer{base: chaos}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, PoolSize: 1, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, k := range []string{"a", "b"} {
		if err := c.Put(ctx, k, []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	dials := dialer.dials.Load()

	const window, deadline = 300 * time.Millisecond, 40 * time.Millisecond
	chaos.Add(netchaos.Rule{Until: window, Effect: netchaos.Effect{DropReads: true}})
	chaos.Start()
	start := time.Now()
	readerDone := make(chan time.Duration, 1)
	go func() {
		rctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		if _, err := c.Get(rctx, "a"); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("the reader's Get = %v, want its deadline", err)
		}
		readerDone <- time.Since(start)
	}()
	// Queue the second caller behind the reader, once the reader holds
	// the token.
	for c.MaxInFlight() < 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	v, err := c.Get(ctx, "b")
	took := time.Since(start)
	if err != nil || string(v.([]byte)) != "v:b" {
		t.Fatalf("the queued caller's Get = %v, %v, want its own reply", v, err)
	}
	if d := <-readerDone; d > deadline+100*time.Millisecond {
		t.Errorf("the cancelled reader returned after %v, want about %v", d, deadline)
	}
	if took < window-50*time.Millisecond {
		t.Errorf("the queued caller's reply came after %v, inside the %v window", took, window)
	}
	if got := dialer.dials.Load() - dials; got != 0 {
		t.Errorf("%d redials, want none: a cancelled reader must not fail the connection", got)
	}
	if got := c.MaxInFlight(); got != 2 {
		t.Errorf("max in-flight %d, want 2: both requests on the one connection", got)
	}
}

// trickleConn returns at most one byte per Read and counts the reads a
// deadline cut short.
type trickleConn struct {
	net.Conn
	timeouts *atomic.Int64
}

func (c trickleConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p[:min(len(p), 1)])
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.timeouts.Add(1)
	}
	return n, err
}

type trickleDialer struct{ timeouts atomic.Int64 }

func (d *trickleDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return trickleConn{conn, &d.timeouts}, nil
}

// TestTrickledReplySurvivesDeadlines: a reply that arrives one byte per
// read, with pauses longer than the reader's re-check interval between the
// bytes of its header — inside its two-byte length varint and inside its
// id varint, one byte long and then three — and inside its body, is read
// intact: the frame reader keeps what it has read across every deadline
// that expires mid-frame.
func TestTrickledReplySurvivesDeadlines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	const pause = 3 * recheck
	value := strings.Repeat("a value read a byte at a time. ", 5) // a length of two varint bytes
	var headerBytes atomic.Int64
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.Discard(len(wireMagic)); err != nil {
			return
		}
		for op := 0; ; op++ {
			id, _, err := readFrame(br)
			if err != nil {
				return
			}
			if op == 0 { // the handshake ping
				_, _ = conn.Write(buildReply(id, []byte{statusOK}))
				continue
			}
			reply := buildReply(id, append([]byte{statusOK, tagRaw}, value...))
			hdr := len(reply) - 2 - len(value)
			headerBytes.Add(int64(hdr))
			pieces := [][]byte{reply[hdr : hdr+20], reply[hdr+20:]}
			for i := hdr - 1; i >= 0; i-- {
				pieces = append([][]byte{reply[i : i+1]}, pieces...)
			}
			for _, piece := range pieces {
				if _, err := conn.Write(piece); err != nil {
					return
				}
				time.Sleep(pause)
			}
		}
	}()
	d := &trickleDialer{}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{ln.Addr().String()}, PoolSize: 1, Dialer: d})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, id := range []uint64{1, 1 << 14} {
		setNextID(t, c, id)
		v, err := c.Get(cctx, "k")
		if err != nil || string(v.([]byte)) != value {
			t.Fatalf("trickled Get at id %d = %q, %v", id, v, err)
		}
	}
	if n, want := d.timeouts.Load(), headerBytes.Load()+2; n < want {
		t.Errorf("%d reads cut short by a deadline, want %d at least: one after each header byte and in the body", n, want)
	}
}

// setNextID makes id the next request id of c's one connection, which
// must have no request in flight: the free ids are forgotten, so the next
// request takes id.
func setNextID(t *testing.T, c *Client, id uint64) {
	t.Helper()
	m := c.ringNodes()[0].conns[0]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.st == nil {
		t.Fatal("the connection is not dialed")
	}
	m.st.nextID, m.st.free = id, m.st.free[:0]
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

// TestLateReplyOfAnAbandonedCallIsNotMisrouted pins the life of a
// request id. A stub node holds the reply to a Get whose caller then
// gives up; a second Get on the same connection must get an id of its
// own, for the abandoned one stays taken until its reply arrives. The
// node then answers both, the late reply first: it is dropped, and the
// second caller gets its own value. After that both ids are free, and a
// third Get takes one of them.
func TestLateReplyOfAnAbandonedCallIsNotMisrouted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ids := make(chan uint64, 3)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.Discard(len(wireMagic)); err != nil {
			return
		}
		echo := func(id uint64, body []byte) []byte {
			c := cursor{b: body[1:]}
			key, _ := c.key(new(keyScratch))
			return buildReply(id, append([]byte{statusOK, tagRaw}, "echo:"+string(key)...))
		}
		var held [][]byte
		for n := 0; ; n++ {
			id, body, err := readFrame(br)
			if err != nil {
				return
			}
			if n == 0 { // the handshake ping
				_, _ = conn.Write(buildReply(id, []byte{statusOK}))
				continue
			}
			ids <- id
			if held = append(held, echo(id, body)); n < 2 {
				continue // hold the first Get's reply until the second's is in
			}
			for _, reply := range held {
				if _, err := conn.Write(reply); err != nil {
					return
				}
			}
			held = held[:0]
		}
	}()
	c, err := Dial(context.Background(), ClusterConfig{Seeds: []string{ln.Addr().String()}, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "a")
		abandoned <- err
	}()
	first := <-ids
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("the abandoned Get = %v, want its cancellation", err)
	}
	second := make(chan error, 1)
	go func() {
		v, err := c.Get(context.Background(), "b")
		if err == nil && string(v.([]byte)) != "echo:b" {
			err = fmt.Errorf("got %q, want echo:b (misrouted)", v)
		}
		second <- err
	}()
	if id := <-ids; id == first {
		t.Errorf("the second Get took id %d while the abandoned one's reply was still due", id)
	}
	if err := <-second; err != nil {
		t.Fatalf("the second Get: %v", err)
	}
	v, err := c.Get(context.Background(), "c")
	if err != nil || string(v.([]byte)) != "echo:c" {
		t.Fatalf("the third Get = %v, %v", v, err)
	}
	if id := <-ids; id > 2 {
		t.Errorf("the third Get took id %d, want a freed one: 1 or 2", id)
	}
}

// TestWriteQueueStaysBounded: writers outrun a throttled link. The
// flusher holds the socket while the others queue their frames, and a
// caller that finds wireBufSize bytes queued waits for the flusher to
// take them, as a full send queue made it wait before. So the queue holds
// at most that and one frame, twice over while a write cut short by its
// deadline puts its tail back ahead of what was queued meanwhile. Every
// write lands.
func TestWriteQueueStaysBounded(t *testing.T) {
	addrs := startServers(t, 1)
	chaos := netchaos.New(5)
	chaos.Add(netchaos.Rule{Effect: netchaos.Effect{ThrottleBps: 16 << 20}})
	chaos.Start()
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, PoolSize: 1, Dialer: chaos})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.ringNodes()[0].conns[0]

	const writers, rounds, size = 16, 8, 16 << 10
	var maxQueued, maxWaiting int
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			m.mu.Lock()
			if st := m.st; st != nil {
				maxQueued = max(maxQueued, len(st.queue))
				maxWaiting = max(maxWaiting, len(st.full))
			}
			m.mu.Unlock()
		}
	}()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%02d-%d", w, i)
				if err := c.Put(ctx, key, bytes.Repeat([]byte{byte(w)}, size)); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-sampled
	if limit := 2 * (wireBufSize + size + 64); maxQueued > limit {
		t.Errorf("the write queue held %d bytes, want at most %d", maxQueued, limit)
	}
	if maxWaiting == 0 {
		t.Error("no caller ever waited for room: the bound was never reached")
	}
	v, err := c.Get(ctx, "w03-7")
	if err != nil || !bytes.Equal(v.([]byte), bytes.Repeat([]byte{3}, size)) {
		t.Fatalf("Get after the burst = %d bytes, %v", len(v.([]byte)), err)
	}
}

// stubReq is one request a stubNode read: its id, its op, its keys (a
// get's one, a getbatch's every slot's), and reply, which writes the
// node's answer — each key's value "echo:"+key — whenever the test calls
// it.
type stubReq struct {
	id    uint64
	op    dht.OpKind
	keys  []string
	reply func()
}

// stubNode is a fake node for one framed connection: it answers the
// handshake ping and hands each later request, a get or a getbatch, to
// the test on reqs, to be answered when the test says.
func stubNode(t *testing.T) (addr string, reqs <-chan stubReq) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ch := make(chan stubReq, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var wmu sync.Mutex
		write := func(frame []byte) {
			wmu.Lock()
			defer wmu.Unlock()
			_, _ = conn.Write(frame)
		}
		br := bufio.NewReader(conn)
		if _, err := br.Discard(len(wireMagic)); err != nil {
			return
		}
		for n := 0; ; n++ {
			id, body, err := readFrame(br)
			if err != nil {
				return
			}
			if n == 0 { // the handshake ping
				write(buildReply(id, []byte{statusOK}))
				continue
			}
			r := stubReq{id: id, op: dht.OpKind(body[0])}
			c := cursor{b: body[1:]}
			count := 1
			if r.op == dht.OpGetBatch {
				count, _ = c.count()
			}
			out := []byte{statusOK}
			if r.op == dht.OpGetBatch {
				out = appendUv(out, uint64(count))
			}
			for i := 0; i < count; i++ {
				key, err := c.key(new(keyScratch))
				if err != nil {
					return
				}
				r.keys = append(r.keys, string(key))
				val := append([]byte{tagRaw}, "echo:"+string(key)...)
				if r.op == dht.OpGetBatch {
					out = appendLenBytes(append(out, statusOK), val)
				} else {
					out = append(out, val...)
				}
			}
			frame := buildReply(id, out)
			r.reply = func() { write(frame) }
			ch <- r
		}
	}()
	return ln.Addr().String(), ch
}

// stubPair dials a one-connection client to two stub nodes and returns
// their requests in ring order, with a key each of them owns.
func stubPair(t *testing.T) (c *Client, reqs [2]<-chan stubReq, keys [2]string) {
	t.Helper()
	byAddr := map[string]<-chan stubReq{}
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, r := stubNode(t)
		byAddr[addr] = r
		addrs = append(addrs, addr)
	}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	nodes := c.ringNodes()
	for i, n := range nodes {
		reqs[i] = byAddr[n.addr]
		for j := 0; keys[i] == ""; j++ {
			if k := fmt.Sprintf("k%d", j); ownerIndex(nodes, k) == i {
				keys[i] = k
			}
		}
	}
	return c, reqs, keys
}

// readerHeld reports whether a caller holds m's reader token.
func readerHeld(m *mconn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st != nil && m.st.reader != nil
}

// TestAwayCallerIsNotHandedTheReaderToken: caller A's batch has sent its
// frames to both nodes and waits on the first, which holds A's reply. On
// the second node, where A is away, caller C holds the reader token and
// caller B is parked behind it. Once C's reply is in, the token must go to
// B, not to A, who is busy elsewhere: B's reply comes 50 ms later and B
// returns with it, long before A would come to read for it.
func TestAwayCallerIsNotHandedTheReaderToken(t *testing.T) {
	ctx := context.Background()
	get := func(c *Client, key string, done chan<- error) {
		v, err := c.Get(ctx, key)
		if err == nil && string(v.([]byte)) != "echo:"+key {
			err = fmt.Errorf("got %q, want echo:%s (misrouted)", v, key)
		}
		done <- err
	}
	for round := 0; round < 10; round++ {
		c, reqs, keys := stubPair(t)
		aDone := make(chan error, 1)
		go func() {
			vals, errs := c.GetBatch(ctx, keys[:])
			for i, err := range errs {
				if err == nil && string(vals[i].([]byte)) != "echo:"+keys[i] {
					err = fmt.Errorf("slot %d = %q (misrouted)", i, vals[i])
				}
				if err != nil {
					aDone <- err
					return
				}
			}
			aDone <- nil
		}()
		a0, a1 := <-reqs[0], <-reqs[1] // both held: A waits on the first node
		cDone, bDone := make(chan error, 1), make(chan error, 1)
		go get(c, keys[1], cDone)
		cReq := <-reqs[1]
		for !readerHeld(c.ringNodes()[1].conns[0]) {
			time.Sleep(time.Millisecond) // C takes the reader token
		}
		go get(c, keys[1], bDone)
		bReq := <-reqs[1]
		// B parks behind C once it is past its flush; nothing shows that
		// from outside, and a B not yet parked when C's reply comes takes
		// the token itself, which this round then does not test.
		time.Sleep(20 * time.Millisecond)
		cReq.reply()
		time.AfterFunc(50*time.Millisecond, bReq.reply)
		select {
		case err := <-bDone:
			if err != nil {
				t.Fatalf("round %d: B's Get: %v", round, err)
			}
		case <-time.After(time.Second):
			t.Errorf("round %d: B's reply was not read within 1s: the reader token went to A, away on the other node", round)
		}
		a0.reply()
		a1.reply()
		for name, done := range map[string]chan error{"A's batch": aDone, "C's Get": cDone} {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %s: %v", round, name, err)
			}
		}
		if t.Failed() {
			<-bDone
			return
		}
	}
}

// TestCancelledBatchFreesEverySlot: a batch's context ends while its
// second node holds the reply. The first node's slots have their values,
// the second's the context's error. No slot outlives the batch but the
// one whose reply is still due, and that one only until the reply is read
// and dropped: the next Get on each connection gets its own value under a
// one-byte id, and leaves both pending tables empty.
func TestCancelledBatchFreesEverySlot(t *testing.T) {
	c, reqs, keys := stubPair(t)
	conns := [2]*mconn{c.ringNodes()[0].conns[0], c.ringNodes()[1].conns[0]}
	pendings := func(m *mconn) (live, abandoned int) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, p := range m.st.pending {
			if p == nil {
				abandoned++
			} else {
				live++
			}
		}
		return live, abandoned
	}
	ctx, cancel := context.WithCancel(context.Background())
	type batch struct {
		vals []dht.Value
		errs []error
	}
	done := make(chan batch, 1)
	go func() {
		vals, errs := c.GetBatch(ctx, keys[:])
		done <- batch{vals, errs}
	}()
	first, held := <-reqs[0], <-reqs[1]
	first.reply()
	for live, _ := pendings(conns[0]); live > 0; live, _ = pendings(conns[0]) {
		time.Sleep(time.Millisecond) // the first reply is read
	}
	cancel()
	b := <-done
	if b.errs[0] != nil || string(b.vals[0].([]byte)) != "echo:"+keys[0] {
		t.Errorf("the answered slot = %v, %v", b.vals[0], b.errs[0])
	}
	if !errors.Is(b.errs[1], context.Canceled) {
		t.Errorf("the held slot's error = %v, want the context's", b.errs[1])
	}
	for i, m := range conns {
		live, abandoned := pendings(m)
		if want := i; live != 0 || abandoned != want {
			t.Errorf("node %d: %d live and %d abandoned slots after the batch, want 0 and %d", i, live, abandoned, want)
		}
	}
	held.reply() // the late reply
	for i, m := range conns {
		got := make(chan error, 1)
		go func() {
			v, err := c.Get(context.Background(), keys[i])
			if err == nil && string(v.([]byte)) != "echo:"+keys[i] {
				err = fmt.Errorf("got %q (misrouted)", v)
			}
			got <- err
		}()
		r := <-reqs[i]
		if r.id >= 128 {
			t.Errorf("node %d: the next Get took id %d, more than one byte", i, r.id)
		}
		r.reply()
		if err := <-got; err != nil {
			t.Fatalf("node %d: the next Get: %v", i, err)
		}
		if live, abandoned := pendings(m); live+abandoned != 0 {
			t.Errorf("node %d: %d live and %d abandoned slots after the next Get", i, live, abandoned)
		}
	}
}
