package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"lht/internal/dht"
	"lht/internal/dht/dhttest"
	"lht/internal/hashring"
	ilht "lht/internal/lht"
)

// startServerMap boots n servers and returns their addresses plus an
// address-to-server map, so a test can take down a specific holder.
func startServerMap(t *testing.T, n int) ([]string, map[string]*Server) {
	t.Helper()
	addrs := make([]string, 0, n)
	srvs := make(map[string]*Server, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addr := ln.Addr().String()
		addrs = append(addrs, addr)
		srvs[addr] = srv
	}
	return addrs, srvs
}

// TestReplicatedConformance runs the full substrate battery with
// replication on: every op must behave exactly like the unreplicated
// client, with redundancy and failover invisible to callers.
func TestReplicatedConformance(t *testing.T) {
	factory := func(t *testing.T) dht.DHT {
		c, err := Dial(context.Background(), ClusterConfig{Seeds: startServers(t, 4), Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	dhttest.Run(t, factory, selfSerialising)
}

// TestReplicatedFailover pins what replication buys: while both holders
// are up every read is served by the primary, and with the primary down
// reads fall back to the surviving holder.
func TestReplicatedFailover(t *testing.T) {
	addrs, srvs := startServerMap(t, 4)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	ctx := context.Background()
	if err := c.Put(ctx, "hot", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Both holders up: the primary serves all ten reads, the secondary
	// none. The Put charged each holder one lookup.
	primary, secondary := c.holders("hot")[0], c.holders("hot")[1]
	served := func(n *clientNode) int64 { return srvs[n.addr].Metrics().Lookup.Total }
	p0, s0 := served(primary), served(secondary)
	for i := 0; i < 10; i++ {
		if _, err := c.Get(ctx, "hot"); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if p, s := served(primary)-p0, served(secondary)-s0; p != 10 || s != 0 {
		t.Errorf("10 reads served %d by the primary and %d by the secondary, want 10 and 0", p, s)
	}

	// Kill the primary: the fallback scan must still serve the key.
	if err := srvs[primary.addr].Close(); err != nil {
		t.Fatal(err)
	}
	var ok bool
	for i := 0; i < 4; i++ {
		if _, err := c.Get(ctx, "hot"); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Error("replicated get did not survive losing the primary holder")
	}

	// A conditional write against the dead primary fails rather than
	// diverging: the CAS serializer for the key is gone.
	err = c.PutIf(ctx, "hot", []byte("v2"), 0)
	if err == nil {
		t.Error("PutIf succeeded with the primary CAS serializer down")
	}
}

// TestReplicaPropagationEpochOrder pins the high-severity staleness fix:
// replica fan-outs travel as OpPutNewer, so a late-arriving propagation of
// an OLDER commit must not overwrite the newer value a holder already
// stores. Without the epoch guard, two concurrent commits' interleaved
// fan-outs could durably roll a secondary back, and every read of the key
// that fell back to it would serve the stale epoch.
func TestReplicaPropagationEpochOrder(t *testing.T) {
	addrs, _ := startServerMap(t, 2)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	holder := c.holders("k")[1] // a secondary: where fan-outs land

	// Commit N's fan-out lands first...
	if _, err := holder.do(ctx, req{op: dht.OpPutNewer, key: "k", val: &dhttest.EpochValue{Epoch: 5, Body: "new"}}); err != nil {
		t.Fatal(err)
	}
	// ...then commit N-1's straggler arrives. It must be rejected.
	if _, err := holder.do(ctx, req{op: dht.OpPutNewer, key: "k", val: &dhttest.EpochValue{Epoch: 4, Body: "old"}}); err != nil {
		t.Fatalf("superseded propagation errored instead of no-oping: %v", err)
	}
	v, err := holder.do(ctx, req{op: dht.OpGet, key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if ev, ok := v.(*dhttest.EpochValue); !ok || ev.Epoch != 5 || ev.Body != "new" {
		t.Fatalf("holder rolled back to %#v, want epoch 5 %q", v, "new")
	}

	// Equal and newer epochs still store (idempotent re-propagation, and
	// the normal in-order case).
	if _, err := holder.do(ctx, req{op: dht.OpPutNewer, key: "k", val: &dhttest.EpochValue{Epoch: 6, Body: "newer"}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := holder.do(ctx, req{op: dht.OpGet, key: "k"}); v.(*dhttest.EpochValue).Epoch != 6 {
		t.Fatalf("in-order propagation did not store, holder at %#v", v)
	}
}

// TestReplicatedCASHoldersConverge drives many concurrent CAS writers at
// one key and then inspects EVERY holder directly: once all writers have
// returned, each reachable holder must store the final committed epoch —
// the file's "never stale on a reachable holder" invariant. The last
// commit's fan-out completes before its writer returns, and epoch-ordered
// propagation forbids any straggling older fan-out from overwriting it.
func TestReplicatedCASHoldersConverge(t *testing.T) {
	addrs, _ := startServerMap(t, 4)
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	const key = "contested"

	if err := c.CreateIf(ctx, key, &dhttest.EpochValue{Epoch: 1, Body: "seed"}); err != nil {
		t.Fatal(err)
	}

	const writers, commitsEach = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < commitsEach; n++ {
				for { // optimistic CAS retry loop, as the index layer runs it
					v, err := c.Get(ctx, key)
					if err != nil {
						t.Error(err)
						return
					}
					cur := v.(*dhttest.EpochValue)
					next := &dhttest.EpochValue{Epoch: cur.Epoch + 1, Body: "w"}
					err = c.PutIf(ctx, key, next, cur.Epoch)
					if err == nil {
						break
					}
					if !errors.Is(err, dht.ErrCASConflict) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	want := uint64(1 + writers*commitsEach)
	for rank, holder := range c.holders(key) {
		v, err := holder.do(ctx, req{op: dht.OpGet, key: key})
		if err != nil {
			t.Fatalf("holder %d (%s): %v", rank, holder.addr, err)
		}
		if got := v.(*dhttest.EpochValue).Epoch; got != want {
			t.Errorf("holder %d (%s) settled at epoch %d, want %d: stale replica survived the fan-out race",
				rank, holder.addr, got, want)
		}
	}
}

// newerHold dials like net.Dialer, but on connections to target it holds
// back every propagation frame (putnewer) until release; every other frame
// to target, its reads included, passes at once.
type newerHold struct {
	target string
	caught chan struct{} // closed when the first frame is held

	mu       sync.Mutex
	held     []heldFrame
	released bool
}

type heldFrame struct {
	c     *newerHoldConn
	frame []byte
}

func (h *newerHold) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil || addr != h.target {
		return conn, err
	}
	return &newerHoldConn{Conn: conn, h: h}, nil
}

// hold keeps frame back unless the hold was released, and says whether
// it did.
func (h *newerHold) hold(c *newerHoldConn, frame []byte) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return false
	}
	if len(h.held) == 0 {
		close(h.caught)
	}
	h.held = append(h.held, heldFrame{c, slices.Clone(frame)})
	return true
}

// release sends the held frames on and lets every later one pass.
func (h *newerHold) release() {
	h.mu.Lock()
	held := h.held
	h.held, h.released = nil, true
	h.mu.Unlock()
	for _, f := range held {
		f.c.mu.Lock()
		_, _ = f.c.Conn.Write(f.frame)
		f.c.mu.Unlock()
	}
}

// newerHoldConn splits what the client writes into frames (after the
// magic) and forwards each, or hands a putnewer to its hold.
type newerHoldConn struct {
	net.Conn
	h *newerHold

	mu   sync.Mutex
	in   []byte // written, not yet split into whole frames
	open bool   // the magic has passed
}

func (c *newerHoldConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.in = append(c.in, p...)
	var out []byte
	if !c.open && len(c.in) >= len(wireMagic) {
		out, c.in, c.open = append(out, c.in[:len(wireMagic)]...), c.in[len(wireMagic):], true
	}
	for c.open {
		size, n := binary.Uvarint(c.in)
		if n <= 0 || len(c.in) < n+int(size) {
			break
		}
		frame := c.in[:n+int(size)]
		_, m := binary.Uvarint(frame[n:])
		if dht.OpKind(frame[n+m]) != dht.OpPutNewer || !c.h.hold(c, frame) {
			out = append(out, frame...)
		}
		c.in = c.in[len(frame):]
	}
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestReadsNeverGoBackPastACommit pins the window primary-first reads
// close. At three replicas a PutIf commits on the primary, then
// propagates; one secondary has the new value and the other's
// propagation is held. Sequential reads from one client, all served
// while the hold lasts, must never return the old value once one has
// returned the new: a read that started at a secondary could meet
// either.
func TestReadsNeverGoBackPastACommit(t *testing.T) {
	addrs, _ := startServerMap(t, 3)
	ctx := context.Background()
	const key = "window"
	plain, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = plain.Close() }()
	holders := plain.holders(key)
	lagging := holders[2]
	h := &newerHold{target: lagging.addr, caught: make(chan struct{})}
	defer h.release()
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 3, Dialer: h})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := plain.CreateIf(ctx, key, &dhttest.EpochValue{Epoch: 1, Body: "old"}); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() {
		committed <- c.PutIf(ctx, key, &dhttest.EpochValue{Epoch: 2, Body: "new"}, 1)
	}()
	select {
	case <-h.caught:
	case err := <-committed:
		t.Fatalf("PutIf returned %v with its propagation to %s held", err, lagging.addr)
	case <-time.After(5 * time.Second):
		t.Fatal("no propagation frame reached the hold")
	}
	// The other secondary takes the new value; the lagging one keeps the old.
	for epoch := uint64(0); epoch != 2; {
		v, err := holders[1].do(ctx, req{op: dht.OpGet, key: key})
		if err != nil {
			t.Fatal(err)
		}
		epoch = v.(*dhttest.EpochValue).Epoch
	}
	if v, err := lagging.do(ctx, req{op: dht.OpGet, key: key}); err != nil || v.(*dhttest.EpochValue).Epoch != 1 {
		t.Fatalf("precondition: lagging secondary holds %#v, %v, want epoch 1", v, err)
	}

	sawNew := false
	for i := 0; i < 12; i++ {
		v, err := c.Get(ctx, key)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		switch v.(*dhttest.EpochValue).Epoch {
		case 2:
			sawNew = true
		case 1:
			if sawNew {
				t.Fatalf("read %d returned the old value after an earlier read returned the new", i)
			}
		}
	}
	if !sawNew {
		t.Error("no read returned the committed value")
	}

	h.release()
	if err := <-committed; err != nil {
		t.Fatalf("PutIf after release: %v", err)
	}
	if v, err := lagging.do(ctx, req{op: dht.OpGet, key: key}); err != nil || v.(*dhttest.EpochValue).Epoch != 2 {
		t.Fatalf("lagging secondary holds %#v, %v after release, want epoch 2", v, err)
	}
}

// TestReplicasValidation pins the dial-time contract.
func TestReplicasValidation(t *testing.T) {
	addrs := startServers(t, 2)
	if _, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Replicas: 3}); err == nil {
		t.Error("3 replicas on a 2-node cluster dialed")
	}
	// Duplicate addresses must fail the dial outright — they can never
	// shrink the distinct-node count below the replica count, which would
	// leave a holder window wrapping onto one node twice.
	if _, err := Dial(context.Background(), ClusterConfig{Seeds: []string{addrs[0], addrs[0]}, Replicas: 2}); err == nil {
		t.Error("duplicated node list dialed")
	}
	c, err := Dial(context.Background(), ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if got := len(c.holders("k")); got != 2 {
		t.Errorf("holders = %d nodes, want 2", got)
	}
	if nodes := c.ringNodes(); c.holders("k")[0] != nodes[ownerIndex(nodes, "k")] {
		t.Error("replica set does not start at the owner")
	}
}

// owners is the reference replica set of key on the id-ordered ring
// nodes: the owning node plus the next replicas-1 members clockwise,
// primary first, copied out one by one.
func owners(nodes []*clientNode, replicas int, key string) []*clientNode {
	h := hashring.HashKey(key)
	i := 0
	for ; i < len(nodes); i++ {
		if nodes[i].id >= h {
			break
		}
	}
	out := make([]*clientNode, 0, replicas)
	for k := 0; k < replicas; k++ {
		out = append(out, nodes[(i+k)%len(nodes)])
	}
	return out
}

// TestHoldersMatchOwners: a key's holder window is its replica set, for
// every ring size and replica count and on a ring a view refresh grew and
// then shrank, and its capacity ends at its length, so nothing appended to
// it can write into the ring.
func TestHoldersMatchOwners(t *testing.T) {
	check := func(t *testing.T, c *Client) {
		t.Helper()
		nodes := c.ringNodes()
		for k := 0; k < 1000; k++ {
			key := fmt.Sprintf("key-%d", k)
			got, want := c.holders(key), owners(nodes, c.cfg.Replicas, key)
			if !slices.Equal(got, want) {
				t.Fatalf("%d nodes, %d replicas: holders(%q) = %v, want %v", len(nodes), c.cfg.Replicas, key, addrsOf(got), addrsOf(want))
			}
			if cap(got) != len(got) {
				t.Fatalf("holders(%q) has capacity %d past its %d nodes", key, cap(got), len(got))
			}
		}
	}
	member := func(i int) string { return fmt.Sprintf("10.0.0.%d:7000", i) }
	for size := 1; size <= 5; size++ {
		for replicas := 1; replicas <= size; replicas++ {
			c := &Client{cfg: ClusterConfig{Replicas: replicas}}
			var nodes []*clientNode
			for i := 0; i < size; i++ {
				nodes = append(nodes, &clientNode{id: hashring.HashAddr(member(i)), addr: member(i)})
			}
			c.ring.Store(newRing(nodes, replicas))
			check(t, c)
		}
	}

	// applyView builds its ring with the same newRing: grow 3 → 5, then
	// shrink to 2 (the replica count), and check each.
	c := &Client{cfg: ClusterConfig{Replicas: 2, PoolSize: 1}}
	view := func(n int) dht.ClusterView {
		var v dht.ClusterView
		for i := 0; i < n; i++ {
			v.Upsert(dht.Member{Addr: member(i), State: dht.MemberAlive})
		}
		return v
	}
	for _, n := range []int{3, 5, 2} {
		if !c.applyView(view(n)) {
			t.Fatalf("view of %d members did not change the ring", n)
		}
		if got := len(c.ringNodes()); got != n {
			t.Fatalf("ring of %d members after a view of %d", got, n)
		}
		check(t, c)
	}
	_ = c.Close()
}

func addrsOf(nodes []*clientNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

// TestCondSerializerFailover pins the acting-serializer rule: with write
// failover on, a conditional write whose primary holder is unreachable
// resolves on the first reachable holder, leaving the primary's copy to
// the scrub; without write failover the same write surfaces the fault.
func TestCondSerializerFailover(t *testing.T) {
	ctx := context.Background()
	addrs, srvs := startServerMap(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, FailoverWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	static, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()

	key := "cas-failover"
	holders := c.holders(key)
	primary, secondary := holders[0].addr, holders[1].addr
	_ = srvs[primary].Close()

	// Epoch-tagged values: write failover leaves the down primary's copy
	// of one to the scrub, never of an untagged value.
	if err := static.CreateIf(ctx, key, wideBucket()); err == nil {
		t.Fatal("static client must surface the down primary")
	}
	v1 := wideBucket()
	v1.Records = v1.Records[:3]
	if err := c.CreateIf(ctx, key, v1); err != nil {
		t.Fatalf("CreateIf with serializer failover: %v", err)
	}
	if !srvs[secondary].Has(key) {
		t.Fatal("acting serializer holds no copy")
	}

	// The committed copy is CAS-visible: a conditional update against the
	// acting serializer's epoch succeeds, a stale one conflicts.
	v, err := c.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*ilht.Bucket); len(got.Records) != len(v1.Records) {
		t.Fatalf("read back %d records, want %d", len(got.Records), len(v1.Records))
	}
	if err := c.CreateIf(ctx, key, wideBucket()); err == nil {
		t.Fatal("CreateIf over an existing key must conflict, not fail over")
	}
}
