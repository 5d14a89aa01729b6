package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lht/internal/dht"
	"lht/internal/hashring"
	"lht/internal/metrics"
)

// ClusterConfig is the cluster client configuration, taken whole by Dial,
// the one constructor. The zero value of every field is a sensible
// default; only Seeds is required.
type ClusterConfig struct {
	// Seeds are the bootstrap node addresses. With membership gossip
	// running on the servers they are only the first view — RefreshView
	// grows and shrinks the routing ring as the gossiped view changes.
	// Without gossip they are the static member list, exactly as before.
	Seeds []string
	// PoolSize is the number of multiplexed connections the client keeps
	// per node (default 2; a negative value means 1). Each connection
	// already pipelines many requests; extra connections spread very hot
	// nodes across sockets.
	PoolSize int
	// Replicas stores each key on this many consecutive ring members, its
	// holders (default 1: a holder set of one is an unreplicated client).
	// Replication is client-driven and every operation has one path for
	// any count — see replicas.go for the fan-out and fallback contract.
	// Requires a cluster of at least that many nodes.
	Replicas int
	// Counters chains the client's own counters (failovers, view
	// refreshes) onto a shared metrics sink. Nil counts nothing.
	Counters *metrics.Counters
	// Dialer replaces the transport factory used for every outgoing
	// connection (nil = plain net.Dialer). This is the injection point for
	// the netchaos plane: a scripted dialer can drop, delay, throttle, or
	// partition individual node links under an otherwise unmodified client.
	Dialer ContextDialer
	// DegradedStart lets Dial succeed with part of the cluster
	// unreachable: a dead node's failed first dial backs its redial gate
	// off (health.go), so it fails fast until a later dial finds it
	// recovered and adopts it. Construction still fails when no node is
	// reachable.
	DegradedStart bool
	// FailoverWrites keeps writes available while a holder is down: a
	// conditional resolves on the first reachable holder when the primary
	// is unreachable, and a holder's transport fault on a copy of an
	// epoch-tagged value (or a patch) is dropped while another holder
	// stored it, leaving that copy to the re-replicating scrub, which
	// restores a copy that is missing or carries an older epoch. An
	// untagged value's write still fails with the fault: its copies all
	// read epoch 0, so the scrub could not tell the missed one. Until the
	// scrub runs, a returned holder serves the copy it kept (see
	// replicas.go). Requires Replicas > 1.
	FailoverWrites bool
}

// Client implements dht.DHT over a static set of tcpnet servers: keys are
// mapped to nodes with consistent hashing on the same 64-bit circle the
// Chord substrate uses, so each node owns the arc ending at its hashed
// address. It is safe for concurrent use: each node connection is a
// pipelined multiplexer carrying many requests in flight at once, so
// concurrent callers overlap their round trips instead of queueing on a
// connection mutex, and a batch writes every node's frame before it reads
// any reply, overlapping its round trips on its caller's goroutine.
//
// Contexts bound the dial of a connection, and cancellation abandons the
// request's pending slot — the connection and everyone else's in-flight
// requests are untouched. Transport failures are marked transient
// (dht.IsTransient) so a policy wrapper can retry them; the next attempt
// redials lazily, health-checking the fresh connection with a ping.
type Client struct {
	cfg ClusterConfig // as dialled, defaults filled in; builds nodes for members the view adds

	// ring is the current routing ring. It is replaced wholesale (never
	// mutated) when a membership view refresh changes the member set, so
	// in-flight operations keep a consistent snapshot.
	ring atomic.Pointer[memberRing]

	// view is the client's local membership view: seeded from the
	// bootstrap list, fed suspicion by failed dials, and merged with a
	// server's gossiped view on every RefreshView.
	viewMu sync.Mutex
	view   dht.ClusterView

	// debt tracks keys with a missing, not-yet-restored replica copy per
	// node address (fed by EnsureReplicated; read by ClusterStatus).
	debtMu sync.Mutex
	debt   map[string]map[string]struct{}
}

// memberRing is one immutable routing-ring snapshot.
type memberRing struct {
	nodes []*clientNode // the members, sorted by ring ID
	// ring is nodes followed by the first Replicas-1 of them again, so
	// every key's holders are one window of it (holders).
	ring []*clientNode
}

// newRing builds the snapshot of members, which it sorts in place, for
// keys stored on replicas consecutive members.
func newRing(members []*clientNode, replicas int) *memberRing {
	sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	n := len(members)
	ring := append(members[:n:n], members[:replicas-1]...)
	return &memberRing{nodes: ring[:n:n], ring: ring}
}

// ringNodes returns the current ring snapshot's nodes.
func (c *Client) ringNodes() []*clientNode {
	if r := c.ring.Load(); r != nil {
		return r.nodes
	}
	return nil
}

var (
	_ dht.DHT     = (*Client)(nil)
	_ dht.Prober  = (*Client)(nil)
	_ dht.Patcher = (*Client)(nil)
)

// clientNode is one member's connection state: a pool of multiplexed
// connections, used round-robin.
type clientNode struct {
	id   hashring.ID
	addr string

	conns []*mconn
	next  atomic.Uint32
}

// pick returns the node's next connection in round-robin order.
func (n *clientNode) pick() *mconn {
	if len(n.conns) == 1 {
		return n.conns[0]
	}
	return n.conns[int(n.next.Add(1))%len(n.conns)]
}

// Dial builds a cluster client from cfg and verifies every seed node
// answers a ping, probing all nodes concurrently: the slowest node bounds
// startup instead of the sum of all nodes, and the first hard error
// cancels the remaining probes and is surfaced. The context bounds the
// verification; later operations carry their own contexts.
func Dial(ctx context.Context, cfg ClusterConfig) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("tcpnet: no node addresses")
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 2
	}
	if cfg.PoolSize < 1 {
		cfg.PoolSize = 1
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.FailoverWrites && cfg.Replicas < 2 {
		return nil, errors.New("tcpnet: write failover requires replication")
	}
	c := &Client{cfg: cfg}
	seen := make(map[string]bool, len(cfg.Seeds))
	var nodes []*clientNode
	for _, a := range cfg.Seeds {
		if seen[a] {
			return nil, fmt.Errorf("tcpnet: duplicate node %q", a)
		}
		seen[a] = true
		nodes = append(nodes, c.newNode(a))
		// The bootstrap list seeds the local view; gossip grows it.
		c.view.Upsert(dht.Member{Addr: a, State: dht.MemberAlive})
	}
	// Validated against the built member list, after the duplicate check:
	// the replica count must never exceed the number of distinct nodes, or
	// a holder window would wrap onto a member twice and the per-rank
	// batch fan-out would index past the ring.
	if cfg.Replicas > len(nodes) {
		return nil, fmt.Errorf("tcpnet: %d replicas exceed the %d-node cluster", cfg.Replicas, len(nodes))
	}
	c.ring.Store(newRing(nodes, cfg.Replicas))

	if cfg.DegradedStart {
		if err := c.verifyDegraded(ctx); err != nil {
			_ = c.Close()
			return nil, err
		}
	} else if err := c.verifyAll(ctx, nodes); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// newNode builds one member's connection state from the configuration
// the client was dialled with. Used at construction and again whenever a
// view refresh admits a new member.
func (c *Client) newNode(a string) *clientNode {
	// A failed dial is local evidence of failure: mark the member suspect
	// so the next gossip exchange spreads the doubt.
	return newClientNode(a, c.cfg.Dialer, c.cfg.PoolSize, func() { c.markSuspect(a) })
}

// newClientNode builds the connection state for the node at addr: pool
// pipelined connections through dial, whose redial gates call suspect
// (nil: nothing) on a failed dial. A client builds its members with it,
// and a server its gossip peers.
func newClientNode(addr string, dial ContextDialer, pool int, suspect func()) *clientNode {
	n := &clientNode{id: hashring.HashAddr(addr), addr: addr}
	for i := 0; i < pool; i++ {
		n.conns = append(n.conns, &mconn{addr: addr, dial: dial, gate: redialGate{suspect: suspect}})
	}
	return n
}

// close tears down every connection of n for good.
func (n *clientNode) close() {
	for _, m := range n.conns {
		m.close()
	}
}

// verifyAll probes all members concurrently; the first failure wins and
// cancels the rest, so one dead node surfaces at its own dial latency.
func (c *Client) verifyAll(ctx context.Context, nodes []*clientNode) error {
	vctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for _, n := range nodes {
		wg.Add(1)
		go func(n *clientNode) {
			defer wg.Done()
			err := n.conns[0].connect(vctx) // dials and pings
			if err == nil {
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("tcpnet: ping %q: %w", n.addr, err)
				cancel()
			}
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	return firstErr
}

// Close tears down all connections.
func (c *Client) Close() error {
	for _, n := range c.ringNodes() {
		n.close()
	}
	return nil
}

// holders returns key's replica set, primary first: the node responsible
// for key (the first clockwise from hash(key)) and the next Replicas-1
// members. It is a window on the ring snapshot whose capacity ends at its
// length: read-only, and free.
func (c *Client) holders(key string) []*clientNode {
	r := c.ring.Load()
	i := ownerIndex(r.nodes, key)
	return r.ring[i : i+c.cfg.Replicas : i+c.cfg.Replicas]
}

// ownerIndex is the position in nodes, a ring in id order, of the node
// responsible for key.
func ownerIndex(nodes []*clientNode, key string) int {
	h := hashring.HashKey(key)
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i].id >= h })
	if i == len(nodes) {
		i = 0
	}
	return i
}

// MaxInFlight reports the highest number of requests any single
// connection has had in flight at once — the pipelining depth actually
// reached.
func (c *Client) MaxInFlight() int {
	max := 0
	for _, n := range c.ringNodes() {
		for _, m := range n.conns {
			if h := m.maxInFlight(); h > max {
				max = h
			}
		}
	}
	return max
}

// NodeAddrs returns the current member addresses in ring order.
func (c *Client) NodeAddrs() []string {
	nodes := c.ringNodes()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

// serverErr converts a wire error payload into the caller-facing error.
func serverErr(msg []byte) error {
	return fmt.Errorf("tcpnet: server error: %s", msg)
}

// simpleCall performs one framed round trip whose frame is not a req's
// (the membership exchanges, and the raw copies below) and returns the
// response's tagged value bytes (nil for value-less ops) plus the pooled
// frame to recycle after the value is decoded.
func (n *clientNode) simpleCall(ctx context.Context, op dht.OpKind, build func([]byte) ([]byte, error)) (val []byte, frame *[]byte, err error) {
	body, err := n.pick().call(ctx, op, build)
	if err != nil {
		return nil, nil, err
	}
	c := cursor{b: *body}
	status, err := c.u8()
	if err == nil && status == statusOK {
		return c.rest(), body, nil
	}
	if err != nil {
		err = malformedResp(err)
	} else {
		err = replyErr(status, &c, "")
	}
	putBuf(body)
	return nil, nil, err
}

// getRaw fetches key's stored tagged bytes from n, without decoding:
// re-replication moves bytes between holders verbatim, so the epoch tag
// (and the value it guards) survive untouched.
func (n *clientNode) getRaw(ctx context.Context, key string) ([]byte, error) {
	tv, frame, err := n.simpleCall(ctx, dht.OpGet, func(b []byte) ([]byte, error) {
		return appendKey(b, key), nil
	})
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), tv...)
	putBuf(frame)
	return out, nil
}

// putNewer stores already-tagged bytes on n over the epoch-ordered
// OpPutNewer path: if n accepted a fresher write in the meantime, this
// copy loses, which is exactly right for a restore.
func (n *clientNode) putNewer(ctx context.Context, key string, tagged []byte) error {
	_, frame, err := n.simpleCall(ctx, dht.OpPutNewer, func(b []byte) ([]byte, error) {
		return append(appendKey(b, key), tagged...), nil
	})
	if err != nil {
		return err
	}
	putBuf(frame)
	return nil
}

// probeHint is a get request's optional tail: set makes the get a probe.
type probeHint struct {
	v   uint64
	set bool
}

// req is one keyed request as a value: the op and what its frame
// carries. It is handed on by value, so building and sending one costs no
// allocation; only fanOut's goroutines take a copy to the heap.
type req struct {
	op    dht.OpKind
	key   string
	val   dht.Value // the put-like ops and conditionals
	epoch uint64    // PutIf, RemoveIf, WriteIf, patchif modes 1 and 2
	hint  probeHint // get, patchif mode 0
	mode  byte      // patchif
	patch []byte    // patchif
}

// frame appends r's payload to b: the key, then what r.op carries. It is
// the one place a keyed request's frame is spelt out.
func (r req) frame(b []byte) ([]byte, error) {
	b = appendKey(b, r.key)
	switch r.op {
	case dht.OpGet:
		if r.hint.set {
			b = binary.BigEndian.AppendUint64(b, r.hint.v)
		}
		return b, nil
	case dht.OpTake, dht.OpRemove:
		return b, nil
	case dht.OpRemoveIf:
		return appendUv(b, r.epoch), nil
	case dht.OpPatchIf:
		if b = append(b, r.mode); r.mode == patchProbe {
			b = binary.BigEndian.AppendUint64(b, r.hint.v)
		} else {
			b = appendUv(b, r.epoch)
		}
		return append(b, r.patch...), nil
	case dht.OpPutIf, dht.OpWriteIf:
		b = appendUv(b, r.epoch)
	}
	return appendValue(b, r.val)
}

// propagated is the request that carries r's accepted outcome to a holder
// other than the serializer that accepted it: the patch again in newer
// mode at the epoch the serializer patched (r.epoch, which doAt recorded
// for a Patch), a removal, or the value over the epoch-ordered putnewer.
func (r req) propagated() req {
	switch r.op {
	case dht.OpPatchIf:
		r.mode = patchNewer
	case dht.OpRemoveIf:
		r.op = dht.OpRemove
	default:
		r.op = dht.OpPutNewer
	}
	return r
}

// do performs r on n in one framed round trip. It answers the value a
// get or take found, the decoded reply of a serializer's applied patch,
// and nil for anything else; statusCASConflict is the typed
// *dht.CASConflictError. A patch the node would not apply is
// dht.ErrPatchRefused, beside — for a Patch — the answer to the get it
// rode. A value with no stored form fails before the connection is
// touched.
func (n *clientNode) do(ctx context.Context, r req) (dht.Value, error) {
	return n.doAt(ctx, &r)
}

// doAt is do that records in r.epoch, for a Patch the node applied, the
// epoch of the value it patched: what the propagation to the other holders
// carries.
func (n *clientNode) doAt(ctx context.Context, r *req) (v dht.Value, err error) {
	if r.val != nil {
		if err := storable(r.val); err != nil {
			return nil, err
		}
	}
	body, err := n.pick().call(ctx, r.op, r.frame)
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	c := cursor{b: *body}
	status, err := c.u8()
	if err != nil {
		return nil, malformedResp(err)
	}
	switch {
	case status == statusOK && (r.op == dht.OpGet || r.op == dht.OpTake):
		return decodeTagged(c.rest(), r.hint.set)
	case status == statusOK && r.op == dht.OpPatchIf && r.mode != patchNewer:
		epoch, err := r.epoch, error(nil)
		if r.mode == patchProbe {
			epoch, err = c.uvarint()
		}
		kind, kerr := c.u8()
		if err != nil || kerr != nil {
			return nil, dht.MarkTransient(fmt.Errorf("tcpnet: malformed patch reply"))
		}
		v, err := dht.DecodePatchReply(kind, c.rest())
		if err == nil {
			r.epoch = epoch
		}
		return v, err
	case status == statusOK:
		return nil, nil
	case r.op == dht.OpPatchIf && status == statusPatchRefused:
		if r.mode != patchProbe {
			return nil, dht.ErrPatchRefused
		}
		if v, err = decodeTagged(c.rest(), true); err != nil {
			return nil, err
		}
		return v, dht.ErrPatchRefused
	}
	return nil, replyErr(status, &c, r.key)
}

// replyErr turns a non-ok response, past its status byte, into the
// caller-facing error; key names the conflicting key of a conditional.
func replyErr(status byte, c *cursor, key string) error {
	switch status {
	case statusNotFound:
		return dht.ErrNotFound
	case statusCASConflict:
		exists, err1 := c.u8()
		winner, err2 := c.uvarint()
		if err1 != nil || err2 != nil {
			return dht.MarkTransient(fmt.Errorf("tcpnet: malformed conflict response"))
		}
		return &dht.CASConflictError{Key: key, Exists: exists != 0, WinnerEpoch: winner}
	default:
		return serverErr(c.rest())
	}
}

// Get implements dht.DHT.
func (c *Client) Get(ctx context.Context, key string) (dht.Value, error) {
	return c.get(ctx, req{op: dht.OpGet, key: key})
}

// Probe implements dht.Prober: a get that carries hint to the storing
// node, which answers a dht.WireValue whose kind registered a projector
// with what that ships, possibly less than the value (see frame.go).
func (c *Client) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	return c.get(ctx, req{op: dht.OpGet, key: key, hint: probeHint{v: hint, set: true}})
}

// Put implements dht.DHT: every holder stores the value.
func (c *Client) Put(ctx context.Context, key string, v dht.Value) error {
	return c.eachHolder(ctx, req{op: dht.OpPut, key: key, val: v})
}

// Take fetches and deletes key on every holder and returns the first copy
// found. It is no dht.DHT method: its one caller is the benchmark's
// --trace 1 tap, and it goes when that tap does.
func (c *Client) Take(ctx context.Context, key string) (dht.Value, error) {
	return c.take(ctx, req{op: dht.OpTake, key: key})
}

// Remove implements dht.DHT: every holder deletes the key.
func (c *Client) Remove(ctx context.Context, key string) error {
	return c.eachHolder(ctx, req{op: dht.OpRemove, key: key})
}

// Write implements dht.DHT: every holder rewrites the value in place.
func (c *Client) Write(ctx context.Context, key string, v dht.Value) error {
	return c.eachHolder(ctx, req{op: dht.OpWrite, key: key, val: v})
}

// Patch implements dht.Patcher: a probe of key carrying hint, routed like
// every conditional to the key's serializer, which builds the new value
// from the stored bytes and patch with the kind's dht.WirePatcher if that
// applies it, and otherwise answers the probe (see frame.go). An applied
// patch reaches the other holders in newer mode.
func (c *Client) Patch(ctx context.Context, key string, hint uint64, patch []byte) (dht.Value, error) {
	return c.cond(ctx, req{op: dht.OpPatchIf, key: key, mode: patchProbe, hint: probeHint{v: hint, set: true}, patch: patch})
}

// WritePatchIf implements dht.Patcher: the patch as the free WriteIf on
// the key's serializer, guarded by ifEpoch.
func (c *Client) WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	return c.cond(ctx, req{op: dht.OpPatchIf, key: key, mode: patchInPlace, patch: patch, epoch: ifEpoch})
}

// PutIf implements dht.Conditional: the key's serializer compares the
// stored value's epoch tag and swaps atomically under its store lock.
func (c *Client) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	_, err := c.cond(ctx, req{op: dht.OpPutIf, key: key, val: v, epoch: ifEpoch})
	return err
}

// CreateIf implements dht.Conditional.
func (c *Client) CreateIf(ctx context.Context, key string, v dht.Value) error {
	_, err := c.cond(ctx, req{op: dht.OpCreateIf, key: key, val: v})
	return err
}

// RemoveIf implements dht.Conditional.
func (c *Client) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	_, err := c.cond(ctx, req{op: dht.OpRemoveIf, key: key, epoch: ifEpoch})
	return err
}

// WriteIf implements dht.Conditional: the epoch-guarded form of Write.
func (c *Client) WriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	_, err := c.cond(ctx, req{op: dht.OpWriteIf, key: key, val: v, epoch: ifEpoch})
	return err
}
