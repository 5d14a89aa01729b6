package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// (or the RefreshInterval loop) grows and shrinks the routing ring as
	// the gossiped view changes. Without gossip they are the static
	// member list, exactly as before.
	Seeds []string
	// PoolSize is the number of multiplexed connections the client keeps
	// per node (default 2; a negative value means 1). Each connection
	// already pipelines many requests; extra connections spread very hot
	// nodes across sockets.
	PoolSize int
	// Replicas stores each key on this many consecutive ring members
	// (default 1 = unreplicated). Replication is client-driven — see
	// replicas.go for the fan-out, fallback and read-spreading contract.
	// Requires a cluster of at least that many nodes.
	Replicas int
	// Counters chains the client's load counters (spread reads, breaker
	// opens) onto a shared metrics sink. Nil keeps the client's local
	// SpreadReads tally only.
	Counters *metrics.Counters
	// Dialer replaces the transport factory used for every outgoing
	// connection (nil = plain net.Dialer). This is the injection point for
	// the netchaos plane: a scripted dialer can drop, delay, throttle, or
	// partition individual node links under an otherwise unmodified client.
	Dialer ContextDialer
	// Health enables the graceful-degradation plane: one circuit breaker
	// per node with the given configuration (zero fields defaulted — see
	// dht.BreakerConfig). Consecutive transport failures open the node's
	// breaker; while open, every operation against it fails instantly with
	// a typed *dht.UnavailableError, replicated reads fail over to the next
	// holder immediately, and the first operation after the cooldown probes
	// the node half-open. See health.go for the full contract.
	Health *dht.BreakerConfig
	// DegradedStart lets Dial succeed with part of the cluster
	// unreachable: dead nodes are registered with their breaker already
	// open, so they fail fast until a half-open probe finds them recovered
	// and adopts them. Implies Health (with defaults, if not configured
	// explicitly). Construction still fails when no node is reachable.
	DegradedStart bool
	// HintedHandoff parks put-like fan-outs that fail against a down
	// holder on a reachable node instead of surfacing the fault: the park
	// (OpHintPut) tags the value with its epoch, and the holding node
	// replays it to the returned holder over the epoch-ordered putnewer
	// path. Requires Replicas > 1.
	HintedHandoff bool
	// RefreshInterval, when positive, runs a background loop calling
	// RefreshView at that period, keeping the routing ring synced to the
	// servers' gossiped membership view. Zero leaves refresh manual.
	RefreshInterval time.Duration
}

// Client implements dht.DHT over a static set of tcpnet servers: keys are
// mapped to nodes with consistent hashing on the same 64-bit circle the
// Chord substrate uses, so each node owns the arc ending at its hashed
// address. It is safe for concurrent use: each node connection is a
// pipelined multiplexer carrying many requests in flight at once, so
// concurrent callers (and the batch plane's per-node fan-out) overlap
// their round trips instead of queueing on a connection mutex.
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
	// bootstrap list, fed suspicion by breaker opens, and merged with a
	// server's gossiped view on every RefreshView.
	viewMu sync.Mutex
	view   dht.ClusterView

	// debt tracks keys with a missing, not-yet-restored replica copy per
	// node address (fed by EnsureReplicated; read by ClusterStatus).
	debtMu sync.Mutex
	debt   map[string]map[string]struct{}

	refreshCancel context.CancelFunc
	refreshWG     sync.WaitGroup

	readSeq     atomic.Uint64 // read-spreading rotation sequence
	spreadReads atomic.Int64  // reads started at a non-primary holder
}

// memberRing is one immutable routing-ring snapshot.
type memberRing struct {
	nodes []*clientNode // sorted by ring ID
}

// ringNodes returns the current ring snapshot's nodes.
func (c *Client) ringNodes() []*clientNode {
	if r := c.ring.Load(); r != nil {
		return r.nodes
	}
	return nil
}

var (
	_ dht.DHT         = (*Client)(nil)
	_ dht.Conditional = (*Client)(nil)
	_ dht.Prober      = (*Client)(nil)
	_ dht.Patcher     = (*Client)(nil)
)

// clientNode is one member's connection state: a pool of multiplexed
// connections, used round-robin.
type clientNode struct {
	id   hashring.ID
	addr string

	conns []*mconn
	next  atomic.Uint32

	br       *dht.Breaker // health plane; nil when ClusterConfig.Health is nil
	counters *metrics.Counters
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
	if cfg.HintedHandoff && cfg.Replicas < 2 {
		return nil, errors.New("tcpnet: hinted handoff requires replication")
	}
	if cfg.DegradedStart && cfg.Health == nil {
		cfg.Health = &dht.BreakerConfig{}
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
	// owners() would hand out short holder sets and the per-rank batch
	// fan-out would index past them.
	if cfg.Replicas > len(nodes) {
		return nil, fmt.Errorf("tcpnet: %d replicas exceed the %d-node cluster", cfg.Replicas, len(nodes))
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	c.ring.Store(&memberRing{nodes: nodes})

	if cfg.DegradedStart {
		if err := c.verifyDegraded(ctx); err != nil {
			_ = c.Close()
			return nil, err
		}
	} else if err := c.verifyAll(ctx, nodes); err != nil {
		_ = c.Close()
		return nil, err
	}
	if cfg.RefreshInterval > 0 {
		rctx, cancel := context.WithCancel(context.Background())
		c.refreshCancel = cancel
		c.refreshWG.Add(1)
		go func() {
			defer c.refreshWG.Done()
			t := time.NewTicker(cfg.RefreshInterval)
			defer t.Stop()
			for {
				select {
				case <-rctx.Done():
					return
				case <-t.C:
					_ = c.RefreshView(rctx)
				}
			}
		}()
	}
	return c, nil
}

// newNode builds one member's connection state from the configuration
// the client was dialled with. Used at construction and again whenever a
// view refresh admits a new member.
func (c *Client) newNode(a string) *clientNode {
	n := &clientNode{id: hashring.HashAddr(a), addr: a, counters: c.cfg.Counters}
	if c.cfg.Health != nil {
		cfg := *c.cfg.Health
		if cfg.Seed == 0 {
			// Distinct deterministic jitter stream per node.
			cfg.Seed = int64(n.id) | 1
		}
		prev := cfg.OnOpen
		cfg.OnOpen = func() {
			c.cfg.Counters.Add(metrics.BreakerOpens, 1)
			// An opened breaker is local evidence of failure: mark the
			// member suspect so the next gossip exchange spreads the doubt.
			c.markSuspect(a)
			if prev != nil {
				prev()
			}
		}
		n.br = dht.NewBreaker(cfg)
	}
	for i := 0; i < c.cfg.PoolSize; i++ {
		n.conns = append(n.conns, &mconn{addr: a, dial: c.cfg.Dialer, gate: redialGate{br: n.br}})
	}
	return n
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

// Close stops the view-refresh loop (if any) and tears down all
// connections.
func (c *Client) Close() error {
	if c.refreshCancel != nil {
		c.refreshCancel()
		c.refreshWG.Wait()
	}
	for _, n := range c.ringNodes() {
		for _, m := range n.conns {
			m.close()
		}
	}
	return nil
}

// owner returns the node responsible for key: the first node clockwise
// from hash(key).
func (c *Client) owner(key string) *clientNode {
	nodes := c.ringNodes()
	return nodes[ownerIndex(nodes, key)]
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

// simpleCall performs one non-batch framed round trip and returns the
// response's tagged value bytes (nil for value-less ops) plus the pooled
// frame to recycle after the value is decoded.
func (n *clientNode) simpleCall(ctx context.Context, op dht.OpKind, build func([]byte) ([]byte, error)) (val []byte, frame *[]byte, err error) {
	tok, err := n.allow()
	if err != nil {
		return nil, nil, err
	}
	defer func() { n.record(tok, err) }()
	body, err := n.pick().call(ctx, op, build)
	if err != nil {
		return nil, nil, err
	}
	c := cursor{b: (*body)[frameHeaderLen:]}
	status, err := c.u8()
	if err != nil {
		putBuf(body)
		return nil, nil, dht.MarkTransient(fmt.Errorf("tcpnet: malformed response: %w", err))
	}
	switch status {
	case statusOK:
		return c.rest(), body, nil
	case statusNotFound:
		putBuf(body)
		return nil, nil, dht.ErrNotFound
	default:
		err = serverErr(c.rest())
		putBuf(body)
		return nil, nil, err
	}
}

// probeHint is a get request's optional tail: set makes the get a probe.
type probeHint struct {
	v   uint64
	set bool
}

// Get implements dht.DHT.
func (c *Client) Get(ctx context.Context, key string) (dht.Value, error) {
	return c.get(ctx, key, probeHint{})
}

// Probe implements dht.Prober: a get that carries hint to the storing
// node, which answers a dht.WireValue whose kind registered a projector
// with what that ships, possibly less than the value (see frame.go).
func (c *Client) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	return c.get(ctx, key, probeHint{v: hint, set: true})
}

func (c *Client) get(ctx context.Context, key string, h probeHint) (dht.Value, error) {
	if c.cfg.Replicas > 1 {
		return c.replicatedGet(ctx, key, h)
	}
	return c.getFrom(ctx, c.owner(key), key, h)
}

// Put implements dht.DHT.
func (c *Client) Put(ctx context.Context, key string, v dht.Value) error {
	if c.cfg.Replicas > 1 {
		return c.replicatedPut(ctx, key, v)
	}
	_, frame, err := c.owner(key).simpleCall(ctx, dht.OpPut, func(b []byte) ([]byte, error) {
		return appendValue(appendLenString(b, key), v)
	})
	if err != nil {
		return err
	}
	putBuf(frame)
	return nil
}

// Take implements dht.DHT.
func (c *Client) Take(ctx context.Context, key string) (dht.Value, error) {
	if c.cfg.Replicas > 1 {
		return c.replicatedTake(ctx, key)
	}
	tv, frame, err := c.owner(key).simpleCall(ctx, dht.OpTake, func(b []byte) ([]byte, error) {
		return appendLenString(b, key), nil
	})
	if err != nil {
		return nil, err
	}
	v, err := decodeTaggedValue(tv)
	putBuf(frame)
	return v, err
}

// Remove implements dht.DHT.
func (c *Client) Remove(ctx context.Context, key string) error {
	if c.cfg.Replicas > 1 {
		return c.replicatedRemove(ctx, key)
	}
	_, frame, err := c.owner(key).simpleCall(ctx, dht.OpRemove, func(b []byte) ([]byte, error) {
		return appendLenString(b, key), nil
	})
	if err != nil {
		return err
	}
	putBuf(frame)
	return nil
}

// Write implements dht.DHT: the owning node rewrites the value in place.
func (c *Client) Write(ctx context.Context, key string, v dht.Value) error {
	if c.cfg.Replicas > 1 {
		return c.replicatedWrite(ctx, key, v)
	}
	_, frame, err := c.owner(key).simpleCall(ctx, dht.OpWrite, func(b []byte) ([]byte, error) {
		return appendValue(appendLenString(b, key), v)
	})
	if err != nil {
		return err
	}
	putBuf(frame)
	return nil
}

// condCall performs one framed conditional round trip: like simpleCall,
// but mapping statusCASConflict to the typed *dht.CASConflictError. The
// conditional ops carry no response value, so the frame is recycled here.
func (n *clientNode) condCall(ctx context.Context, op dht.OpKind, key string, build func([]byte) ([]byte, error)) (err error) {
	tok, err := n.allow()
	if err != nil {
		return err
	}
	defer func() { n.record(tok, err) }()
	body, err := n.pick().call(ctx, op, build)
	if err != nil {
		return err
	}
	defer putBuf(body)
	c := cursor{b: (*body)[frameHeaderLen:]}
	status, err := c.u8()
	if err != nil {
		return dht.MarkTransient(fmt.Errorf("tcpnet: malformed response: %w", err))
	}
	if status == statusOK {
		return nil
	}
	return condErr(status, &c, key)
}

// condErr turns a conditional op's non-ok response, past its status
// byte, into the caller-facing error.
func condErr(status byte, c *cursor, key string) error {
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

// patchCall performs one patchif round trip in the given mode. A primary
// or in-place patch that was applied returns the patcher's decoded reply,
// a newer one nil; a node that would not patch, or does not know the op,
// returns dht.ErrPatchRefused — and so does, with no round trip, a node
// whose handshake did not say it serves in-place patches.
func (n *clientNode) patchCall(ctx context.Context, key string, mode byte, patch []byte, ifEpoch uint64) (v dht.Value, err error) {
	tok, err := n.allow()
	if err != nil {
		return nil, err
	}
	defer func() { n.record(tok, err) }()
	m := n.pick()
	if mode == patchInPlace {
		served, err := m.serves(ctx, featInPlacePatch)
		if err != nil {
			return nil, err
		}
		if !served {
			return nil, dht.ErrPatchRefused
		}
	}
	body, err := m.call(ctx, dht.OpPatchIf, func(b []byte) ([]byte, error) {
		b = append(appendLenString(b, key), mode)
		return append(appendUv(b, ifEpoch), patch...), nil
	})
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	c := cursor{b: (*body)[frameHeaderLen:]}
	status, err := c.u8()
	if err != nil {
		return nil, dht.MarkTransient(fmt.Errorf("tcpnet: malformed response: %w", err))
	}
	switch {
	case status == statusOK && mode == patchNewer:
		return nil, nil
	case status == statusOK:
		kind, err := c.u8()
		if err != nil {
			return nil, dht.MarkTransient(fmt.Errorf("tcpnet: malformed patch reply: %w", err))
		}
		return dht.DecodePatchReply(kind, c.rest())
	case status == statusPatchRefused, status == statusErr && string(c.b) == errUnknownOp:
		return nil, dht.ErrPatchRefused
	}
	return nil, condErr(status, &c, key)
}

// PatchIf implements dht.Patcher: PutIf's compare-and-swap on the owning
// node, with the new value built there from the stored bytes and patch
// by the kind's dht.WirePatcher (see frame.go).
func (c *Client) PatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	return c.patch(ctx, key, patchPrimary, patch, ifEpoch)
}

// WritePatchIf implements dht.Patcher: PatchIf as the free WriteIf, on a
// node that serves it (its handshake says so; any other refuses).
func (c *Client) WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (dht.Value, error) {
	return c.patch(ctx, key, patchInPlace, patch, ifEpoch)
}

func (c *Client) patch(ctx context.Context, key string, mode byte, patch []byte, ifEpoch uint64) (dht.Value, error) {
	if c.cfg.Replicas > 1 {
		return c.replicatedPatchIf(ctx, key, mode, patch, ifEpoch)
	}
	return c.owner(key).patchCall(ctx, key, mode, patch, ifEpoch)
}

// PutIf implements dht.Conditional: the owning node compares the stored
// value's epoch tag and swaps atomically under its store lock.
func (c *Client) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if c.cfg.Replicas > 1 {
		return c.replicatedPutIf(ctx, key, v, ifEpoch)
	}
	return c.owner(key).condCall(ctx, dht.OpPutIf, key, func(b []byte) ([]byte, error) {
		b = appendLenString(b, key)
		b = appendUv(b, ifEpoch)
		return appendValue(b, v)
	})
}

// CreateIf implements dht.Conditional.
func (c *Client) CreateIf(ctx context.Context, key string, v dht.Value) error {
	if c.cfg.Replicas > 1 {
		return c.replicatedCreateIf(ctx, key, v)
	}
	return c.owner(key).condCall(ctx, dht.OpCreateIf, key, func(b []byte) ([]byte, error) {
		return appendValue(appendLenString(b, key), v)
	})
}

// RemoveIf implements dht.Conditional.
func (c *Client) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	if c.cfg.Replicas > 1 {
		return c.replicatedRemoveIf(ctx, key, ifEpoch)
	}
	return c.owner(key).condCall(ctx, dht.OpRemoveIf, key, func(b []byte) ([]byte, error) {
		b = appendLenString(b, key)
		return appendUv(b, ifEpoch), nil
	})
}

// WriteIf implements dht.Conditional: the epoch-guarded form of Write.
func (c *Client) WriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if c.cfg.Replicas > 1 {
		return c.replicatedWriteIf(ctx, key, v, ifEpoch)
	}
	return c.owner(key).condCall(ctx, dht.OpWriteIf, key, func(b []byte) ([]byte, error) {
		b = appendLenString(b, key)
		b = appendUv(b, ifEpoch)
		return appendValue(b, v)
	})
}
