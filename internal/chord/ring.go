package chord

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"lht/internal/dht"
	"lht/internal/hashring"
	"lht/internal/simnet"
)

var (
	// ErrNoNodes reports an operation against a ring with no live nodes.
	ErrNoNodes = errors.New("chord: no live nodes")
	// ErrNodeExists reports adding an address twice.
	ErrNodeExists = errors.New("chord: node already exists")
	// ErrNodeUnknown reports removing an address the ring never had.
	ErrNodeUnknown = errors.New("chord: unknown node")

	errLookupDiverged = errors.New("chord: lookup diverged (ring too unstable)")
)

// Config tunes a Ring.
type Config struct {
	// SuccessorListLen is the fault-tolerance depth of each node's
	// successor list. Default 8.
	SuccessorListLen int
	// Replicas is the number of consecutive successors each key is
	// stored on (1 = no replication). Reads start at the primary and fall
	// back along the replica chain when it has failed. Default 1.
	Replicas int
	// StabilizeRounds is how many stabilization sweeps AddNode runs after
	// a join so tests get a coherent ring without calling Stabilize
	// themselves. Default 2.
	StabilizeRounds int
	// Seed drives entry-point selection and stabilization order.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SuccessorListLen <= 0 {
		c.SuccessorListLen = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.StabilizeRounds <= 0 {
		c.StabilizeRounds = 2
	}
	return c
}

// Ring is a Chord network plus its client side. It implements dht.DHT, so
// an LHT or PHT index runs over it unchanged.
//
// Ring methods are safe for concurrent use; the protocol itself is
// step-driven (Stabilize), so the harness controls when maintenance runs.
type Ring struct {
	cfg Config
	net *simnet.Network

	mu    sync.Mutex
	rng   *rand.Rand
	nodes map[string]*Node // every node ever added and not removed

	// held is the per-key holder registry: every node that may store a
	// copy of the key (fed by Node.onStore from every copy-creating path,
	// including stabilization handoffs). It scopes retireStale to the
	// nodes that could actually hold a stale remnant — O(holders) per
	// write instead of a sweep over the whole ring under the global lock.
	// Entries survive a holder's downtime (an unreachable node cannot be
	// retired) so the stranded copy is reclaimed by the first write after
	// recovery, exactly as the full sweep used to.
	heldMu sync.Mutex
	held   map[string]map[*Node]struct{}

	// casMu serializes conditional read-compare-write cycles per key
	// across the key's whole replica set, standing in for the responsible
	// peer applying the CAS atomically in a deployed ring.
	casMu dht.KeyLocks
}

var (
	_ dht.DHT         = (*Ring)(nil)
	_ dht.Conditional = (*Ring)(nil)
)

// NewRing creates a ring with n initial nodes named "n0".."n<n-1>", fully
// stabilized.
func NewRing(n int, cfg Config) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("chord: ring needs at least 1 node, got %d", n)
	}
	r := &Ring{
		cfg:   cfg.withDefaults(),
		net:   simnet.New(),
		nodes: make(map[string]*Node, n),
		held:  make(map[string]map[*Node]struct{}),
	}
	r.rng = rand.New(rand.NewSource(r.cfg.Seed))
	for i := 0; i < n; i++ {
		if err := r.AddNode(fmt.Sprintf("n%d", i)); err != nil {
			return nil, err
		}
	}
	// Enough sweeps for fingers to converge on the initial membership.
	r.Stabilize(3)
	return r, nil
}

// Network exposes the underlying simulated network (message counters,
// failure injection).
func (r *Ring) Network() *simnet.Network { return r.net }

// AddNode creates a node at addr, joins it through a random live member,
// and runs a few stabilization sweeps to integrate it.
func (r *Ring) AddNode(addr string) error {
	r.mu.Lock()
	if _, ok := r.nodes[addr]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeExists, addr)
	}
	node := newNode(Ref{ID: hashring.HashAddr(addr), Addr: addr}, r.net, r.cfg.SuccessorListLen)
	node.onStore = func(keys ...string) { r.recordHold(node, keys) }
	entry := r.randomLiveLocked()
	r.nodes[addr] = node
	r.mu.Unlock()
	r.net.Register(addr, node)

	if entry == nil {
		return nil // first node: its own ring
	}
	succ, _, err := entry.findSuccessor(context.Background(), node.ref.ID, 0)
	if err != nil {
		return fmt.Errorf("chord: join %q: %w", addr, err)
	}
	node.mu.Lock()
	node.succ = []Ref{succ}
	node.mu.Unlock()
	node.stabilize()
	r.Stabilize(r.cfg.StabilizeRounds)
	return nil
}

// RemoveNode takes a node out of the ring. Graceful departure hands the
// node's keys to its successor before leaving; an abrupt failure
// (graceful=false) strands them, modelling a crash - replication and
// stabilization are what keep the system serving.
func (r *Ring) RemoveNode(addr string, graceful bool) error {
	r.mu.Lock()
	node, ok := r.nodes[addr]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeUnknown, addr)
	}
	delete(r.nodes, addr)
	r.mu.Unlock()

	if graceful {
		node.mu.Lock()
		data := node.data
		node.data = make(map[string]dht.Value)
		succs := make([]Ref, len(node.succ))
		copy(succs, node.succ)
		node.mu.Unlock()
		for _, s := range succs {
			if s.Addr == addr {
				continue
			}
			if peer, err := node.call(s.Addr); err == nil {
				peer.rpcStoreBatch(data)
				break
			}
		}
	}
	r.net.Unregister(addr)
	return nil
}

// Fail marks a node crashed (unreachable) without removing its state;
// Recover brings it back, as a rebooted peer re-entering with stale state.
func (r *Ring) Fail(addr string)    { r.net.SetDown(addr, true) }
func (r *Ring) Recover(addr string) { r.net.SetDown(addr, false) }

// Stabilize runs the given number of maintenance sweeps: every live node
// stabilizes, checks its predecessor, and refreshes its finger table.
// Order is randomized per sweep, as asynchronous timers would interleave.
func (r *Ring) Stabilize(rounds int) {
	for i := 0; i < rounds; i++ {
		nodes := r.liveNodes()
		r.mu.Lock()
		r.rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
		r.mu.Unlock()
		for _, n := range nodes {
			n.checkPredecessor()
			n.stabilize()
			for f := 0; f < hashring.Bits; f++ {
				n.fixFinger(f)
			}
		}
	}
}

// liveNodes returns the nodes that are registered and not failed.
func (r *Ring) liveNodes() []*Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Node, 0, len(r.nodes))
	for addr, n := range r.nodes {
		if !r.net.Down(addr) {
			out = append(out, n)
		}
	}
	return out
}

// NodeAddrs returns the live node addresses in sorted order.
func (r *Ring) NodeAddrs() []string {
	nodes := r.liveNodes()
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.ref.Addr)
	}
	sort.Strings(out)
	return out
}

func (r *Ring) randomLiveLocked() *Node {
	candidates := make([]*Node, 0, len(r.nodes))
	for addr, n := range r.nodes {
		if !r.net.Down(addr) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	// Map iteration is already random, but seed-driven selection keeps
	// runs reproducible.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ref.Addr < candidates[j].ref.Addr })
	return candidates[r.rng.Intn(len(candidates))]
}

func (r *Ring) entry() (*Node, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.randomLiveLocked()
	if n == nil {
		return nil, ErrNoNodes
	}
	return n, nil
}

// Lookup resolves the node responsible for a DHT key and reports the hop
// count, Chord's O(log N) routing at work. The context bounds the hop
// walk: cancellation stops routing mid-lookup.
func (r *Ring) Lookup(ctx context.Context, key string) (Ref, int, error) {
	entry, err := r.entry()
	if err != nil {
		return zeroRef, 0, err
	}
	return entry.findSuccessor(ctx, hashring.HashKey(key), 0)
}

// replicaChain resolves the responsible node and up to Replicas-1 of its
// live successors, retrying the lookup from other entries on failure. It
// also reports whether it had to slide past an unreachable holder, so
// callers can classify an empty read as a transient fault rather than a
// missing key.
func (r *Ring) replicaChain(ctx context.Context, key string) (chain []*Node, hops int, slid bool, err error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, hops, slid, cerr
		}
		entry, err := r.entry()
		if err != nil {
			return nil, hops, slid, err
		}
		primary, h, err := entry.findSuccessor(ctx, hashring.HashKey(key), hops)
		hops = h
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, hops, slid, err
			}
			continue
		}
		chain := make([]*Node, 0, r.cfg.Replicas)
		seen := map[string]bool{}
		ref := primary
		for len(chain) < r.cfg.Replicas && !seen[ref.Addr] {
			seen[ref.Addr] = true
			peer, err := entry.call(ref.Addr)
			if ref.Addr != entry.ref.Addr {
				hops++
			}
			if err == nil {
				chain = append(chain, peer)
				next := peer.rpcSuccessorList()
				if len(next) == 0 {
					break
				}
				ref = next[0]
				continue
			}
			// Primary (or a replica) is down: slide along the successor
			// chain via the entry's routing.
			slid = true
			nref, h2, err2 := entry.findSuccessor(ctx, hashring.Add(ref.ID, 1), hops)
			hops = h2
			if err2 != nil || seen[nref.Addr] {
				break
			}
			ref = nref
		}
		if len(chain) > 0 {
			return chain, hops, slid, nil
		}
		lastErr = dht.MarkTransient(fmt.Errorf("no live replica holder: %w", simnet.ErrUnreachable))
	}
	if lastErr == nil {
		lastErr = errLookupDiverged
	}
	// Every way of landing here - routing diverged on a churning ring, no
	// live replica holder - is a fault a later retry may outlive, so the
	// whole class is transient.
	return nil, hops, slid, dht.MarkTransient(fmt.Errorf("chord: %q unroutable: %w", key, lastErr))
}

// recordHold marks n as a possible holder of keys in the retirement
// registry. Invoked (via Node.onStore) after every store, with the
// node's own mutex released.
func (r *Ring) recordHold(n *Node, keys []string) {
	r.heldMu.Lock()
	defer r.heldMu.Unlock()
	for _, k := range keys {
		m := r.held[k]
		if m == nil {
			m = make(map[*Node]struct{}, r.cfg.Replicas+1)
			r.held[k] = m
		}
		m[n] = struct{}{}
	}
}

// retireStale deletes key from every registered holder outside keep. A
// replica-set write replaces every current copy, so a copy held
// anywhere else is a stale remnant of an earlier chain — a holder that
// slid out of the replica set during churn and missed the write. Left
// in place it would resurface when churn slides that node back into
// the chain: a node that slides back can become the key's primary,
// where every read starts, and serve the remnant over the current copy
// behind it. Retiring it keeps "any stored copy is the latest write"
// true. Retirement is scoped by the holder registry (r.held) rather than
// sweeping the whole ring: every copy-creating path records itself, so
// the registry is a superset of the nodes that can hold a remnant, and a
// write touches
// O(holders) nodes without the global lock.
//
// Down nodes are skipped, as a real system cannot reach them, but stay
// registered: the first write after recovery retires their stranded
// copy. Until that write, a recovered secondary's stale copy is
// shadowed by the live primary, which reads ask first (pinned by
// TestRecoveredStaleCopyWindow in chord_test.go); only a recovered node
// that is the key's primary can serve it — the Fail/Recover staleness
// the bucket epoch orders and the index scrub repairs.
func (r *Ring) retireStale(key string, keep []*Node) {
	inKeep := make(map[*Node]bool, len(keep))
	for _, n := range keep {
		inKeep[n] = true
	}
	r.heldMu.Lock()
	defer r.heldMu.Unlock()
	for n := range r.held[key] {
		if inKeep[n] {
			continue
		}
		if r.net.Down(n.ref.Addr) {
			continue // unreachable: stays registered, retired after recovery
		}
		n.mu.Lock()
		delete(n.data, key)
		n.mu.Unlock()
		delete(r.held[key], n)
	}
	if len(r.held[key]) == 0 {
		delete(r.held, key)
	}
}

// errMissing distinguishes the two causes of a read that found no value:
// an unreachable holder that a later retry may reach again (transient), or
// a genuinely absent key.
func errMissing(key string, slid bool) error {
	if slid {
		return dht.MarkTransient(fmt.Errorf("chord: %q holder unreachable: %w", key, simnet.ErrUnreachable))
	}
	return dht.ErrNotFound
}

// --- dht.DHT -------------------------------------------------------------

// Put implements dht.DHT: route to the responsible node and store, then
// replicate along the successor chain.
func (r *Ring) Put(ctx context.Context, key string, v dht.Value) error {
	chain, _, _, err := r.replicaChain(ctx, key)
	if err != nil {
		return err
	}
	for _, n := range chain {
		n.rpcStore(key, v)
	}
	r.retireStale(key, chain)
	return nil
}

// Get implements dht.DHT: it reads the primary first (a hedged duplicate
// the first secondary, dht.ReadStart), falling back along the replica
// chain. Chain members are fetched by direct calls, which the cost model
// does not charge, so a fallback adds no DHT-lookup. When no
// live replica holds the key but an unreachable holder was slid past, the
// miss is reported as a transient fault, not ErrNotFound: the value may
// still exist on the crashed peer.
func (r *Ring) Get(ctx context.Context, key string) (dht.Value, error) {
	chain, _, slid, err := r.replicaChain(ctx, key)
	if err != nil {
		return nil, err
	}
	start := dht.ReadStart(ctx)
	for i := range chain {
		if v, ok := chain[(start+i)%len(chain)].rpcFetch(key); ok {
			return v, nil
		}
	}
	return nil, errMissing(key, slid)
}

// Remove implements dht.DHT.
func (r *Ring) Remove(ctx context.Context, key string) error {
	chain, _, _, err := r.replicaChain(ctx, key)
	if err != nil {
		return err
	}
	for _, n := range chain {
		n.rpcRemove(key)
	}
	r.retireStale(key, nil)
	return nil
}

// Write implements dht.DHT: the peer already storing the key rewrites it
// in place (the index layer's free local-disk write). The ring locates
// the storing replicas directly - no routing happens, matching the cost
// contract.
func (r *Ring) Write(ctx context.Context, key string, v dht.Value) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	holders := make([]*Node, 0, r.cfg.Replicas)
	for _, n := range r.nodes {
		n.mu.Lock()
		_, ok := n.data[key]
		n.mu.Unlock()
		if ok {
			holders = append(holders, n)
		}
	}
	r.mu.Unlock()
	if len(holders) == 0 {
		return dht.ErrNotFound
	}
	for _, n := range holders {
		n.rpcWriteLocal(key, v)
	}
	return nil
}

// PutIf implements dht.Conditional: route to the replica chain, compare
// the stored epoch, and store on every replica — all under the key's CAS
// stripe so racing conditional writers serialize exactly as they would on
// the one responsible peer.
func (r *Ring) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	r.casMu.Lock(key)
	defer r.casMu.Unlock(key)
	chain, _, slid, err := r.replicaChain(ctx, key)
	if err != nil {
		return err
	}
	cur, found := fetchChain(chain, key)
	if !found {
		if slid {
			// The holder may be down, not absent: the compare cannot run.
			return errMissing(key, slid)
		}
		return &dht.CASConflictError{Key: key}
	}
	if e := dht.EpochOf(cur); e != ifEpoch {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: e}
	}
	for _, n := range chain {
		n.rpcStore(key, v)
	}
	r.retireStale(key, chain)
	return nil
}

// CreateIf implements dht.Conditional.
func (r *Ring) CreateIf(ctx context.Context, key string, v dht.Value) error {
	r.casMu.Lock(key)
	defer r.casMu.Unlock(key)
	chain, _, slid, err := r.replicaChain(ctx, key)
	if err != nil {
		return err
	}
	if cur, found := fetchChain(chain, key); found {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: dht.EpochOf(cur)}
	} else if slid {
		// Absence is unprovable while a holder is unreachable.
		return errMissing(key, slid)
	}
	for _, n := range chain {
		n.rpcStore(key, v)
	}
	r.retireStale(key, chain)
	return nil
}

// RemoveIf implements dht.Conditional; removing an absent key succeeds.
func (r *Ring) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	r.casMu.Lock(key)
	defer r.casMu.Unlock(key)
	chain, _, slid, err := r.replicaChain(ctx, key)
	if err != nil {
		return err
	}
	cur, found := fetchChain(chain, key)
	if !found {
		if slid {
			return errMissing(key, slid)
		}
		return nil
	}
	if e := dht.EpochOf(cur); e != ifEpoch {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: e}
	}
	for _, n := range chain {
		n.rpcRemove(key)
	}
	r.retireStale(key, nil)
	return nil
}

// WriteIf implements dht.Conditional: like Write, the storing replicas
// rewrite in place without routing, but only when the stored epoch still
// matches.
func (r *Ring) WriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.casMu.Lock(key)
	defer r.casMu.Unlock(key)
	r.mu.Lock()
	holders := make([]*Node, 0, r.cfg.Replicas)
	for _, n := range r.nodes {
		n.mu.Lock()
		_, ok := n.data[key]
		n.mu.Unlock()
		if ok {
			holders = append(holders, n)
		}
	}
	r.mu.Unlock()
	if len(holders) == 0 {
		return dht.ErrNotFound
	}
	if cur, ok := holders[0].rpcFetch(key); ok {
		if e := dht.EpochOf(cur); e != ifEpoch {
			return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: e}
		}
	}
	for _, n := range holders {
		n.rpcWriteLocal(key, v)
	}
	return nil
}

// TotalKeys sums stored keys across live nodes (replicas counted once per
// holder); a testing and load-balance inspection helper.
func (r *Ring) TotalKeys() int {
	var total int
	for _, n := range r.liveNodes() {
		n.mu.Lock()
		total += len(n.data)
		n.mu.Unlock()
	}
	return total
}

// KeysPerNode returns the per-node key counts keyed by address, the
// load-balance view.
func (r *Ring) KeysPerNode() map[string]int {
	out := make(map[string]int)
	for _, n := range r.liveNodes() {
		n.mu.Lock()
		out[n.ref.Addr] = len(n.data)
		n.mu.Unlock()
	}
	return out
}
