package kademlia

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
	// ErrNoNodes reports an operation against a network with no live
	// nodes.
	ErrNoNodes = errors.New("kademlia: no live nodes")
	// ErrNodeExists reports adding an address twice.
	ErrNodeExists = errors.New("kademlia: node already exists")
)

// Config tunes a Network.
type Config struct {
	// K is the bucket size and the replication degree (STOREs go to the
	// K closest nodes). Default 8.
	K int
	// Alpha is the lookup concurrency: contacts queried per round.
	// Default 3.
	Alpha int
	// Seed drives entry selection.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 8
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	return c
}

// node is one Kademlia peer.
type node struct {
	ref Ref

	mu    sync.Mutex
	table *table
	data  map[string]dht.Value
}

// rpcFindNode returns the k contacts closest to target this node knows,
// and observes the caller.
func (n *node) rpcFindNode(from Ref, target hashring.ID, k int) []Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.table.observe(from)
	return n.table.closest(target, k)
}

// rpcStore stores a value and observes the caller.
func (n *node) rpcStore(from Ref, key string, v dht.Value) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.table.observe(from)
	n.data[key] = v
}

// rpcFindValue returns the stored value, or the closest contacts.
func (n *node) rpcFindValue(from Ref, key string, k int) (dht.Value, bool, []Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.table.observe(from)
	if v, ok := n.data[key]; ok {
		return v, true, nil
	}
	return nil, false, n.table.closest(hashring.HashKey(key), k)
}

// rpcDelete removes a key (used by Remove and RemoveIf).
func (n *node) rpcDelete(key string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.data, key)
}

// rpcWriteLocal rewrites a value the node already stores.
func (n *node) rpcWriteLocal(key string, v dht.Value) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.data[key]; !ok {
		return false
	}
	n.data[key] = v
	return true
}

// Network is a Kademlia network plus its client side; it implements
// dht.DHT.
type Network struct {
	cfg Config
	net *simnet.Network

	mu    sync.Mutex
	rng   *rand.Rand
	nodes map[string]*node

	// casMu serializes conditional read-compare-write cycles per key
	// across the key's K-closest replica set, standing in for the storing
	// peers applying the CAS atomically in a deployed network.
	casMu dht.KeyLocks
}

var _ dht.DHT = (*Network)(nil)

// NewNetwork creates a network of n nodes named "k0".."k<n-1>", each
// bootstrapped through a random earlier node.
func NewNetwork(n int, cfg Config) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("kademlia: network needs at least 1 node, got %d", n)
	}
	nw := &Network{
		cfg:   cfg.withDefaults(),
		net:   simnet.New(),
		nodes: make(map[string]*node, n),
	}
	nw.rng = rand.New(rand.NewSource(nw.cfg.Seed))
	for i := 0; i < n; i++ {
		if err := nw.AddNode(fmt.Sprintf("k%d", i)); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// Network exposes the underlying simulated network.
func (nw *Network) Network() *simnet.Network { return nw.net }

// AddNode creates a node and bootstraps its routing table by looking up
// its own ID through a random existing member.
func (nw *Network) AddNode(addr string) error {
	nw.mu.Lock()
	if _, ok := nw.nodes[addr]; ok {
		nw.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeExists, addr)
	}
	nd := &node{
		ref:  Ref{ID: hashring.HashAddr(addr), Addr: addr},
		data: make(map[string]dht.Value),
	}
	nd.table = newTable(nd.ref, nw.cfg.K)
	var bootstrap *node
	if len(nw.nodes) > 0 {
		bootstrap = nw.randomLiveLocked()
	}
	nw.nodes[addr] = nd
	nw.mu.Unlock()
	nw.net.Register(addr, nd)

	if bootstrap == nil {
		return nil
	}
	nd.mu.Lock()
	nd.table.observe(bootstrap.ref)
	nd.mu.Unlock()
	// Self-lookup populates buckets along the path (standard bootstrap).
	nw.iterativeFindNode(context.Background(), nd, nd.ref.ID)
	return nil
}

// Fail marks a node unreachable; Recover restores it.
func (nw *Network) Fail(addr string)    { nw.net.SetDown(addr, true) }
func (nw *Network) Recover(addr string) { nw.net.SetDown(addr, false) }

func (nw *Network) randomLiveLocked() *node {
	live := make([]*node, 0, len(nw.nodes))
	for addr, n := range nw.nodes {
		if !nw.net.Down(addr) {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return nil
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ref.Addr < live[j].ref.Addr })
	return live[nw.rng.Intn(len(live))]
}

func (nw *Network) entry() (*node, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.randomLiveLocked()
	if n == nil {
		return nil, ErrNoNodes
	}
	return n, nil
}

// dial charges one message and returns the peer, unless it is the caller
// itself (local work is free).
func (nw *Network) dial(from *node, addr string) (*node, error) {
	if addr == from.ref.Addr {
		return from, nil
	}
	v, err := nw.net.SendFrom(from.ref.Addr, addr)
	if err != nil {
		return nil, err
	}
	return v.(*node), nil
}

// iterativeFindNode runs the Kademlia node lookup from origin: repeatedly
// query the alpha closest unqueried contacts for their k closest, until
// the k best known are all queried. It returns the k closest live
// contacts and the number of messages spent. The context is checked once
// per query round; cancellation ends the lookup with whatever contacts
// are already known.
func (nw *Network) iterativeFindNode(ctx context.Context, origin *node, target hashring.ID) ([]Ref, int) {
	type candidate struct {
		ref     Ref
		queried bool
		dead    bool
	}
	origin.mu.Lock()
	seedRefs := origin.table.closest(target, nw.cfg.K)
	origin.mu.Unlock()

	short := make(map[string]*candidate)
	for _, r := range seedRefs {
		short[r.Addr] = &candidate{ref: r}
	}
	hops := 0

	bestUnqueried := func() []*candidate {
		var out []*candidate
		for _, c := range short {
			if !c.queried && !c.dead {
				out = append(out, c)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			return xorDist(out[i].ref.ID, target) < xorDist(out[j].ref.ID, target)
		})
		if len(out) > nw.cfg.Alpha {
			out = out[:nw.cfg.Alpha]
		}
		return out
	}

	for round := 0; round < 64; round++ {
		if ctx.Err() != nil {
			break
		}
		batch := bestUnqueried()
		if len(batch) == 0 {
			break
		}
		for _, c := range batch {
			c.queried = true
			if c.ref.Addr == origin.ref.Addr {
				continue
			}
			peer, err := nw.dial(origin, c.ref.Addr)
			hops++
			if err != nil {
				c.dead = true
				origin.mu.Lock()
				origin.table.remove(c.ref.Addr)
				origin.mu.Unlock()
				continue
			}
			for _, r := range peer.rpcFindNode(origin.ref, target, nw.cfg.K) {
				if _, ok := short[r.Addr]; !ok {
					short[r.Addr] = &candidate{ref: r}
				}
				origin.mu.Lock()
				origin.table.observe(r)
				origin.mu.Unlock()
			}
		}
	}

	live := make([]Ref, 0, nw.cfg.K)
	all := make([]*candidate, 0, len(short))
	for _, c := range short {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		return xorDist(all[i].ref.ID, target) < xorDist(all[j].ref.ID, target)
	})
	for _, c := range all {
		if c.dead {
			continue
		}
		live = append(live, c.ref)
		if len(live) == nw.cfg.K {
			break
		}
	}
	return live, hops
}

// Lookup resolves the K closest nodes to a key and the messages spent.
func (nw *Network) Lookup(ctx context.Context, key string) ([]Ref, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("kademlia: lookup aborted: %w", err)
	}
	origin, err := nw.entry()
	if err != nil {
		return nil, 0, err
	}
	refs, hops := nw.iterativeFindNode(ctx, origin, hashring.HashKey(key))
	if err := ctx.Err(); err != nil {
		return refs, hops, fmt.Errorf("kademlia: lookup aborted: %w", err)
	}
	return refs, hops, nil
}

// --- dht.DHT -------------------------------------------------------------

// closest routes from a random entry node to key's K closest live nodes.
// Finding none is the transient ErrNoNodes.
func (nw *Network) closest(ctx context.Context, key string) (*node, []Ref, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	origin, err := nw.entry()
	if err != nil {
		return nil, nil, err
	}
	refs, _ := nw.iterativeFindNode(ctx, origin, hashring.HashKey(key))
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(refs) == 0 {
		return nil, nil, dht.MarkTransient(ErrNoNodes)
	}
	return origin, refs, nil
}

// Put implements dht.DHT: STORE on the K closest nodes.
func (nw *Network) Put(ctx context.Context, key string, v dht.Value) error {
	origin, refs, err := nw.closest(ctx, key)
	if err != nil {
		return err
	}
	nw.storeOn(origin, refs, key, v)
	return nil
}

// Get implements dht.DHT: iterative FIND_VALUE, asking the K-closest
// set in XOR order from the closest (a hedged duplicate from the second,
// dht.ReadStart).
func (nw *Network) Get(ctx context.Context, key string) (dht.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	origin, err := nw.entry()
	if err != nil {
		return nil, err
	}
	refs, _ := nw.iterativeFindNode(ctx, origin, hashring.HashKey(key))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := dht.ReadStart(ctx)
	for i := range refs {
		peer, err := nw.dial(origin, refs[(start+i)%len(refs)].Addr)
		if err != nil {
			continue
		}
		if v, ok, _ := peer.rpcFindValue(origin.ref, key, nw.cfg.K); ok {
			return v, nil
		}
	}
	return nil, dht.ErrNotFound
}

// Remove implements dht.DHT: DELETE on the K closest.
func (nw *Network) Remove(ctx context.Context, key string) error {
	origin, refs, err := nw.closest(ctx, key)
	if err != nil {
		return err
	}
	nw.deleteOn(origin, refs, key)
	return nil
}

// Write implements dht.DHT: every replica holding the key rewrites it in
// place, without routing (the index layer's free local write).
func (nw *Network) Write(ctx context.Context, key string, v dht.Value) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	nw.mu.Lock()
	holders := make([]*node, 0, nw.cfg.K)
	for _, n := range nw.nodes {
		n.mu.Lock()
		_, ok := n.data[key]
		n.mu.Unlock()
		if ok {
			holders = append(holders, n)
		}
	}
	nw.mu.Unlock()
	if len(holders) == 0 {
		return dht.ErrNotFound
	}
	for _, n := range holders {
		n.rpcWriteLocal(key, v)
	}
	return nil
}

// casResolve routes to the K closest nodes and reads the current value
// for key from the first replica holding it.
func (nw *Network) casResolve(ctx context.Context, key string) (refs []Ref, origin *node, cur dht.Value, found bool, err error) {
	origin, refs, err = nw.closest(ctx, key)
	if err != nil {
		return nil, nil, nil, false, err
	}
	for _, r := range refs {
		peer, err := nw.dial(origin, r.Addr)
		if err != nil {
			continue
		}
		if v, ok, _ := peer.rpcFindValue(origin.ref, key, nw.cfg.K); ok {
			return refs, origin, v, true, nil
		}
	}
	return refs, origin, nil, false, nil
}

// storeOn STOREs v on every reachable ref.
func (nw *Network) storeOn(origin *node, refs []Ref, key string, v dht.Value) {
	for _, r := range refs {
		peer, err := nw.dial(origin, r.Addr)
		if err != nil {
			continue
		}
		peer.rpcStore(origin.ref, key, v)
	}
}

// deleteOn DELETEs key on every reachable ref.
func (nw *Network) deleteOn(origin *node, refs []Ref, key string) {
	for _, r := range refs {
		peer, err := nw.dial(origin, r.Addr)
		if err != nil {
			continue
		}
		peer.rpcDelete(key)
	}
}

// PutIf implements dht.Conditional: resolve the K closest, compare the
// stored epoch, and store — all under the key's CAS stripe so racing
// conditional writers serialize.
func (nw *Network) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	nw.casMu.Lock(key)
	defer nw.casMu.Unlock(key)
	refs, origin, cur, found, err := nw.casResolve(ctx, key)
	if err != nil {
		return err
	}
	if !found {
		return &dht.CASConflictError{Key: key}
	}
	if e := dht.EpochOf(cur); e != ifEpoch {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: e}
	}
	nw.storeOn(origin, refs, key, v)
	return nil
}

// CreateIf implements dht.Conditional.
func (nw *Network) CreateIf(ctx context.Context, key string, v dht.Value) error {
	nw.casMu.Lock(key)
	defer nw.casMu.Unlock(key)
	refs, origin, cur, found, err := nw.casResolve(ctx, key)
	if err != nil {
		return err
	}
	if found {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: dht.EpochOf(cur)}
	}
	nw.storeOn(origin, refs, key, v)
	return nil
}

// RemoveIf implements dht.Conditional; removing an absent key succeeds.
func (nw *Network) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	nw.casMu.Lock(key)
	defer nw.casMu.Unlock(key)
	refs, origin, cur, found, err := nw.casResolve(ctx, key)
	if err != nil {
		return err
	}
	if !found {
		return nil
	}
	if e := dht.EpochOf(cur); e != ifEpoch {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: e}
	}
	nw.deleteOn(origin, refs, key)
	return nil
}

// WriteIf implements dht.Conditional: every holder rewrites in place, but
// only when the stored epoch still matches.
func (nw *Network) WriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	nw.casMu.Lock(key)
	defer nw.casMu.Unlock(key)
	nw.mu.Lock()
	holders := make([]*node, 0, nw.cfg.K)
	for _, n := range nw.nodes {
		n.mu.Lock()
		_, ok := n.data[key]
		n.mu.Unlock()
		if ok {
			holders = append(holders, n)
		}
	}
	nw.mu.Unlock()
	if len(holders) == 0 {
		return dht.ErrNotFound
	}
	holders[0].mu.Lock()
	cur := holders[0].data[key]
	holders[0].mu.Unlock()
	if e := dht.EpochOf(cur); e != ifEpoch {
		return &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: e}
	}
	for _, n := range holders {
		n.rpcWriteLocal(key, v)
	}
	return nil
}

// TotalKeys counts stored key copies across live nodes (replicas counted
// per holder); inspection helper.
func (nw *Network) TotalKeys() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	var total int
	for addr, n := range nw.nodes {
		if nw.net.Down(addr) {
			continue
		}
		n.mu.Lock()
		total += len(n.data)
		n.mu.Unlock()
	}
	return total
}
