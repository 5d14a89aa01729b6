// Package chord implements the Chord DHT (Stoica et al., SIGCOMM 2001):
// a ring overlay with finger tables giving O(log N)-hop lookups,
// successor lists for fault tolerance, and the stabilization protocol for
// churn. It is the repository's primary DHT substrate, standing in for
// the Bamboo ring the paper deployed on (DESIGN.md section 3 documents the
// substitution); LHT itself only ever sees the generic put/get interface.
//
// Nodes communicate over an internal/simnet network: every logical RPC
// charges one message, so experiments can report physical traffic and
// per-lookup hop counts. The protocol is step-driven - the harness decides
// when stabilization rounds run - which keeps every experiment
// deterministic and race-free.
package chord

import (
	"context"
	"sync"

	"lht/internal/dht"
	"lht/internal/hashring"
	"lht/internal/simnet"
)

// Ref identifies a node: its ring identifier and network address.
type Ref struct {
	ID   hashring.ID
	Addr string
}

// zeroRef is the unset reference.
var zeroRef Ref

// Node is one Chord peer. All exported behaviour goes through Ring; the
// rpc* methods are the node's wire protocol, invoked by other nodes (and
// the ring's client side) after a simnet.Send charged the message.
type Node struct {
	ref Ref
	net *simnet.Network

	mu      sync.Mutex
	pred    Ref
	hasPred bool
	succ    []Ref // successor list; succ[0] is the immediate successor
	fingers [hashring.Bits]Ref
	data    map[string]dht.Value

	succListLen int

	// onStore, when set, is invoked after the node stores keys — with
	// n.mu released, so the callback may take its own locks. The Ring
	// installs it to maintain the per-key holder registry that scopes
	// stale-copy retirement (Ring.retireStale): every path that creates a
	// copy (client stores, stabilization handoffs, graceful-leave
	// transfers) funnels through rpcStore/rpcStoreBatch, so the registry
	// sees them all.
	onStore func(keys ...string)
}

func newNode(ref Ref, net *simnet.Network, succListLen int) *Node {
	n := &Node{
		ref:         ref,
		net:         net,
		data:        make(map[string]dht.Value),
		succListLen: succListLen,
	}
	n.succ = []Ref{ref} // a lone node is its own successor
	return n
}

// Ref returns the node's identity.
func (n *Node) Ref() Ref { return n.ref }

// call dials a peer, charging one message. Calling a node's own address
// is free: local work costs no bandwidth.
func (n *Node) call(addr string) (*Node, error) {
	if addr == n.ref.Addr {
		return n, nil
	}
	v, err := n.net.SendFrom(n.ref.Addr, addr)
	if err != nil {
		return nil, err
	}
	return v.(*Node), nil
}

// --- wire protocol -------------------------------------------------------

// rpcPing answers liveness probes (reaching the node at all is the probe;
// the method exists so call sites read as intent).
func (n *Node) rpcPing() {}

// rpcNextHop is one step of the iterative lookup for id: done reports
// that id lands on this node's immediate successor; otherwise next is the
// closest preceding candidate from the finger table (falling back to the
// successor, which guarantees linear progress around the ring even with
// cold fingers).
func (n *Node) rpcNextHop(id hashring.ID) (done bool, succ Ref, next Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.succ[0]
	if hashring.Between(id, n.ref.ID, s.ID) {
		return true, s, zeroRef
	}
	return false, s, n.closestPrecedingLocked(id)
}

// closestPrecedingLocked scans the finger table and successor list for
// the node closest to id while strictly preceding it.
func (n *Node) closestPrecedingLocked(id hashring.ID) Ref {
	best := n.succ[0]
	consider := func(c Ref) {
		if c == zeroRef || c.Addr == n.ref.Addr {
			return
		}
		if !hashring.StrictBetween(c.ID, n.ref.ID, id) {
			return
		}
		if best == zeroRef || best.Addr == n.ref.Addr ||
			!hashring.StrictBetween(best.ID, n.ref.ID, id) ||
			hashring.Distance(c.ID, id) < hashring.Distance(best.ID, id) {
			best = c
		}
	}
	for i := len(n.fingers) - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succ {
		consider(s)
	}
	return best
}

// rpcSuccessorList returns a copy of the successor list.
func (n *Node) rpcSuccessorList() []Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Ref, len(n.succ))
	copy(out, n.succ)
	return out
}

// rpcPredecessor returns the node's current predecessor, if known.
func (n *Node) rpcPredecessor() (Ref, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred, n.hasPred
}

// rpcNotify tells the node that p might be its predecessor (Chord's
// stabilization). Accepting a new predecessor hands off the keys that now
// belong to p: everything outside (p, n]. The handoff batch costs one
// message.
func (n *Node) rpcNotify(p Ref) {
	n.mu.Lock()
	accept := !n.hasPred || hashring.StrictBetween(p.ID, n.pred.ID, n.ref.ID)
	if !accept || p.Addr == n.ref.Addr {
		n.mu.Unlock()
		return
	}
	n.pred = p
	n.hasPred = true
	var handoff map[string]dht.Value
	for k, v := range n.data {
		if !hashring.Between(hashring.HashKey(k), p.ID, n.ref.ID) {
			if handoff == nil {
				handoff = make(map[string]dht.Value)
			}
			handoff[k] = v
			delete(n.data, k)
		}
	}
	n.mu.Unlock()
	if len(handoff) == 0 {
		return
	}
	if peer, err := n.call(p.Addr); err == nil {
		peer.rpcStoreBatch(handoff)
	}
	// If p is unreachable the batch is dropped, as a real transfer would
	// be; replication (Ring.Config.Replicas) covers such losses.
}

// rpcStoreBatch ingests a key handoff.
func (n *Node) rpcStoreBatch(kv map[string]dht.Value) {
	keys := make([]string, 0, len(kv))
	n.mu.Lock()
	for k, v := range kv {
		n.data[k] = v
		keys = append(keys, k)
	}
	n.mu.Unlock()
	if n.onStore != nil && len(keys) > 0 {
		n.onStore(keys...)
	}
}

// rpcStore stores one value.
func (n *Node) rpcStore(key string, v dht.Value) {
	n.mu.Lock()
	n.data[key] = v
	n.mu.Unlock()
	if n.onStore != nil {
		n.onStore(key)
	}
}

// rpcFetch retrieves one value.
func (n *Node) rpcFetch(key string) (dht.Value, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.data[key]
	return v, ok
}

// rpcRemove deletes one value.
func (n *Node) rpcRemove(key string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.data, key)
}

// rpcWriteLocal rewrites a value the node already stores.
func (n *Node) rpcWriteLocal(key string, v dht.Value) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.data[key]; !ok {
		return false
	}
	n.data[key] = v
	return true
}

// --- maintenance ---------------------------------------------------------

// stabilize runs one round of Chord stabilization: verify the successor,
// adopt a closer one if its predecessor slipped in, refresh the successor
// list, and notify the successor of our existence.
func (n *Node) stabilize() {
	n.mu.Lock()
	succs := make([]Ref, len(n.succ))
	copy(succs, n.succ)
	n.mu.Unlock()

	// Find the first live successor, skipping failed ones.
	var (
		succ *Node
		ref  Ref
	)
	for _, s := range succs {
		if s.Addr == n.ref.Addr {
			succ, ref = n, s
			break
		}
		if peer, err := n.call(s.Addr); err == nil {
			succ, ref = peer, s
			break
		}
	}
	if succ == nil {
		// Every successor is gone; fall back to self until a notify or
		// finger repair reconnects us.
		n.mu.Lock()
		n.succ = []Ref{n.ref}
		n.mu.Unlock()
		return
	}

	if x, ok := succ.rpcPredecessor(); ok && hashring.StrictBetween(x.ID, n.ref.ID, ref.ID) {
		if peer, err := n.call(x.Addr); err == nil {
			succ, ref = peer, x
		}
	}

	list := succ.rpcSuccessorList()
	newList := make([]Ref, 0, n.succListLen)
	newList = append(newList, ref)
	for _, s := range list {
		if len(newList) >= n.succListLen {
			break
		}
		if s.Addr != n.ref.Addr && s != ref {
			newList = append(newList, s)
		}
	}
	n.mu.Lock()
	n.succ = newList
	n.mu.Unlock()

	succ.rpcNotify(n.ref)
}

// checkPredecessor clears a failed predecessor so a live one can notify
// its way in.
func (n *Node) checkPredecessor() {
	n.mu.Lock()
	pred, has := n.pred, n.hasPred
	n.mu.Unlock()
	if !has || pred.Addr == n.ref.Addr {
		return
	}
	if _, err := n.call(pred.Addr); err != nil {
		n.mu.Lock()
		n.hasPred = false
		n.mu.Unlock()
	}
}

// fixFinger refreshes the i-th finger by looking up its start point from
// this node.
func (n *Node) fixFinger(i int) {
	target := hashring.FingerStart(n.ref.ID, i)
	ref, _, err := n.findSuccessor(context.Background(), target, 0)
	if err != nil {
		return
	}
	n.mu.Lock()
	n.fingers[i] = ref
	n.mu.Unlock()
}

// findSuccessor resolves the node responsible for id by iterative
// routing, starting from this node. One hop is one message round trip:
// dialing a peer and asking it for its next-hop decision, so the context
// is checked once per hop and cancellation stops the walk promptly.
// extraHops seeds the counter so retries accumulate.
func (n *Node) findSuccessor(ctx context.Context, id hashring.ID, extraHops int) (Ref, int, error) {
	hops := extraHops
	cur := n
	curRef := n.ref
	for i := 0; i < 4*hashring.Bits; i++ {
		if err := ctx.Err(); err != nil {
			return zeroRef, hops, err
		}
		done, succ, next := cur.rpcNextHop(id)
		if done {
			return succ, hops, nil
		}
		step := next
		if step == zeroRef || step.Addr == curRef.Addr {
			step = succ // guaranteed progress along the ring
		}
		if step.Addr == curRef.Addr {
			// The node knows nothing beyond itself; its successor is the
			// best answer available.
			return succ, hops, nil
		}
		peer, err := n.call(step.Addr)
		hops++ // a timeout costs bandwidth too
		if err != nil {
			// Route around the failure: the current node's successor
			// list usually holds a live alternative.
			peer = nil
			hops++ // querying cur for its successor list
			for _, alt := range cur.rpcSuccessorList() {
				if alt.Addr == curRef.Addr {
					continue
				}
				p, e := n.call(alt.Addr)
				hops++
				if e == nil {
					peer, step = p, alt
					break
				}
			}
			if peer == nil {
				return zeroRef, hops, err
			}
		}
		cur, curRef = peer, step
	}
	return zeroRef, hops, errLookupDiverged
}
