package tcpnet

// Client-side membership: the Client keeps a local dht.ClusterView
// (seeded from the bootstrap list, fed suspicion by its own failed dials)
// and syncs it with the servers' gossiped view through
// RefreshView — one OpGossip exchange with the first reachable member,
// exactly the anti-entropy protocol the servers run among themselves, so
// the client is just one more gossip participant that happens to hold no
// data. A refresh that changes the routable member set rebuilds the
// routing ring: new members get fresh connection state, members the view
// declared dead or left are closed and dropped, and every in-flight
// operation keeps the immutable ring snapshot it started with.
//
// On top of the view sit the two repair capabilities the index layer
// discovers by type assertion: EnsureReplicated (dht.Rereplicator)
// restores a key's missing or older replica copies from the freshest
// surviving one, and ClusterStatus (dht.ClusterReporter) joins the gossiped view
// with the client's replica debt for operator introspection.

import (
	"context"
	"errors"
	"fmt"

	"lht/internal/dht"
	"lht/internal/metrics"
)

var (
	_ dht.Rereplicator    = (*Client)(nil)
	_ dht.ClusterReporter = (*Client)(nil)
)

// markSuspect records local failure evidence against a member: a redial
// gate calls this on a failed dial or handshake, so the node is marked
// suspect in the client's view and the doubt spreads on the next gossip
// exchange. Within one incarnation suspicion merges over health
// (worse state wins), and only the member itself can refute it.
func (c *Client) markSuspect(addr string) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	cur, _ := c.view.Find(addr)
	if cur.State != dht.MemberAlive {
		return
	}
	if c.view.Upsert(dht.Member{Addr: addr, State: dht.MemberSuspect, Incarnation: cur.Incarnation}) {
		c.view.Epoch++
	}
}

// View returns a snapshot of the client's local membership view.
func (c *Client) View() dht.ClusterView {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.view.Clone()
}

// RefreshView runs one gossip exchange with the first reachable member:
// push the local view, merge the server's, and rebuild the routing ring
// if the routable member set changed. Errors only when no member could be
// exchanged with (all down, or none runs the membership plane).
func (c *Client) RefreshView(ctx context.Context) error {
	c.viewMu.Lock()
	local := c.view.Clone()
	c.viewMu.Unlock()
	err := errors.New("tcpnet: no members to refresh from")
	for _, n := range c.ringNodes() {
		var remote dht.ClusterView
		if remote, err = n.gossip(ctx, local); err != nil {
			continue
		}
		c.viewMu.Lock()
		c.view.Merge(remote)
		merged := c.view.Clone()
		c.viewMu.Unlock()
		c.reviveGates(local, merged)
		c.applyView(merged)
		return nil
	}
	return err
}

// reviveGates resets the redial gates of every member the refreshed view
// newly reports alive. The gossip plane carries fresher evidence than a
// gate's failure memory — a rejoined node refutes its own death with a
// bumped incarnation — so a backoff window must not outlive the verdict
// that caused it. Members the merge taught nothing new about (already
// alive at the same or a newer local incarnation) keep their gates:
// local transport evidence stands until gossip contradicts it.
func (c *Client) reviveGates(old, merged dht.ClusterView) {
	for _, n := range c.ringNodes() {
		m, ok := merged.Find(n.addr)
		if !ok || m.State != dht.MemberAlive {
			continue
		}
		if prev, had := old.Find(n.addr); had && prev.State == dht.MemberAlive && prev.Incarnation >= m.Incarnation {
			continue
		}
		n.revive()
	}
}

// applyView rebuilds the routing ring to the view's routable member set.
// Existing members keep their connection state (and redial gates); new
// members are dialed lazily on first use; removed members are closed. The
// ring never shrinks below the replica count — a view that would leave
// too few holders is held (routing keeps the wider ring) until gossip
// finds replacements.
func (c *Client) applyView(v dht.ClusterView) bool {
	addrs := v.Alive()
	if len(addrs) < c.cfg.Replicas {
		return false
	}
	old := c.ringNodes()
	byAddr := make(map[string]*clientNode, len(old))
	for _, n := range old {
		byAddr[n.addr] = n
	}
	changed := len(addrs) != len(old)
	nodes := make([]*clientNode, 0, len(addrs))
	for _, a := range addrs {
		if n, ok := byAddr[a]; ok {
			nodes = append(nodes, n)
			delete(byAddr, a)
		} else {
			nodes = append(nodes, c.newNode(a))
			changed = true
		}
	}
	if !changed {
		return false
	}
	c.ring.Store(newRing(nodes, c.cfg.Replicas))
	for _, n := range byAddr { // members the view retired
		n.close()
	}
	c.cfg.Counters.Add(metrics.ViewRefreshes, 1)
	return true
}

// noteDebt records a missing, un-restored replica copy of key on addr.
func (c *Client) noteDebt(addr, key string) {
	c.debtMu.Lock()
	defer c.debtMu.Unlock()
	if c.debt == nil {
		c.debt = make(map[string]map[string]struct{})
	}
	keys := c.debt[addr]
	if keys == nil {
		keys = make(map[string]struct{})
		c.debt[addr] = keys
	}
	keys[key] = struct{}{}
}

// clearDebt retires the debt record for key on addr (the copy was seen
// present or restored).
func (c *Client) clearDebt(addr, key string) {
	c.debtMu.Lock()
	defer c.debtMu.Unlock()
	if keys := c.debt[addr]; keys != nil {
		delete(keys, key)
		if len(keys) == 0 {
			delete(c.debt, addr)
		}
	}
}

// replicaDebt returns the number of keys with an outstanding missing copy
// on addr.
func (c *Client) replicaDebt(addr string) int {
	c.debtMu.Lock()
	defer c.debtMu.Unlock()
	return len(c.debt[addr])
}

// EnsureReplicated implements dht.Rereplicator: probe every current
// holder of key and restore, from the freshest surviving copy (the highest
// stored epoch), every copy that is missing or carries an older epoch —
// the copy a holder kept through a write it missed (see
// ClusterConfig.FailoverWrites); with one copy there is none to restore.
// A key no holder has is not an error (it was removed, or never existed);
// a key no holder could even be asked about is. Restores ride OpPutNewer,
// so racing writers can only ever beat the restore with a newer value,
// never lose to it. Copies at one epoch are not told apart: untagged
// values all read epoch 0, which is why write failover never leaves one
// of their copies behind.
func (c *Client) EnsureReplicated(ctx context.Context, key string) (dht.ReplicaRepair, error) {
	var rep dht.ReplicaRepair
	if c.cfg.Replicas <= 1 {
		return rep, nil
	}
	holders := c.holders(key)
	vals := make([][]byte, len(holders))
	errs := make([]error, len(holders))
	for i, n := range holders {
		rep.Probes++
		vals[i], errs[i] = n.getRaw(ctx, key)
	}
	c.cfg.Counters.Add(metrics.ReplicaProbes, int64(rep.Probes))

	// The freshest surviving copy (highest stored epoch) is the donor.
	var donor []byte
	reachable := 0
	for i := range holders {
		switch {
		case errs[i] == nil:
			reachable++
			if donor == nil || storedEpoch(vals[i]) > storedEpoch(donor) {
				donor = vals[i]
			}
		case errors.Is(errs[i], dht.ErrNotFound):
			reachable++
		}
	}
	if reachable == 0 {
		return rep, fmt.Errorf("tcpnet: ensure-replicated %q: no reachable holder: %w", key, errs[0])
	}
	if donor == nil {
		return rep, nil // absent everywhere reachable: nothing to restore
	}
	for i, n := range holders {
		switch {
		case errs[i] == nil && storedEpoch(vals[i]) >= storedEpoch(donor):
			c.clearDebt(n.addr, key)
		case errs[i] == nil || errors.Is(errs[i], dht.ErrNotFound):
			rep.Missing++
			if err := n.putNewer(ctx, key, donor); err != nil {
				c.noteDebt(n.addr, key)
				continue
			}
			rep.Restored++
			c.cfg.Counters.Add(metrics.ReplicaRepairs, 1)
			c.clearDebt(n.addr, key)
		default:
			// Unreachable holder: its copy state is unknown; leave any
			// existing debt record as is.
		}
	}
	return rep, nil
}

// ClusterStatus implements dht.ClusterReporter: fetch the gossiped view
// from the first reachable member (OpStatus) and join it with the
// client's replica debt. Against a cluster that never enabled the
// membership plane the report falls back to the client's own view of its
// ring, whose suspicion its failed dials feed.
func (c *Client) ClusterStatus(ctx context.Context) (dht.ClusterStatus, error) {
	view, err := c.fetchStatus(ctx)
	if err != nil || len(view.Members) == 0 {
		// No server-side view: report the client's local one.
		view = c.View()
	}
	if len(view.Members) > 0 {
		// Keep the local view current with whatever was learned.
		c.viewMu.Lock()
		c.view.Merge(view)
		view = c.view.Clone()
		c.viewMu.Unlock()
	}
	st := dht.ClusterStatus{ViewEpoch: view.Epoch}
	for _, m := range view.Members {
		st.Members = append(st.Members, dht.MemberStatus{
			Addr:        m.Addr,
			State:       m.State,
			Incarnation: m.Incarnation,
			ReplicaDebt: c.replicaDebt(m.Addr),
		})
	}
	return st, nil
}

// fetchStatus asks the first reachable member for its view over OpStatus.
func (c *Client) fetchStatus(ctx context.Context) (dht.ClusterView, error) {
	err := errors.New("tcpnet: no members to query")
	for _, n := range c.ringNodes() {
		var tv []byte
		var frame *[]byte
		tv, frame, err = n.simpleCall(ctx, dht.OpStatus, func(b []byte) ([]byte, error) {
			return b, nil
		})
		if err != nil {
			continue
		}
		cur := cursor{b: tv}
		var view dht.ClusterView
		view, err = readView(&cur)
		putBuf(frame)
		if err == nil {
			return view, nil
		}
	}
	return dht.ClusterView{}, err
}
