package tcpnet

// Server-side membership: each node runs a Membership that holds a
// versioned dht.ClusterView and keeps it current by anti-entropy gossip —
// every Tick picks one peer (seeded rng, so simnet/netchaos runs replay
// identically), pushes the local view over an OpGossip frame, and merges
// the peer's view from the response. Exchange failures feed a
// fail-counter failure detector (suspect after SuspectAfter consecutive
// misses, dead after DeadAfter more); a node that finds itself slandered
// refutes by bumping its incarnation, which the merge order in
// internal/dht turns into an authoritative resurrection.
//
// The plane carries views only, never data: a copy a down holder missed
// (see ClusterConfig.FailoverWrites) — absent, or older than the
// acknowledged one — is restored by the re-replicating scrub once the
// view shows the holder back, not by this node.
//
// A server reaches its peers the way a client reaches its members: one
// clientNode per peer, whose pipelined mconn handshakes with a ping,
// redials lazily and stays up across rounds while the peer answers. A
// round that fails closes and forgets the peer's node, so the next one
// dials fresh (see onPeer).
//
// All membership traffic is free in the cost model (see the OpKind doc in
// internal/dht): it is control-plane chatter, not index routing, and the
// pinned bench rows never enable it.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lht/internal/dht"
	"lht/internal/metrics"
)

// Membership defaults: two straight missed exchanges cast suspicion, two
// more confirm death. With lht-node's default 1s gossip interval that
// makes a silent node suspect in ~2s and dead in ~4s.
const (
	defaultSuspectAfter = 2
	defaultDeadAfter    = 2
	// gossipIOBudget bounds one exchange when the caller's context
	// carries no deadline of its own.
	gossipIOBudget = 2 * time.Second
)

// MembershipConfig configures a server's gossip participant.
type MembershipConfig struct {
	// Self is this node's listen address exactly as peers dial it; it is
	// the node's identity in every view. Required.
	Self string
	// Seeds are the bootstrap peers the view starts with (Self is always
	// included). The live member list grows from here by gossip.
	Seeds []string
	// Seed seeds the peer-selection rng; a fixed seed makes the gossip
	// schedule deterministic for replayable tests.
	Seed int64
	// SuspectAfter is how many consecutive failed exchanges with a peer
	// mark it suspect (default 2).
	SuspectAfter int
	// DeadAfter is how many further consecutive failures after suspicion
	// mark the peer dead (default 2).
	DeadAfter int
	// Dialer is the transport factory for outbound gossip (nil = plain
	// net.Dialer); the netchaos plane injects here.
	Dialer ContextDialer
}

// Membership is one server's gossip participant. Obtain it with
// Server.EnableMembership; drive it with Tick (tests) or Run (lht-node).
type Membership struct {
	srv    *Server
	self   string
	dialer ContextDialer
	c      *metrics.Counters

	suspectAfter int
	deadAfter    int

	mu    sync.Mutex
	view  dht.ClusterView
	inc   uint64 // self incarnation, bumped only to refute
	rng   *rand.Rand
	fails map[string]int // consecutive failed exchanges per peer
	// peers is the connection this node keeps to each peer it gossips
	// with; nil once the server has closed.
	peers map[string]*clientNode
}

// EnableMembership attaches a gossip participant to the server and
// returns it. Call once, before Serve; the OpGossip/OpStatus handlers
// answer with the participant's view from then on.
func (s *Server) EnableMembership(cfg MembershipConfig) *Membership {
	if cfg.Self == "" {
		panic("tcpnet: MembershipConfig.Self is required")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = defaultSuspectAfter
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = defaultDeadAfter
	}
	m := &Membership{
		srv:          s,
		self:         cfg.Self,
		dialer:       cfg.Dialer,
		c:            &s.c,
		suspectAfter: cfg.SuspectAfter,
		deadAfter:    cfg.DeadAfter,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		fails:        make(map[string]int),
		peers:        make(map[string]*clientNode),
	}
	m.view.Upsert(dht.Member{Addr: cfg.Self, State: dht.MemberAlive})
	for _, seed := range cfg.Seeds {
		if seed != cfg.Self {
			m.view.Upsert(dht.Member{Addr: seed, State: dht.MemberAlive})
		}
	}
	s.mu.Lock()
	s.mem = m
	s.mu.Unlock()
	return m
}

// Membership returns the server's gossip participant, if enabled.
func (s *Server) Membership() *Membership {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem
}

// Has reports whether the node currently stores key. The A12 harness uses
// it to count live replicas per key without routing through a client.
func (s *Server) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.store[key]
	return ok
}

// View returns a snapshot of the node's current membership view.
func (m *Membership) View() dht.ClusterView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Clone()
}

// upsertLocked applies a local state transition under the merge order and
// advances the epoch when it changed anything. Callers hold m.mu.
func (m *Membership) upsertLocked(mem dht.Member) {
	if m.view.Upsert(mem) {
		m.view.Epoch++
	}
}

// refuteLocked re-asserts this node as alive when the view slanders it:
// the incarnation bump outranks any same-or-older suspicion or death
// rumor at merge time. Callers hold m.mu.
func (m *Membership) refuteLocked() {
	me, ok := m.view.Find(m.self)
	if !ok || me.State == dht.MemberAlive {
		return
	}
	if me.Incarnation >= m.inc {
		m.inc = me.Incarnation + 1
	}
	m.upsertLocked(dht.Member{Addr: m.self, State: dht.MemberAlive, Incarnation: m.inc})
}

// merge folds a remote view into the local one (used by the OpGossip
// handler and by Tick for the response view) and returns the local view
// after refutation. Safe to call while the server holds s.mu: only m.mu
// is taken.
func (m *Membership) merge(remote dht.ClusterView) dht.ClusterView {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.view.Merge(remote)
	m.refuteLocked()
	return m.view.Clone()
}

// Leave marks this node as gracefully departed. The claim spreads on
// subsequent exchanges initiated by peers; a left node never rejoins
// under the same incarnation.
func (m *Membership) Leave() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.upsertLocked(dht.Member{Addr: m.self, State: dht.MemberLeft, Incarnation: m.inc})
}

// Tick performs one gossip round: pick one peer by seeded rng, exchange
// views, and apply the failure detector to the outcome. Returns the
// exchange error, or nil when the round had no peer to talk to.
func (m *Membership) Tick(ctx context.Context) error {
	peer, ok := m.pickPeer()
	if !ok {
		return nil
	}
	m.c.Add(metrics.GossipRounds, 1)
	m.mu.Lock()
	local := m.view.Clone()
	m.mu.Unlock()
	var remote dht.ClusterView
	err := m.onPeer(ctx, peer, func(ctx context.Context, n *clientNode) (err error) {
		remote, err = n.gossip(ctx, local)
		return err
	})
	m.mu.Lock()
	if err != nil {
		m.recordFailureLocked(peer)
	} else {
		m.fails[peer] = 0
		m.view.Merge(remote)
		m.refuteLocked()
	}
	m.mu.Unlock()
	return err
}

// Run drives Tick every interval until ctx ends; lht-node's background
// gossip loop.
func (m *Membership) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = m.Tick(ctx)
		}
	}
}

// pickPeer chooses the round's gossip target: a seeded-uniform draw over
// every known peer that is not confirmed gone. Gossip targets only
// alive/suspect members: a returned node re-announces itself.
func (m *Membership) pickPeer() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var peers []string
	for _, mem := range m.view.Members {
		if mem.Addr != m.self && mem.State.Routable() {
			peers = append(peers, mem.Addr)
		}
	}
	if len(peers) == 0 {
		return "", false
	}
	return peers[m.rng.Intn(len(peers))], true
}

// recordFailureLocked advances the peer's failure count and worsens its
// state at the configured thresholds. The transition keeps the peer's
// current incarnation: only the peer itself may bump it, so a comeback
// always wins the merge. Callers hold m.mu.
func (m *Membership) recordFailureLocked(peer string) {
	f := m.fails[peer] + 1
	m.fails[peer] = f
	cur, _ := m.view.Find(peer)
	switch {
	case f >= m.suspectAfter+m.deadAfter:
		if cur.State == dht.MemberSuspect || cur.State == dht.MemberAlive {
			m.upsertLocked(dht.Member{Addr: peer, State: dht.MemberDead, Incarnation: cur.Incarnation})
		}
	case f >= m.suspectAfter:
		if cur.State == dht.MemberAlive {
			m.upsertLocked(dht.Member{Addr: peer, State: dht.MemberSuspect, Incarnation: cur.Incarnation})
		}
	}
}

// onPeer runs one round against the peer at addr on its connection,
// under the gossip IO budget: mconn.call has no deadline of its own, and
// a black-holed peer must not hang Tick. A round that fails closes and
// forgets the peer's node, so the next round dials fresh — no redial
// backoff delays a comeback, and a wedged connection never outlives the
// round that hit it. A healthy peer keeps its connection across rounds.
func (m *Membership) onPeer(ctx context.Context, addr string, round func(context.Context, *clientNode) error) error {
	ctx, cancel := withIOBudget(ctx)
	defer cancel()
	m.mu.Lock()
	if m.peers == nil {
		m.mu.Unlock()
		return errClientClosed
	}
	n := m.peers[addr]
	if n == nil {
		// One connection, whose failures suspect nobody: the failure
		// detector above is this plane's health signal.
		n = newClientNode(addr, m.dialer, 1, nil)
		m.peers[addr] = n
	}
	m.mu.Unlock()
	err := round(ctx, n)
	if err != nil {
		m.mu.Lock()
		if m.peers[addr] == n {
			delete(m.peers, addr)
		}
		m.mu.Unlock()
		n.close()
	}
	return err
}

// closePeers closes every peer connection for good; Server.Close calls it.
func (m *Membership) closePeers() {
	m.mu.Lock()
	peers := m.peers
	m.peers = nil
	m.mu.Unlock()
	for _, n := range peers {
		n.close()
	}
}

// gossip pushes local to n over OpGossip and returns n's view: a server's
// exchange with a peer, and a client's view refresh.
func (n *clientNode) gossip(ctx context.Context, local dht.ClusterView) (dht.ClusterView, error) {
	tv, frame, err := n.simpleCall(ctx, dht.OpGossip, func(b []byte) ([]byte, error) {
		return appendView(b, local), nil
	})
	if err != nil {
		return dht.ClusterView{}, err
	}
	defer putBuf(frame)
	c := cursor{b: tv}
	return readView(&c)
}

// withIOBudget caps ctx with the default gossip IO budget when it has no
// deadline of its own.
func withIOBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, gossipIOBudget)
}

// View wire encoding (canonical, shared by OpGossip and OpStatus):
//
//	uv epoch, uv count, count x (uv alen, addr, state u8, uv incarnation)

// appendView appends the wire encoding of a view.
func appendView(b []byte, v dht.ClusterView) []byte {
	b = appendUv(b, v.Epoch)
	b = appendUv(b, uint64(len(v.Members)))
	for _, m := range v.Members {
		b = appendLenString(b, m.Addr)
		b = append(b, byte(m.State))
		b = appendUv(b, m.Incarnation)
	}
	return b
}

// readView decodes a view from the cursor. Member entries fold in through
// Upsert, so a non-canonical (unsorted or duplicated) encoding still
// yields a well-formed view.
func readView(c *cursor) (dht.ClusterView, error) {
	var v dht.ClusterView
	epoch, err := c.uvarint()
	if err != nil {
		return v, err
	}
	v.Epoch = epoch
	n, err := c.count()
	if err != nil {
		return v, err
	}
	for i := 0; i < n; i++ {
		addr, err := c.lenBytes()
		if err != nil {
			return v, err
		}
		st, err := c.u8()
		if err != nil {
			return v, err
		}
		if dht.MemberState(st) > dht.MemberLeft {
			return v, fmt.Errorf("tcpnet: unknown member state %d", st)
		}
		inc, err := c.uvarint()
		if err != nil {
			return v, err
		}
		v.Upsert(dht.Member{Addr: string(addr), State: dht.MemberState(st), Incarnation: inc})
	}
	return v, nil
}

// errNoMembership is the wire error for membership ops on a server that
// never enabled the plane.
var errNoMembership = errors.New("membership disabled")

// respondMembership serves the membership-plane ops (split out of respond
// to keep that switch readable). It is called under s.mu.
func (s *Server) respondMembership(op dht.OpKind, c *cursor, out []byte) []byte {
	switch op {
	case dht.OpGossip:
		remote, err := readView(c)
		if err != nil || !c.empty() {
			return appendStatusErr(out, errMalformed)
		}
		mem := s.mem
		if mem == nil {
			return appendStatusErr(out, errNoMembership.Error())
		}
		// merge only takes mem.mu; lock order is always s.mu -> mem.mu.
		local := mem.merge(remote)
		out = append(out, statusOK)
		return appendView(out, local)

	case dht.OpStatus:
		if !c.empty() {
			return appendStatusErr(out, errMalformed)
		}
		var view dht.ClusterView
		if s.mem != nil {
			s.mem.mu.Lock()
			view = s.mem.view.Clone()
			s.mem.mu.Unlock()
		}
		out = append(out, statusOK)
		return appendView(out, view)

	default:
		return appendStatusErr(out, errUnknownOp)
	}
}
