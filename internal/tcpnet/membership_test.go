package tcpnet

import (
	"context"
	"net"
	"testing"
	"time"

	"lht/internal/dht"
	"lht/internal/netchaos"
)

// startMember boots one server with membership enabled and returns it
// with its address. The caller owns Close.
func startMember(t *testing.T, seeds []string, seed int64) (*Server, *Membership, string) {
	t.Helper()
	return startMemberWith(t, MembershipConfig{Seeds: seeds, Seed: seed})
}

// startMemberWith is startMember with the whole configuration; Self is
// filled in with the listen address.
func startMemberWith(t *testing.T, cfg MembershipConfig) (*Server, *Membership, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	addr := ln.Addr().String()
	cfg.Self = addr
	mem := srv.EnableMembership(cfg)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, mem, addr
}

// tickAll drives every membership one round.
func tickAll(ctx context.Context, mems []*Membership) {
	for _, m := range mems {
		_ = m.Tick(ctx)
	}
}

func TestMembershipConvergence(t *testing.T) {
	ctx := context.Background()
	_, m1, a1 := startMember(t, nil, 1)
	_, m2, _ := startMember(t, []string{a1}, 2)
	_, m3, _ := startMember(t, []string{a1}, 3)
	mems := []*Membership{m1, m2, m3}

	// A handful of rounds must spread all three addresses everywhere.
	for i := 0; i < 6; i++ {
		tickAll(ctx, mems)
	}
	for i, m := range mems {
		v := m.View()
		if len(v.Members) != 3 {
			t.Fatalf("member %d view has %d members, want 3: %+v", i+1, len(v.Members), v.Members)
		}
		for _, mem := range v.Members {
			if mem.State != dht.MemberAlive {
				t.Fatalf("member %d sees %s as %s, want alive", i+1, mem.Addr, mem.State)
			}
		}
	}
}

func TestMembershipDeathAndRefutation(t *testing.T) {
	ctx := context.Background()
	s1, m1, a1 := startMember(t, nil, 1)
	_, m2, a2 := startMember(t, []string{a1}, 2)
	_, m3, _ := startMember(t, []string{a1, a2}, 3)
	mems := []*Membership{m1, m2, m3}
	for i := 0; i < 6; i++ {
		tickAll(ctx, mems)
	}

	// Kill node 1 for good. Keep ticking the survivors: their exchanges
	// with it fail, suspicion accrues, and the view converges on dead.
	_ = s1.Close()
	alive := []*Membership{m2, m3}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tickAll(ctx, alive)
		st2, _ := m2.View().Find(a1)
		st3, _ := m3.View().Find(a1)
		if st2.State == dht.MemberDead && st3.State == dht.MemberDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never declared dead: m2=%s m3=%s", st2.State, st3.State)
		}
	}

	// Resurrect it on the same address with a fresh (zero) incarnation.
	ln, err := net.Listen("tcp", a1)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", a1, err)
	}
	srv := NewServer()
	m1b := srv.EnableMembership(MembershipConfig{Self: a1, Seeds: []string{a2}, Seed: 9})
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	// The returned node gossips out, learns it is slandered as dead, and
	// refutes at a higher incarnation; the survivors converge back to
	// alive.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_ = m1b.Tick(ctx)
		tickAll(ctx, alive)
		st2, _ := m2.View().Find(a1)
		st3, _ := m3.View().Find(a1)
		if st2.State == dht.MemberAlive && st3.State == dht.MemberAlive {
			if st2.Incarnation == 0 {
				t.Fatal("resurrection must ride a bumped incarnation")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refutation never converged: m2=%s m3=%s", st2.State, st3.State)
		}
	}
}

// TestGossipDeterministicPeerSelection pins the seeded peer-selection
// schedule: the same seed over the same view must pick the same
// sequence. CI's gossip-determinism job leans on this.
func TestGossipDeterministicPeerSelection(t *testing.T) {
	pick := func(seed int64) []string {
		srv := NewServer()
		m := srv.EnableMembership(MembershipConfig{
			Self:  "self:1",
			Seeds: []string{"p1:1", "p2:1", "p3:1"},
			Seed:  seed,
		})
		var out []string
		for i := 0; i < 12; i++ {
			p, ok := m.pickPeer()
			if !ok {
				t.Fatal("no peer")
			}
			out = append(out, p)
		}
		return out
	}
	a, b := pick(42), pick(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := pick(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGossipReusesPeerConnection: rounds between healthy members ride one
// pipelined connection per peer, not one dial per round.
func TestGossipReusesPeerConnection(t *testing.T) {
	ctx := context.Background()
	d := &countingDialer{}
	_, m1, a1 := startMemberWith(t, MembershipConfig{Seed: 1, Dialer: d})
	_, m2, _ := startMemberWith(t, MembershipConfig{Seeds: []string{a1}, Seed: 2, Dialer: d})
	for i := 0; i < 10; i++ {
		for _, m := range []*Membership{m1, m2} {
			if err := m.Tick(ctx); err != nil && i > 0 {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
	// m1 learns of m2 from m2's first exchange, so each side dials once.
	if got := d.dials.Load(); got != 2 {
		t.Fatalf("10 rounds each between two members dialed %d times, want 2 (one per peer)", got)
	}
}

// TestGossipRedialsAfterFailedExchange: a round that times out on a
// black-holed return path closes the peer's connection, and the next round
// dials fresh and succeeds at once, with no redial backoff in the way.
func TestGossipRedialsAfterFailedExchange(t *testing.T) {
	ctx := context.Background()
	chaos := netchaos.New(21)
	d := &countingDialer{base: chaos}
	_, _, a1 := startMember(t, nil, 1)
	_, m2, _ := startMemberWith(t, MembershipConfig{Seeds: []string{a1}, Seed: 2, Dialer: d})
	if err := m2.Tick(ctx); err != nil {
		t.Fatal(err)
	}

	// The connection's reader may already be parked in a socket read,
	// beyond the rule's reach, which lets one more reply through; the
	// round after that is black-holed.
	chaos.Add(netchaos.Rule{Effect: netchaos.Effect{DropReads: true}})
	chaos.Start()
	failed := false
	for i := 0; i < 3 && !failed; i++ {
		short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		start := time.Now()
		failed = m2.Tick(short) != nil
		cancel()
		if el := time.Since(start); el > time.Second {
			t.Fatalf("round took %v, want it bounded by its 100ms deadline", el)
		}
	}
	if !failed {
		t.Fatal("exchanges over a black-holed return path kept succeeding")
	}

	chaos.Clear()
	start := time.Now()
	if err := m2.Tick(ctx); err != nil {
		t.Fatalf("round after the link healed: %v", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("round after the link healed took %v, want no backoff wait", el)
	}
	if got := d.dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2: the failed round's connection must be replaced", got)
	}
}

// TestCloseReclaimsPeerConnections: after gossip has opened a connection
// to a peer that stays up, Server.Close leaves no connection goroutine
// behind on either side.
func TestCloseReclaimsPeerConnections(t *testing.T) {
	ctx := context.Background()
	_, _, apeer := startMember(t, nil, 2)
	leak := checkGoroutines(t)
	srv, m, _ := startMember(t, []string{apeer}, 1)
	if err := m.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	leak()
}
