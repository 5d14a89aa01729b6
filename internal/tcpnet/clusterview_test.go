package tcpnet

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"lht/internal/dht"
)

// startMemberCluster boots n servers with membership enabled (each seeded
// with every other) and returns servers, memberships, and addresses.
func startMemberCluster(t *testing.T, n int) ([]*Server, []*Membership, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*Server, n)
	mems := make([]*Membership, n)
	for i := range lns {
		srvs[i] = NewServer()
		mems[i] = srvs[i].EnableMembership(MembershipConfig{
			Self: addrs[i], Seeds: addrs, Seed: int64(i + 1),
		})
		go func(s *Server, ln net.Listener) { _ = s.Serve(ln) }(srvs[i], lns[i])
		t.Cleanup(func(i int) func() { return func() { _ = srvs[i].Close() } }(i))
	}
	return srvs, mems, addrs
}

func TestDialClusterConfig(t *testing.T) {
	ctx := context.Background()
	_, _, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v.([]byte)) != "v" {
		t.Fatalf("got %q", v)
	}
}

func TestDialClusterConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Dial(ctx, ClusterConfig{}); err == nil {
		t.Error("empty seeds must fail")
	}
	if _, err := Dial(ctx, ClusterConfig{Seeds: []string{"a:1"}, HintedHandoff: true}); err == nil {
		t.Error("hinted handoff without replication must fail")
	}
}

func TestRefreshViewGrowsRing(t *testing.T) {
	ctx := context.Background()
	_, mems, addrs := startMemberCluster(t, 3)
	// Converge the server views first.
	for i := 0; i < 4; i++ {
		for _, m := range mems {
			_ = m.Tick(ctx)
		}
	}
	// The client bootstraps off a single seed; one refresh teaches it the
	// whole cluster.
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs[:1]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.NodeAddrs()); got != 1 {
		t.Fatalf("bootstrap ring size = %d, want 1", got)
	}
	if err := c.RefreshView(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(c.NodeAddrs()); got != 3 {
		t.Fatalf("refreshed ring size = %d, want 3: %v", got, c.NodeAddrs())
	}
	if c.View().Epoch == 0 {
		t.Fatal("refresh must adopt a non-zero view epoch")
	}
}

func TestApplyViewRetiresDeadMember(t *testing.T) {
	ctx := context.Background()
	srvs, mems, addrs := startMemberCluster(t, 4)
	for i := 0; i < 5; i++ {
		for _, m := range mems {
			_ = m.Tick(ctx)
		}
	}
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill one node; tick the survivors until they declare it dead.
	_ = srvs[3].Close()
	alive := mems[:3]
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, m := range alive {
			_ = m.Tick(ctx)
			st, _ := m.View().Find(addrs[3])
			if st.State != dht.MemberDead {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never declared the node dead")
		}
	}
	if err := c.RefreshView(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(c.NodeAddrs()); got != 3 {
		t.Fatalf("ring size after death = %d, want 3: %v", got, c.NodeAddrs())
	}
	for _, a := range c.NodeAddrs() {
		if a == addrs[3] {
			t.Fatal("dead member still routable")
		}
	}
	// Ops must still work on the shrunken ring.
	if err := c.Put(ctx, "post-death", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestApplyViewRefusesToShrinkBelowReplicas(t *testing.T) {
	ctx := context.Background()
	_, _, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var v dht.ClusterView
	v.Upsert(dht.Member{Addr: addrs[0], State: dht.MemberAlive})
	v.Upsert(dht.Member{Addr: addrs[1], State: dht.MemberAlive})
	v.Upsert(dht.Member{Addr: addrs[2], State: dht.MemberDead, Incarnation: 1})
	if c.applyView(v) {
		t.Fatal("view below the replica count must be held, not applied")
	}
	if got := len(c.NodeAddrs()); got != 3 {
		t.Fatalf("ring shrank to %d", got)
	}
}

func TestHintedHandoffParksAndReplays(t *testing.T) {
	ctx := context.Background()
	srvs, mems, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, HintedHandoff: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Choose the downed holder as the SECONDARY of the key so the primary
	// stays up to accept both its copy and the park.
	key := "hh-key"
	victim := c.holders(key)[1].addr
	var victimIdx int
	for i, a := range addrs {
		if a == victim {
			victimIdx = i
		}
	}
	_ = srvs[victimIdx].Close()

	// The put must succeed despite the down holder: its copy parks.
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = c.Put(pctx, key, []byte("v1"))
	cancel()
	if err != nil {
		t.Fatalf("put with hinted handoff failed: %v", err)
	}
	backlog := 0
	for i, s := range srvs {
		if i == victimIdx {
			continue
		}
		backlog += s.HintBacklog()[victim]
	}
	if backlog != 1 {
		t.Fatalf("parked hints = %d, want 1", backlog)
	}

	// Resurrect the holder and let the park node replay.
	ln, err := net.Listen("tcp", victim)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", victim, err)
	}
	back := NewServer()
	_ = back.EnableMembership(MembershipConfig{Self: victim, Seeds: addrs, Seed: 99})
	go func() { _ = back.Serve(ln) }()
	t.Cleanup(func() { _ = back.Close() })

	deadline := time.Now().Add(10 * time.Second)
	for !back.Has(key) {
		for i, m := range mems {
			if i != victimIdx {
				_ = m.Tick(ctx)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("hint never replayed to the returned holder")
		}
	}
}

func TestEnsureReplicated(t *testing.T) {
	ctx := context.Background()
	srvs, _, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Sabotage one copy directly in a holder's store.
	victim := c.holders("k")[1]
	for _, s := range srvs {
		s.mu.Lock()
		if s.mem.self == victim.addr {
			delete(s.store, "k")
		}
		s.mu.Unlock()
	}
	rep, err := c.EnsureReplicated(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 3 || rep.Missing != 1 || rep.Restored != 1 {
		t.Fatalf("repair = %+v, want 3 probes / 1 missing / 1 restored", rep)
	}
	// All three holders must hold the key again.
	for _, s := range srvs {
		if !s.Has("k") {
			t.Fatal("replica not restored")
		}
	}
	// A clean key needs no repair.
	rep, err = c.EnsureReplicated(ctx, "k")
	if err != nil || rep.Missing != 0 || rep.Restored != 0 {
		t.Fatalf("second pass = %+v, %v", rep, err)
	}
	// An absent key is not an error.
	rep, err = c.EnsureReplicated(ctx, "never-stored")
	if err != nil || rep.Restored != 0 {
		t.Fatalf("absent key = %+v, %v", rep, err)
	}
}

// TestEnsureReplicatedRestoresTheFreshestBytes: re-replication reads each
// holder's copy with a plain get, picks the one with the highest stored
// epoch and restores a missing copy from it byte for byte through
// putnewer. So a plain get must answer the stored bytes, epoch prefix and
// all: here the first holder probed keeps a stale copy, the second the
// fresh one, and the third, which lost its copy, must get the fresh
// bytes exactly as the second stores them.
func TestEnsureReplicatedRestoresTheFreshestBytes(t *testing.T) {
	ctx := context.Background()
	srvs, _, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := wideBucket()
	key := b.Label.Name().Key()
	if err := c.Put(ctx, key, b); err != nil {
		t.Fatal(err)
	}
	stale := b.Clone()
	stale.Epoch, stale.Records = b.Epoch-1, stale.Records[:10]
	staleBytes, err := appendValue(nil, stale)
	if err != nil {
		t.Fatal(err)
	}
	byAddr := make(map[string]*Server, len(srvs))
	for _, s := range srvs {
		byAddr[s.mem.self] = s
	}
	holders := c.holders(key)
	first, fresh, lost := byAddr[holders[0].addr], byAddr[holders[1].addr], byAddr[holders[2].addr]
	first.mu.Lock()
	plantValue(first, key, staleBytes)
	first.mu.Unlock()
	lost.mu.Lock()
	delete(lost.store, key)
	lost.mu.Unlock()

	rep, err := c.EnsureReplicated(ctx, key)
	if err != nil || rep.Missing != 1 || rep.Restored != 1 {
		t.Fatalf("repair = %+v, %v, want 1 missing / 1 restored", rep, err)
	}
	fresh.mu.Lock()
	want := bytes.Clone(storedValue(fresh, key))
	fresh.mu.Unlock()
	lost.mu.Lock()
	got := bytes.Clone(storedValue(lost, key))
	lost.mu.Unlock()
	if want[0] != tagEpoch || !bytes.Equal(got, want) {
		t.Errorf("the restored copy is %d bytes (%x…), want the fresh holder's %d (%x…)", len(got), got[:min(len(got), 4)], len(want), want[:4])
	}
}

func TestClusterStatusReport(t *testing.T) {
	ctx := context.Background()
	_, mems, addrs := startMemberCluster(t, 3)
	for i := 0; i < 4; i++ {
		for _, m := range mems {
			_ = m.Tick(ctx)
		}
	}
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 {
		t.Fatalf("status has %d members, want 3: %+v", len(st.Members), st)
	}
	// All servers bootstrapped with the identical full member list, so no
	// exchange ever changed a view and the epoch legitimately stays 0;
	// the report must mirror whatever the client's merged view holds.
	if got := c.View().Epoch; st.ViewEpoch != got {
		t.Fatalf("status epoch %d != client view epoch %d", st.ViewEpoch, got)
	}
	for _, m := range st.Members {
		if m.State != dht.MemberAlive {
			t.Fatalf("%s reported %s, want alive", m.Addr, m.State)
		}
		if m.Breaker != dht.BreakerClosed {
			t.Fatalf("%s breaker %v, want closed", m.Addr, m.Breaker)
		}
	}
}

// TestClusterStatusWithoutMembershipPlane pins the fallback: against a
// plain cluster the report is the client's own ring view.
func TestClusterStatusWithoutMembershipPlane(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 2 {
		t.Fatalf("fallback status has %d members, want 2", len(st.Members))
	}
}

// TestRefreshViewRevivesBreaker pins the revive rule: a breaker opened
// against a node that later rejoins must close as soon as a view refresh
// brings back the member's refutation (alive at a bumped incarnation) —
// gossip evidence outranks the breaker's stale failure memory.
func TestRefreshViewRevivesBreaker(t *testing.T) {
	ctx := context.Background()
	srvs, mems, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, HintedHandoff: true,
		Health: &dht.BreakerConfig{Threshold: 2, Cooldown: time.Minute, MaxCooldown: time.Minute, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill a node and hammer it until its breaker opens. The minute-long
	// cooldown guarantees the breaker cannot recover on its own within
	// this test: only the revive path can close it.
	key := "revive-key"
	victim := c.holders(key)[0].addr
	var victimIdx int
	for i, a := range addrs {
		if a == victim {
			victimIdx = i
		}
	}
	_ = srvs[victimIdx].Close()
	for i := 0; i < 4 && c.Health(victim) != dht.BreakerOpen; i++ {
		gctx, cancel := context.WithTimeout(ctx, time.Second)
		_, _ = c.Get(gctx, key)
		cancel()
	}
	if got := c.Health(victim); got != dht.BreakerOpen {
		t.Fatalf("breaker for downed node = %s, want open", got)
	}

	// A refresh while the node is still down must NOT revive: the view has
	// nothing newer than the client's own suspicion.
	_ = c.RefreshView(ctx)
	if got := c.Health(victim); got != dht.BreakerOpen {
		t.Fatalf("breaker revived without evidence: %s", got)
	}

	// Rejoin at the same address; gossip until the refutation (alive at a
	// bumped incarnation) reaches the client and revives the breaker.
	ln, err := net.Listen("tcp", victim)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", victim, err)
	}
	back := NewServer()
	mems[victimIdx] = back.EnableMembership(MembershipConfig{Self: victim, Seeds: addrs, Seed: 99})
	go func() { _ = back.Serve(ln) }()
	t.Cleanup(func() { _ = back.Close() })

	deadline := time.Now().Add(10 * time.Second)
	for c.Health(victim) != dht.BreakerClosed {
		for _, m := range mems {
			_ = m.Tick(ctx)
		}
		_ = c.RefreshView(ctx)
		if time.Now().After(deadline) {
			t.Fatalf("breaker never revived; view %v", c.View())
		}
	}
	if err := c.Put(ctx, key, []byte("after")); err != nil {
		t.Fatalf("put after revive: %v", err)
	}
}
