package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
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
	if _, err := Dial(ctx, ClusterConfig{Seeds: []string{"a:1"}, FailoverWrites: true}); err == nil {
		t.Error("write failover without replication must fail")
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

// holderIndex is the index in addrs of the i-th holder of key.
func holderIndex(t *testing.T, c *Client, addrs []string, key string, i int) int {
	t.Helper()
	for j, a := range addrs {
		if a == c.holders(key)[i].addr {
			return j
		}
	}
	t.Fatalf("holder %d of %q is no member", i, key)
	return -1
}

// rebind starts an empty membership server at the address a closed one
// listened on, as a node that lost its disk comes back.
func rebind(t *testing.T, addr string, addrs []string) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	back := NewServer()
	_ = back.EnableMembership(MembershipConfig{Self: addr, Seeds: addrs, Seed: 99})
	go func() { _ = back.Serve(ln) }()
	t.Cleanup(func() { _ = back.Close() })
	return back
}

// TestFailoverWritesSurviveADownHolder pins write failover's store rule:
// a put of an epoch-tagged value whose secondary is down succeeds, stored
// on the primary (the missed copy is the scrub's to restore); a put of an
// untagged value, which the scrub could not order against the copy the
// secondary kept, fails; and a put with every holder of its key down
// fails, so no write returns having stored no copy.
func TestFailoverWritesSurviveADownHolder(t *testing.T) {
	ctx := context.Background()
	srvs, _, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, FailoverWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := "fw-key"
	primary, secondary := holderIndex(t, c, addrs, key, 0), holderIndex(t, c, addrs, key, 1)
	_ = srvs[secondary].Close()
	put := func(v dht.Value) error {
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		return c.Put(pctx, key, v)
	}
	if err := put(wideBucket()); err != nil {
		t.Fatalf("put with the secondary down: %v", err)
	}
	if !srvs[primary].Has(key) {
		t.Fatal("the primary holds no copy of a put that succeeded")
	}
	if err := put([]byte("v1")); !dht.IsTransient(err) {
		t.Fatalf("an untagged put with the secondary down = %v, want the transport fault", err)
	}

	_ = srvs[primary].Close()
	if err := put(wideBucket()); err == nil || !dht.IsTransient(err) {
		t.Fatalf("a put with every holder down = %v, want the transport fault", err)
	}
}

// TestScrubRestoresACopyItsHolderKeptThroughAMissedWrite: a primary that
// was down while a put was acknowledged, and comes back with the copy it
// had (a restart on its snapshot), holds the older epoch until the
// re-replicating scrub; the scrub restores the acknowledged value onto it,
// after which a read returns that value and a PutIf built on a fresh read
// keeps its records on every holder.
func TestScrubRestoresACopyItsHolderKeptThroughAMissedWrite(t *testing.T) {
	ctx := context.Background()
	srvs, _, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, FailoverWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v1 := wideBucket()
	key := v1.Label.Name().Key()
	if err := c.Put(ctx, key, v1); err != nil {
		t.Fatal(err)
	}
	primary, secondary := holderIndex(t, c, addrs, key, 0), holderIndex(t, c, addrs, key, 1)
	snap := filepath.Join(t.TempDir(), "primary.snap")
	if err := srvs[primary].SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	_ = srvs[primary].Close()
	v2 := v1.Clone()
	v2.Epoch++
	v2.Records = v2.Records[:40]
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = c.Put(pctx, key, v2)
	cancel()
	if err != nil {
		t.Fatalf("put with the primary down: %v", err)
	}
	srvs[primary] = rebind(t, addrs[primary], addrs)
	if err := srvs[primary].LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	epochOn := func(s *Server) uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return storedEpoch(storedValue(s, key))
	}
	if got := epochOn(srvs[primary]); got != v1.Epoch {
		t.Fatalf("the returned primary stores epoch %d, want its old %d", got, v1.Epoch)
	}

	// One scrub, retried while the client's redial backoff for the
	// returned primary lasts (<= 250 ms).
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep, err := c.EnsureReplicated(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Restored == 1 {
			if rep.Missing != 1 {
				t.Fatalf("repair = %+v, want 1 missing / 1 restored", rep)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the scrub left the primary's older copy in place: last repair %+v", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}
	v, err := c.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*ilht.Bucket); got.Epoch != v2.Epoch || len(got.Records) != len(v2.Records) {
		t.Fatalf("read epoch %d with %d records, want the acknowledged epoch %d with %d", got.Epoch, len(got.Records), v2.Epoch, len(v2.Records))
	}

	v3 := v.(*ilht.Bucket).Clone()
	v3.Epoch++
	v3.Records = append(v3.Records, record.Record{Key: 0.71875, Value: []byte("v3")})
	if err := c.PutIf(ctx, key, v3, v2.Epoch); err != nil {
		t.Fatalf("PutIf on a fresh read: %v", err)
	}
	for _, i := range []int{primary, secondary} {
		if got := epochOn(srvs[i]); got != v3.Epoch {
			t.Errorf("node %d stores epoch %d, want %d", i, got, v3.Epoch)
		}
	}
	v, err = c.Get(ctx, key)
	if got, ok := v.(*ilht.Bucket); err != nil || !ok || len(got.Records) != len(v2.Records)+1 {
		t.Fatalf("after the PutIf read %v, %v; want the acknowledged %d records and one more", v, err, len(v2.Records))
	}
}

// TestRemovedKeyStaysRemovedWhenItsHolderReturns: a holder that was down
// while a key was put, and comes back empty, must not have the key put
// back on it after the key is removed, however many gossip rounds run
// after the removal; a Get then finds the key on no holder.
func TestRemovedKeyStaysRemovedWhenItsHolderReturns(t *testing.T) {
	ctx := context.Background()
	srvs, mems, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, FailoverWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := "gone-key"
	secondary := holderIndex(t, c, addrs, key, 1)
	_ = srvs[secondary].Close()
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = c.Put(pctx, key, wideBucket())
	cancel()
	if err != nil {
		t.Fatalf("put with the secondary down: %v", err)
	}
	srvs[secondary] = rebind(t, addrs[secondary], addrs)
	mems[secondary] = srvs[secondary].Membership()

	// The removal reaches both holders: the client redials the returned
	// one once its backoff has passed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = c.Remove(ctx, key); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remove with both holders up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for round := 0; round < 8; round++ {
		for _, m := range mems {
			_ = m.Tick(ctx)
		}
	}
	for i, s := range srvs {
		if s.Has(key) {
			t.Fatalf("node %d stores the removed key", i)
		}
	}
	deadline = time.Now().Add(time.Second) // past the redial backoff (<= 250 ms)
	for {
		_, err = c.Get(ctx, key)
		if errors.Is(err, dht.ErrNotFound) {
			break
		}
		if err == nil {
			t.Fatal("Get read back the removed key")
		}
		if time.Now().After(deadline) {
			t.Fatalf("Get of the removed key: %v, want not-found", err)
		}
		time.Sleep(20 * time.Millisecond)
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
// epoch and restores a missing or older copy from it byte for byte
// through putnewer. So a plain get must answer the stored bytes, epoch
// prefix and all: here the first holder probed keeps a stale copy, the
// second the fresh one, and the third lost its copy; the first and the
// third must get the fresh bytes exactly as the second stores them.
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
	if err != nil || rep.Missing != 2 || rep.Restored != 2 {
		t.Fatalf("repair = %+v, %v, want 2 missing / 2 restored", rep, err)
	}
	fresh.mu.Lock()
	want := bytes.Clone(storedValue(fresh, key))
	fresh.mu.Unlock()
	for name, s := range map[string]*Server{"lost": lost, "stale": first} {
		s.mu.Lock()
		got := bytes.Clone(storedValue(s, key))
		s.mu.Unlock()
		if want[0] != tagEpoch || !bytes.Equal(got, want) {
			t.Errorf("the restored %s copy is %d bytes (%x…), want the fresh holder's %d (%x…)", name, len(got), got[:min(len(got), 4)], len(want), want[:4])
		}
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

// TestRefreshViewRevivesTheGate pins the gate's two jobs for membership:
// a refused dial marks the node suspect in the client's view (the only
// local failure evidence that reaches gossip), and a gate backing off
// against a node that later rejoins is reset as soon as a view refresh
// brings back the member's refutation (alive at a bumped incarnation) —
// gossip evidence outranks the gate's stale failure memory.
func TestRefreshViewRevivesTheGate(t *testing.T) {
	ctx := context.Background()
	srvs, mems, addrs := startMemberCluster(t, 3)
	c, err := Dial(ctx, ClusterConfig{Seeds: addrs, Replicas: 2, PoolSize: 1, FailoverWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill a node and read until a refused dial backs its gate off.
	key := "revive-key"
	victimIdx := holderIndex(t, c, addrs, key, 0)
	victim := addrs[victimIdx]
	_ = srvs[victimIdx].Close()
	for i := 0; i < 4 && gateFails(c, victim) < 1; i++ {
		gctx, cancel := context.WithTimeout(ctx, time.Second)
		_, _ = c.Get(gctx, key)
		cancel()
	}
	if got := gateFails(c, victim); got < 1 {
		t.Fatalf("gate for downed node holds %d failures, want >= 1", got)
	}
	if m, _ := c.View().Find(victim); m.State != dht.MemberSuspect {
		t.Fatalf("downed node is %v in the client's view, want suspect", m.State)
	}
	// Hold the gate shut for a minute, so it cannot reopen on its own
	// within this test: only the revive path can reset it.
	window := time.Now().Add(time.Minute)
	for _, n := range c.ringNodes() {
		if n.addr == victim {
			n.conns[0].mu.Lock()
			n.conns[0].gate.next = window
			n.conns[0].mu.Unlock()
		}
	}

	// A refresh while the node is still down must NOT revive: the view has
	// nothing newer than the client's own suspicion.
	_ = c.RefreshView(ctx)
	if got := gateFails(c, victim); got < 1 {
		t.Fatalf("gate reset without evidence: %d failures", got)
	}

	// Rejoin at the same address; gossip until the refutation (alive at a
	// bumped incarnation) reaches the client and resets the gate.
	mems[victimIdx] = rebind(t, victim, addrs).Membership()

	deadline := time.Now().Add(10 * time.Second)
	for gateFails(c, victim) != 0 {
		for _, m := range mems {
			_ = m.Tick(ctx)
		}
		_ = c.RefreshView(ctx)
		if time.Now().After(deadline) {
			t.Fatalf("gate never revived; view %v", c.View())
		}
	}
	if err := c.Put(ctx, key, []byte("after")); err != nil {
		t.Fatalf("put after revive: %v", err)
	}
	if !time.Now().Before(window) {
		t.Fatal("the put came after the gate's old window: the revive went unshown")
	}
}
