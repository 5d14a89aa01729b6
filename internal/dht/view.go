package dht

// The cluster-membership view: a versioned member list every node (and
// every client) can hold, merge, and gossip. The view is substrate-
// agnostic — internal/tcpnet maintains one by anti-entropy gossip between
// servers, but the types live here so chord/kademlia substrates and the
// index facade can speak membership without importing a transport.
//
// The state machine per member is SWIM-flavored:
//
//	alive -> suspect -> dead -> left
//	  ^________|__________|
//	     (refutation: the member reasserts itself at a higher incarnation)
//
// Two views merge member-wise with a deterministic total order: the
// higher incarnation always wins (a member that came back bumped its
// incarnation, overriding any stale suspicion), and within one
// incarnation the *worse* state wins (Alive < Suspect < Dead < Left), so
// a rumor of death cannot be shouted down by an equally old claim of
// health — only a fresher incarnation refutes it.

import (
	"context"
	"fmt"
	"sort"
)

// MemberState is one member's position in the failure-detection state
// machine. The numeric order IS the merge order: within one incarnation
// the larger (worse) state wins.
type MemberState uint8

const (
	// MemberAlive: the member answers probes / gossip.
	MemberAlive MemberState = iota
	// MemberSuspect: consecutive probe failures (or a client's failed
	// dial) cast doubt; routing still includes the member, but its
	// failure is being timed.
	MemberSuspect
	// MemberDead: the suspicion timer expired without a refutation. The
	// member leaves the routing ring; re-replication may begin restoring
	// its keys elsewhere. A dead member that returns refutes at a higher
	// incarnation and rejoins as alive.
	MemberDead
	// MemberLeft: the member announced a graceful permanent departure; it
	// never rejoins under this incarnation.
	MemberLeft
)

// String names the state for logs and status output.
func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	case MemberLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Routable reports whether the member should be part of the client's
// routing ring: alive and suspect members still hold their arcs (suspicion
// is doubt, not a verdict), dead and left members do not.
func (s MemberState) Routable() bool { return s == MemberAlive || s == MemberSuspect }

// Member is one node's entry in a ClusterView.
type Member struct {
	// Addr is the node's listen address, the same string clients dial; it
	// identifies the member (and hashes to its ring position).
	Addr string
	// State is the member's current failure-detection state.
	State MemberState
	// Incarnation is the member's self-asserted generation number. Only
	// the member itself increments it (when refuting suspicion or
	// rejoining after death), which is what makes the merge rule safe:
	// third parties can worsen a state within an incarnation, never
	// resurrect one.
	Incarnation uint64
}

// supersedes reports whether m's claim about a member wins over o's under
// the merge order: higher incarnation first, worse state within one.
func (m Member) supersedes(o Member) bool {
	if m.Incarnation != o.Incarnation {
		return m.Incarnation > o.Incarnation
	}
	return m.State > o.State
}

// ClusterView is a versioned membership list. Members are kept sorted by
// Addr so equal views are structurally equal and encodings are canonical.
// The Epoch is a monotonic version: it advances whenever a merge or a
// local transition changes any member entry, so "has anything changed"
// is one integer compare for pollers.
type ClusterView struct {
	Epoch   uint64
	Members []Member
}

// Clone returns a deep copy (the Members slice is fresh).
func (v ClusterView) Clone() ClusterView {
	out := ClusterView{Epoch: v.Epoch}
	out.Members = append([]Member(nil), v.Members...)
	return out
}

// Find returns the member entry for addr, if present.
func (v ClusterView) Find(addr string) (Member, bool) {
	i := sort.Search(len(v.Members), func(i int) bool { return v.Members[i].Addr >= addr })
	if i < len(v.Members) && v.Members[i].Addr == addr {
		return v.Members[i], true
	}
	return Member{}, false
}

// Upsert applies one member claim to the view under the merge order and
// reports whether the view changed. New addresses are inserted; known
// ones are replaced only when the claim supersedes the held entry.
func (v *ClusterView) Upsert(m Member) bool {
	i := sort.Search(len(v.Members), func(i int) bool { return v.Members[i].Addr >= m.Addr })
	if i < len(v.Members) && v.Members[i].Addr == m.Addr {
		if !m.supersedes(v.Members[i]) {
			return false
		}
		v.Members[i] = m
		return true
	}
	v.Members = append(v.Members, Member{})
	copy(v.Members[i+1:], v.Members[i:])
	v.Members[i] = m
	return true
}

// Merge folds the remote view into v member-wise under the merge order.
// The merged epoch is the max of both inputs, advanced by one more when
// the fold changed any entry — so both sides of an exchange converge on
// the same epoch for the same member list, and every real change is
// visible as an epoch step. Returns whether v changed.
func (v *ClusterView) Merge(remote ClusterView) bool {
	changed := false
	for _, m := range remote.Members {
		if v.Upsert(m) {
			changed = true
		}
	}
	if remote.Epoch > v.Epoch {
		v.Epoch = remote.Epoch
	}
	if changed {
		v.Epoch++
	}
	return changed
}

// Alive returns the addresses of routable members (alive or suspect), in
// canonical order.
func (v ClusterView) Alive() []string {
	var out []string
	for _, m := range v.Members {
		if m.State.Routable() {
			out = append(out, m.Addr)
		}
	}
	return out
}

// ClusterStatus is the operator-facing introspection snapshot a
// membership-aware substrate reports: the view version plus one row per
// member combining the gossip state with this client's replica debt.
type ClusterStatus struct {
	// ViewEpoch is the membership view version the reporter holds.
	ViewEpoch uint64
	// Members has one row per known member, sorted by Addr.
	Members []MemberStatus
}

// MemberStatus is one member's row in a ClusterStatus.
type MemberStatus struct {
	// Addr is the member's listen address.
	Addr string
	// State is the member's membership state in the reporter's view.
	State MemberState
	// Incarnation is the member's incarnation in the reporter's view.
	Incarnation uint64
	// ReplicaDebt is the number of missing replica copies this client has
	// observed on the member and not yet seen restored (via
	// EnsureReplicated probes); 0 when none or never probed.
	ReplicaDebt int
}

// ClusterReporter is the optional introspection capability of a
// membership-aware substrate. The root facade's ClusterStatus method and
// lht-cli's -status command discover it by type assertion.
type ClusterReporter interface {
	ClusterStatus(ctx context.Context) (ClusterStatus, error)
}

// ReplicaRepair is the outcome of one EnsureReplicated call: how many
// holder probes it issued, how many copies it found missing or behind the
// freshest, and how many it restored.
type ReplicaRepair struct {
	Probes   int // per-holder existence probes issued (each a DHT round trip)
	Missing  int // holder slots found without a copy, or with an older one
	Restored int // copies re-stored on their owners
}

// Add accumulates another repair's counts.
func (r *ReplicaRepair) Add(o ReplicaRepair) {
	r.Probes += o.Probes
	r.Missing += o.Missing
	r.Restored += o.Restored
}

// Rereplicator is the optional re-replication capability of a replicated
// substrate: EnsureReplicated(key) probes every current ring owner of the
// key and restores missing or older copies from the freshest surviving
// one (via
// the substrate's epoch-ordered store, so a restore can never roll a
// holder back). Index.Scrub drives it over every bucket key when
// re-replication is enabled, which is how a permanently dead node's keys
// regain full replica count on the new ring owners.
type Rereplicator interface {
	EnsureReplicated(ctx context.Context, key string) (ReplicaRepair, error)
}
