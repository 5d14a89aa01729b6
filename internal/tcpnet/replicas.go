package tcpnet

// Client-driven replication (ClusterConfig.Replicas): each key is stored on
// its holders — its owner plus the next Replicas-1 distinct ring members,
// the same successor-set scheme the Chord substrate uses. Every operation
// has one body, which walks the key's holders; a holder set of one is the
// unreplicated client, and each body is then one round trip to it. The
// servers stay plain byte stores — fan-out and fallback both live here:
//
//   - put-like ops store on every holder, concurrently, before returning;
//   - conditional ops resolve their compare-and-swap on the primary (the
//     one serializer per key) and propagate the outcome to the other
//     holders only after the primary accepted it — via OpPutNewer, the
//     epoch-ordered store: a holder rejects a propagated value whose
//     epoch tag is older than what it already stores;
//   - Get starts at the primary, the key's CAS serializer, and falls
//     back through the other holders in order, so an unreachable or
//     lagging holder costs an extra round trip, never a wrong answer.
//     A hedged duplicate (dht.ReadStart) starts at the first secondary
//     instead. Client.Take, which no dht.DHT method reaches, returns the
//     first copy in holder order.
//
// A key is therefore never *stale* on a reachable holder once its write
// has returned (every accepted write reaches all of them first), at most
// *absent* where a fan-out has not landed yet, and absence falls back.
// Concurrent writers to one key are serialized by the primary's CAS, but
// their fan-outs may interleave on the network; the epoch-ordered
// propagation makes that harmless — if commit N's fan-out overtakes commit
// N-1's, the straggler is rejected on arrival instead of durably rolling a
// holder back. A secondary lags the primary only while a fan-out is in
// flight to it, and reads ask the primary first, so while the primary
// answers no read sees that lag: once a reader has seen a commit, no later
// read returns the value before it. Only a hedged duplicate, raced against
// a slow primary, asks a secondary first. The one remaining divergence
// window is a removal racing an earlier commit's fan-out (a late store can
// transiently resurrect a copy on a secondary after RemoveIf's propagation
// deleted it); that copy carries an older epoch, which the index's scrub
// orders and repairs. Under ClusterConfig.FailoverWrites a write of an
// epoch-tagged value also returns without a holder it could not reach
// (see settle): that holder misses the write, and until the
// re-replicating scrub restores its copy (EnsureReplicated, which orders
// copies by epoch) it answers with the copy it had before, or with none.
// In that window a returned primary that kept its older copy serves it to
// every read and serializes conditionals on it: a writer that read it can
// commit over the acknowledged value. Batched stores
// replicate in per-rank waves (see PutBatch); batched reads group by
// primary, which holds every accepted write by construction, and a slot
// the primary could not answer is read again as Get reads it.
//
// With one holder a read has nowhere to fail over, and nothing is
// propagated. A write reaches the holders it must through reach: one
// target — the lone holder, or at two replicas the one holder a
// conditional propagates to — is served on the caller's goroutine, and
// only two or more go through fanOut, whose goroutines and shared state
// are heap-allocated. So a replica costs a write its round trip and
// nothing else; the caller blocks until every target answered either way.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lht/internal/dht"
	"lht/internal/metrics"
)

// get reads r's key from its primary, falling back through the rest in
// holder order: a holder that is missing the key (a fan-out it has not seen) or
// unreachable costs one extra round trip, and only a miss on every
// holder is a real miss. A probe's hint rides every attempt, so a
// failover is answered under the same rule as the first try.
//
// Degradation contract: a holder whose redial gate is backing off fails
// in microseconds, so the read moves straight to the next holder — a
// dead primary never costs a timeout. Each failover attempt runs
// under an even share of the caller's remaining deadline (stepCtx), so a
// black-holed holder burns its share of the budget, never all of it; the
// loop stops early only when the caller's own deadline is spent.
//
// A hedged duplicate (dht.MarkHedgeAttempt) starts at the first
// secondary instead: first reads never do, so the duplicate is
// guaranteed a different first holder than the straggler it is racing.
func (c *Client) get(ctx context.Context, r req) (dht.Value, error) {
	holders := c.holders(r.key)
	start := dht.ReadStart(ctx)
	var firstErr error
	for i := range holders {
		n := holders[(start+i)%len(holders)]
		actx, cancel := stepCtx(ctx, len(holders)-i)
		v, err := n.do(actx, r)
		cancel()
		if err == nil {
			return v, nil
		}
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			// The step budget expired, not the caller's deadline: to the
			// caller this is an ordinary transient holder fault, so it
			// must stay retryable — context.DeadlineExceeded would wrongly
			// read as the caller's own deadline and stop a policy-layer
			// retry loop cold.
			err = dht.MarkTransient(fmt.Errorf(
				"tcpnet: holder %q timed out inside its failover budget", n.addr))
		}
		if !errors.Is(err, dht.ErrNotFound) {
			if firstErr == nil {
				firstErr = err
			}
			if i < len(holders)-1 {
				c.cfg.Counters.Add(metrics.Failovers, 1)
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, dht.ErrNotFound
}

// eachHolder performs r, a put, write or remove, on every holder of its
// key; with write failover an unreachable holder's copy of an
// epoch-tagged put or write is left to the scrub while another holder
// stored it (settle).
func (c *Client) eachHolder(ctx context.Context, r req) error {
	return c.reach(ctx, c.holders(r.key), -1, r)
}

// take fetches-and-deletes across the whole replica set: every holder
// gives up its copy, and the first found in holder order is returned.
func (c *Client) take(ctx context.Context, r req) (dht.Value, error) {
	holders := c.holders(r.key)
	if len(holders) == 1 {
		return holders[0].do(ctx, r)
	}
	var firstErr error
	for _, a := range c.fanOut(ctx, holders, -1, r) {
		if a.err == nil {
			return a.v, nil
		}
		if !errors.Is(a.err, dht.ErrNotFound) && firstErr == nil {
			firstErr = a.err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, dht.ErrNotFound
}

// cond resolves conditional r on the primary — the one serializer for
// the key — and propagates the accepted outcome to the remaining holders
// (req.propagated): epoch-ordered stores (OpPutNewer) for the put-like
// conditionals, so two commits' concurrently in-flight fan-outs land in
// epoch order regardless of network interleaving, the same patch in newer
// mode for a patch, and removal for RemoveIf. Propagation failures
// surface to the caller (the write IS committed on the primary; the
// caller's retry loop re-runs against the committed state), they never
// roll back the primary's decision. It answers what the serializer did:
// an applied patch's reply, a refused Patch's probe answer beside
// dht.ErrPatchRefused, nil for anything else.
//
// With write failover on, the serializer role itself fails over: an
// unreachable primary is skipped and the conditional resolves on the
// first reachable holder instead — every reachable holder carries the
// key's committed state (fan-outs are synchronous), so the CAS verdict
// is the same, and all writers walk the holders in the same order, so
// within one view they agree on the acting serializer. The skipped
// holders then miss the outcome: their propagation faults on an
// epoch-tagged value or a patch are dropped (the acting serializer stored
// it, see dropped), and the scrub restores their copies. Only transport
// faults fail over; a logical verdict (CAS
// conflict, not-found) from any holder settles the op. A refusal by the
// serializer itself wrote nothing anywhere.
func (c *Client) cond(ctx context.Context, r req) (dht.Value, error) {
	holders := c.holders(r.key)
	acting, reply, err := 0, dht.Value(nil), error(nil)
	for i, n := range holders {
		acting = i
		if reply, err = n.doAt(ctx, &r); err == nil || !c.cfg.FailoverWrites || errors.Is(err, dht.ErrNotFound) || !dht.IsTransient(err) {
			break
		}
	}
	if err != nil || len(holders) == 1 {
		return reply, err
	}
	if err := c.reach(ctx, holders, acting, r.propagated()); err != nil && !errors.Is(err, dht.ErrNotFound) {
		return reply, err
	}
	return reply, nil
}

// reach performs r on every holder but holders[skip] (skip -1 skips none)
// and returns the fault among their answers that settle keeps. One target
// is served on the caller's goroutine, with no goroutine or shared state
// to allocate; two or more go through fanOut. Either way each target gets
// propagate, and reach returns once every target answered.
func (c *Client) reach(ctx context.Context, holders []*clientNode, skip int, r req) error {
	targets, target := len(holders), 0
	if skip >= 0 {
		targets--
	}
	if targets > 1 {
		return c.settle(r, c.fanOut(ctx, holders, skip, r))
	}
	if skip == 0 {
		target = 1
	}
	_, err := c.propagate(ctx, holders[target], r, serializer(holders, skip), nil)
	if skip >= 0 && c.dropped(r, err) { // the serializer stored it
		return nil
	}
	return err
}

// serializer is holders[skip], the holder whose accepted write a
// propagation carries, or nil when skip is -1 (nothing is propagated).
func serializer(holders []*clientNode, skip int) *clientNode {
	if skip < 0 {
		return nil
	}
	return holders[skip]
}

// answer is one holder's reply to a fanned-out request.
type answer struct {
	v   dht.Value
	err error
}

// fanOut performs r on every holder but holders[skip] (skip -1 skips
// none), concurrently, one goroutine a target, and returns the answers in
// holder order. reach calls it for two targets or more, and take, which
// needs every holder's answer, for its whole holder set. The targets share
// one read-back of the serializer's whole value (propagate).
func (c *Client) fanOut(ctx context.Context, holders []*clientNode, skip int, r req) []answer {
	answers := make([]answer, len(holders))
	from, whole := serializer(holders, skip), new(readBack)
	var wg sync.WaitGroup
	for i, n := range holders {
		if i == skip {
			continue
		}
		wg.Add(1)
		go func(a *answer, n *clientNode) {
			defer wg.Done()
			a.v, a.err = c.propagate(ctx, n, r, from, whole)
		}(&answers[i], n)
	}
	wg.Wait()
	return answers
}

// propagate performs r on holder n. It is the one per-target body of
// reach and fanOut.
//
// A propagated patch (from cond, whose serializer is from) that n cannot
// apply — it is behind or ahead of the epoch (conflict), or stores a form
// it will not patch (refused) — is replaced for n by the whole value, read
// back from the serializer (whole.get) and stored over putnewer exactly as
// a propagated PutIf is. The value read back may already be a later
// commit's; putnewer's epoch order makes that harmless. A patch that did
// not reach n (a transport fault) is answered as it is: the whole value
// would not reach n either.
//
// A patch is weaker than a PutIf in one respect: nothing checks that a
// holder at the patch's epoch held the serializer's bytes. Two holders
// that differ at one epoch (split serializers, see cond) are made equal by
// the next PutIf's whole value; patched, they stay apart until the key is
// next written whole (frame.go, "same epoch means same bytes").
func (c *Client) propagate(ctx context.Context, n *clientNode, r req, from *clientNode, whole *readBack) (dht.Value, error) {
	v, err := n.do(ctx, r)
	if err == nil || r.op != dht.OpPatchIf || dht.IsTransient(err) {
		return v, err
	}
	if v, err = whole.get(ctx, from, r.key); err != nil { // not-found: since removed, nothing to propagate
		return nil, err
	}
	return n.do(ctx, req{op: dht.OpPutNewer, key: r.key, val: v})
}

// readBack is a fan-out's one read of a key's whole value from its
// serializer, shared by every target that could not apply a propagated
// patch.
type readBack struct {
	once sync.Once
	v    dht.Value
	err  error
}

// get reads key's whole value from from, at most once for all of w's
// targets; a nil w (reach's one target) reads it on the caller's goroutine.
func (w *readBack) get(ctx context.Context, from *clientNode, key string) (dht.Value, error) {
	get := req{op: dht.OpGet, key: key}
	if w == nil {
		return from.do(ctx, get)
	}
	w.once.Do(func() { w.v, w.err = from.do(ctx, get) })
	return w.v, w.err
}

// settle returns the first error among answers in holder order, with
// ErrNotFound outranked by any other error (a holder that never saw the
// key is expected mid-fan-out; a transport fault is not). Under write
// failover a fault dropped accepts is left out while some answer is nil,
// that is while some holder stored the value (the serializer's skipped
// slot is nil too); the re-replicating scrub restores that holder's copy
// later, missing or older. With no copy stored, the first fault stands.
func (c *Client) settle(r req, answers []answer) error {
	stored := false
	for _, a := range answers {
		stored = stored || a.err == nil
	}
	var notFound error
	for _, a := range answers {
		switch {
		case a.err == nil || stored && c.dropped(r, a.err):
		case errors.Is(a.err, dht.ErrNotFound):
			notFound = a.err
		default:
			return a.err
		}
	}
	return notFound
}

// dropped reports whether err, one holder's answer to r, is a fault write
// failover may leave to the scrub: a transport fault on a copy the scrub
// can order above any the holder kept from before — a value carrying a
// nonzero epoch, or a patch, whose result always does (EnsureReplicated
// restores a copy with an older epoch, not one with the same). An untagged
// value reads epoch 0 like the copy it replaces, so its fault stands. A
// logical outcome (not-found, a CAS conflict) is no fault to drop, and
// neither is a missed removal, whose surviving copy the scrub's
// re-replication would spread back rather than delete.
func (c *Client) dropped(r req, err error) bool {
	return c.cfg.FailoverWrites && (r.op == dht.OpPatchIf || dht.EpochOf(r.val) > 0) && !errors.Is(err, dht.ErrNotFound) && dht.IsTransient(err)
}
