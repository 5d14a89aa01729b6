package tcpnet

// Client-driven replication (ClusterConfig.Replicas): each key is stored on
// its owner plus the next replicas-1 distinct ring members, the same
// successor-set scheme the Chord substrate uses. The servers stay plain
// byte stores — fan-out, fallback and read spreading all live here:
//
//   - put-like ops store on every holder, concurrently, before returning;
//   - conditional ops resolve their compare-and-swap on the primary (the
//     one serializer per key) and propagate the outcome to the other
//     holders only after the primary accepted it — via OpPutNewer, the
//     epoch-ordered store: a holder rejects a propagated value whose
//     epoch tag is older than what it already stores;
//   - Get and Take rotate their starting holder per request across the
//     secondary holders — keeping a hot key's read queue off its CAS
//     serializer — and fall back through the remaining holders (the
//     primary included) so a lagging replica costs an extra round trip,
//     never a wrong answer.
//
// A key is therefore never *stale* on a reachable holder (every accepted
// write reaches all of them synchronously), at most *absent* where a
// fan-out has not landed yet, and absence falls back. Concurrent writers
// to one key are serialized by the primary's CAS, but their fan-outs may
// interleave on the network; the epoch-ordered propagation makes that
// harmless — if commit N's fan-out overtakes commit N-1's, the straggler
// is rejected on arrival instead of durably rolling a holder back. The
// one remaining divergence window is a removal racing an earlier
// commit's fan-out (a late store can transiently resurrect a copy on a
// secondary after RemoveIf's propagation deleted it); that copy carries
// an older epoch, which the index's scrub orders and repairs. Batched
// stores replicate in per-rank waves (see PutBatch); batched reads group
// by primary, which holds every accepted write by construction.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"lht/internal/dht"
	"lht/internal/hashring"
	"lht/internal/metrics"
)

// owners returns the replica set for key: the owning node plus the next
// replicas-1 distinct members clockwise, primary first.
func (c *Client) owners(key string) []*clientNode {
	nodes := c.ringNodes()
	h := hashring.HashKey(key)
	i := 0
	for ; i < len(nodes); i++ {
		if nodes[i].id >= h {
			break
		}
	}
	n := c.cfg.Replicas
	if n > len(nodes) {
		n = len(nodes)
	}
	out := make([]*clientNode, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, nodes[(i+k)%len(nodes)])
	}
	return out
}

// rotateStart picks which holder a read of key starts at: the
// key-hash-plus-sequence rotation the Chord and Kademlia substrates use,
// but over the *secondary* holders only. The primary is every key's CAS
// serializer — it already queues the conditional writes and their
// fan-outs — so reads start away from it and touch it only as the
// fallback, keeping a hot key's read queue and its write queue on
// different nodes. With more than two replicas the rotation still
// spreads reads across the whole secondary set.
func (c *Client) rotateStart(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	start := 1 + int((uint64(h.Sum32())+c.readSeq.Add(1)-1)%uint64(n-1))
	c.spreadReads.Add(1)
	c.cfg.Counters.Add(metrics.SpreadReads, 1)
	return start
}

// SpreadReads reports how many reads started at a non-primary holder.
func (c *Client) SpreadReads() int64 { return c.spreadReads.Load() }

// getFrom fetches key from one specific node on the binary wire, as a
// probe when h is set.
func (c *Client) getFrom(ctx context.Context, n *clientNode, key string, h probeHint) (dht.Value, error) {
	tv, frame, err := n.simpleCall(ctx, dht.OpGet, func(b []byte) ([]byte, error) {
		b = appendLenString(b, key)
		if h.set {
			b = binary.BigEndian.AppendUint64(b, h.v)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	v, err := decodeTagged(tv, h.set)
	putBuf(frame)
	return v, err
}

// replicatedGet reads from the rotated holder, falling back through the
// rest: a holder that is missing the key (a fan-out it has not seen) or
// unreachable costs one extra round trip, and only a miss on every
// holder is a real miss. A probe's hint (h) rides every attempt, so a
// failover is answered under the same rule as the first try.
//
// Degradation contract (ClusterConfig.Health): a holder whose breaker is open
// fails in microseconds, so the read moves straight to the next holder —
// an open primary never costs a timeout. Each failover attempt runs
// under an even share of the caller's remaining deadline (stepCtx), so a
// black-holed holder burns its share of the budget, never all of it; the
// loop stops early only when the caller's own deadline is spent.
//
// A hedged duplicate (dht.MarkHedgeAttempt) starts at the primary
// instead: first reads never do, so the duplicate is guaranteed a
// different first holder than the straggler it is racing, whatever the
// rotation sequence did in between.
func (c *Client) replicatedGet(ctx context.Context, key string, h probeHint) (dht.Value, error) {
	owners := c.owners(key)
	start := 0
	if !dht.IsHedgeAttempt(ctx) {
		start = c.rotateStart(key, len(owners))
	}
	var firstErr error
	for i := range owners {
		n := owners[(start+i)%len(owners)]
		actx, cancel := stepCtx(ctx, len(owners)-i)
		v, err := c.getFrom(actx, n, key, h)
		cancel()
		if err == nil {
			return v, nil
		}
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			// The step budget expired, not the caller's deadline: to the
			// caller this is an ordinary transient holder fault (the
			// breaker already recorded the timeout against the node), so
			// it must stay retryable — context.DeadlineExceeded would
			// wrongly read as the caller's own deadline and stop a
			// policy-layer retry loop cold.
			err = dht.MarkTransient(fmt.Errorf(
				"tcpnet: holder %q timed out inside its failover budget", n.addr))
		}
		if !errors.Is(err, dht.ErrNotFound) {
			if firstErr == nil {
				firstErr = err
			}
			if i < len(owners)-1 {
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

// eachOwner runs op against every holder of key concurrently and returns
// the first error, with ErrNotFound outranked by any other error (a
// holder that never saw the key is expected mid-fan-out; a transport
// fault is not).
func (c *Client) eachOwner(ctx context.Context, key string, op func(*clientNode) error) error {
	owners := c.owners(key)
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, n := range owners {
		wg.Add(1)
		go func(i int, n *clientNode) {
			defer wg.Done()
			errs[i] = op(n)
		}(i, n)
	}
	wg.Wait()
	var notFound error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, dht.ErrNotFound) {
			notFound = err
			continue
		}
		return err
	}
	return notFound
}

// replicatedPut stores on every holder; with hinted handoff an
// unreachable holder's copy parks on a substitute instead of failing the
// put.
func (c *Client) replicatedPut(ctx context.Context, key string, v dht.Value) error {
	return c.eachOwner(ctx, key, func(n *clientNode) error {
		return c.putToOrHint(ctx, n, dht.OpPut, key, v)
	})
}

// putTo issues one put-like op (store or in-place write) to one node.
func (c *Client) putTo(ctx context.Context, n *clientNode, op dht.OpKind, key string, v dht.Value) error {
	_, frame, err := n.simpleCall(ctx, op, func(b []byte) ([]byte, error) {
		return appendValue(appendLenString(b, key), v)
	})
	if err != nil {
		return err
	}
	putBuf(frame)
	return nil
}

// replicatedWrite rewrites in place on every holder that has the key; a
// holder missing it is a pending fan-out, not an error, unless they all
// are.
func (c *Client) replicatedWrite(ctx context.Context, key string, v dht.Value) error {
	return c.eachOwner(ctx, key, func(n *clientNode) error {
		return c.putToOrHint(ctx, n, dht.OpWrite, key, v)
	})
}

// replicatedRemove deletes from every holder.
func (c *Client) replicatedRemove(ctx context.Context, key string) error {
	return c.eachOwner(ctx, key, func(n *clientNode) error {
		_, frame, err := n.simpleCall(ctx, dht.OpRemove, func(b []byte) ([]byte, error) {
			return appendLenString(b, key), nil
		})
		if err != nil {
			return err
		}
		putBuf(frame)
		return nil
	})
}

// replicatedTake fetches-and-deletes across the whole replica set: every
// holder gives up its copy, the rotated holder's value (first found from
// the rotated start) is returned.
func (c *Client) replicatedTake(ctx context.Context, key string) (dht.Value, error) {
	owners := c.owners(key)
	start := c.rotateStart(key, len(owners))
	vals := make([]dht.Value, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i := range owners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := owners[(start+i)%len(owners)]
			tv, frame, err := n.simpleCall(ctx, dht.OpTake, func(b []byte) ([]byte, error) {
				return appendLenString(b, key), nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			vals[i], errs[i] = decodeTaggedValue(tv)
			putBuf(frame)
		}(i)
	}
	wg.Wait()
	var firstErr error
	for i := range owners {
		if errs[i] == nil {
			return vals[i], nil
		}
		if !errors.Is(errs[i], dht.ErrNotFound) && firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, dht.ErrNotFound
}

// replicatedCond resolves a conditional op on the primary — the one
// serializer for the key — and propagates the accepted outcome to the
// remaining holders: epoch-ordered stores (OpPutNewer) for the put-like
// conditionals, so two commits' concurrently in-flight fan-outs land in
// epoch order regardless of network interleaving, and removal for
// RemoveIf. Propagation failures surface to the caller (the write IS
// committed on the primary; the caller's retry loop re-runs against the
// committed state), they never roll back the primary's decision.
//
// With hinted handoff on, the serializer role itself fails over: an
// unreachable primary is skipped and the conditional resolves on the
// first reachable holder instead — every reachable holder carries the
// key's committed state (fan-outs are synchronous), so the CAS verdict
// is the same, and all writers walk the owner list in the same order, so
// within one view they agree on the acting serializer. The skipped
// holders then receive the outcome through the ordinary propagation
// path, whose hinting parks their copy for replay. Only transport
// faults fail over; a logical verdict (CAS conflict, not-found) from
// any holder settles the op.
func (c *Client) replicatedCond(ctx context.Context, key string, primary func(*clientNode) error, propagate func(*clientNode) error) error {
	owners := c.owners(key)
	acting, err := 0, error(nil)
	for i, n := range owners {
		acting, err = i, primary(n)
		if err == nil || !c.cfg.HintedHandoff || errors.Is(err, dht.ErrNotFound) || !dht.IsTransient(err) {
			break
		}
	}
	if err != nil {
		return err
	}
	errs := make([]error, 0, len(owners)-1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, n := range owners {
		if i == acting {
			continue
		}
		wg.Add(1)
		go func(n *clientNode) {
			defer wg.Done()
			perr := propagate(n)
			mu.Lock()
			errs = append(errs, perr)
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, dht.ErrNotFound) {
			return err
		}
	}
	return nil
}

// replicatedPutIf is PutIf with propagation of the accepted value.
func (c *Client) replicatedPutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpPutIf, key, func(b []byte) ([]byte, error) {
				b = appendLenString(b, key)
				b = appendUv(b, ifEpoch)
				return appendValue(b, v)
			})
		},
		func(n *clientNode) error { return c.putToOrHint(ctx, n, dht.OpPutNewer, key, v) },
	)
}

// replicatedPatchIf is PatchIf (mode patchPrimary) or WritePatchIf
// (patchInPlace) with propagation: the acting serializer applies the
// patch in that mode, then every other holder is sent the same patch in
// newer mode and, holding the same bytes at the same epoch, builds the
// same value. A holder that cannot — it is behind or ahead of ifEpoch
// (conflict), stores a form it will not patch (refused), or is out of
// reach — gets the whole value instead, read back once from the acting
// serializer and sent down the putnewer path exactly as replicatedPutIf
// sends it, so a hint parked for a dead holder is a whole value, never a
// patch. The value read back may already be a later commit's; putnewer's
// epoch order makes that harmless. A refusal by the serializer itself
// wrote nothing anywhere.
//
// Weaker than replicatedPutIf in one respect: nothing checks that a
// holder at ifEpoch held the serializer's bytes. Two holders that differ
// at one epoch (split serializers, see replicatedCond) are made equal by
// the next replicatedPutIf's whole value; patched, they stay apart until
// the key is next written whole (frame.go, "same epoch means same bytes").
func (c *Client) replicatedPatchIf(ctx context.Context, key string, mode byte, patch []byte, ifEpoch uint64) (dht.Value, error) {
	// One heap object for everything the fan-out's goroutines share.
	f := &struct {
		reply  dht.Value
		acting *clientNode
		once   sync.Once
		whole  dht.Value
		werr   error
	}{}
	err := c.replicatedCond(ctx, key,
		func(n *clientNode) (err error) {
			f.acting = n
			f.reply, err = n.patchCall(ctx, key, mode, patch, ifEpoch)
			return err
		},
		func(n *clientNode) error {
			if _, err := n.patchCall(ctx, key, patchNewer, patch, ifEpoch); err == nil {
				return nil
			}
			f.once.Do(func() { f.whole, f.werr = c.getFrom(ctx, f.acting, key, probeHint{}) })
			if f.werr != nil {
				return f.werr // not-found: since removed, nothing to propagate
			}
			return c.putToOrHint(ctx, n, dht.OpPutNewer, key, f.whole)
		},
	)
	return f.reply, err
}

// replicatedCreateIf is CreateIf with propagation of the created value.
func (c *Client) replicatedCreateIf(ctx context.Context, key string, v dht.Value) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpCreateIf, key, func(b []byte) ([]byte, error) {
				return appendValue(appendLenString(b, key), v)
			})
		},
		func(n *clientNode) error { return c.putToOrHint(ctx, n, dht.OpPutNewer, key, v) },
	)
}

// replicatedRemoveIf is RemoveIf with propagation of the removal.
// Removals are never hinted: replaying a deletion later could resurrect
// nothing but could race a newer create, so a missed removal is left to
// the scrub plane, whose epoch ordering repairs it safely.
func (c *Client) replicatedRemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpRemoveIf, key, func(b []byte) ([]byte, error) {
				b = appendLenString(b, key)
				return appendUv(b, ifEpoch), nil
			})
		},
		func(n *clientNode) error {
			_, frame, err := n.simpleCall(ctx, dht.OpRemove, func(b []byte) ([]byte, error) {
				return appendLenString(b, key), nil
			})
			if err != nil {
				return err
			}
			putBuf(frame)
			return nil
		},
	)
}

// replicatedWriteIf is WriteIf with propagation of the accepted value.
func (c *Client) replicatedWriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpWriteIf, key, func(b []byte) ([]byte, error) {
				b = appendLenString(b, key)
				b = appendUv(b, ifEpoch)
				return appendValue(b, v)
			})
		},
		func(n *clientNode) error { return c.putToOrHint(ctx, n, dht.OpPutNewer, key, v) },
	)
}
