package dht

import (
	"context"
	"errors"
	"sync"

	"lht/internal/metrics"
)

// flight is one in-progress inner Get that concurrent callers of the
// same key ride instead of issuing their own.
type flight struct {
	done chan struct{}
	v    Value
	err  error
}

// coalescer is the singleflight read layer: concurrent Gets of one key
// collapse onto a single inner Get, so N clients missing on one hot
// leaf label cost the substrate one physical fetch instead of N. It
// sits *below* the instrumentation layer, so every logical Get is still
// charged as a DHT-lookup — the paper's cost model is unchanged whether
// coalescing is on or off; only the physical round trips (and the hot
// peer's service load) shrink. CoalescedGets counts the rides.
//
// Followers share the leader's returned value. That matches the Local
// substrate's existing aliasing semantics, and the index layer never
// mutates a fetched bucket without cloning it first (the optimistic CAS
// loop), so the shared read is safe.
//
// The trade is a bounded read-your-writes window: a follower's Get may
// ride a flight whose physical fetch was served BEFORE a write that
// committed after the flight began — including the follower's own
// acknowledged write — so a coalesced read can return the pre-commit
// value once. The window is bounded by one in-flight fetch: the next Get
// after the flight resolves starts fresh and observes the commit. Paths
// that cannot tolerate the window bypass it with WithFreshRead — both
// index layers' CAS-conflict retry reads do, so a lost compare-and-swap
// always re-reads the winning epoch and conflicts never cascade into
// retry storms. Query paths accept the window as part of opting into
// Config.CoalesceGets: a record inserted mid-herd may be invisible to
// reads that joined the herd before its commit, exactly as if those
// reads had been issued just before the insert.
type coalescer struct {
	passthrough
	c *metrics.Counters

	mu       sync.Mutex
	inflight map[string]*flight
}

// WithCoalescing wraps inner with singleflight Get coalescing. Writes,
// conditional writes and batches reach inner as they were issued (see
// passthrough); probes and patches do not, see below. c, when non-nil,
// receives CoalescedGets.
func WithCoalescing(inner DHT, c *metrics.Counters) DHT {
	return &coalescer{passthrough: newPassthrough(inner), c: c, inflight: make(map[string]*flight)}
}

// freshReadKey marks a context whose Gets must bypass coalescing.
type freshReadKey struct{}

// WithFreshRead marks ctx so coalesced Gets under it go straight to the
// substrate. A caller uses it when it *knows* its last snapshot is stale
// — typically after losing a compare-and-swap — because an in-flight
// fetch it would otherwise ride may have been served before the winning
// write landed, handing back the very epoch that just lost and turning
// one conflict into a retry storm.
func WithFreshRead(ctx context.Context) context.Context {
	if fresh, _ := ctx.Value(freshReadKey{}).(bool); fresh {
		return ctx
	}
	return context.WithValue(ctx, freshReadKey{}, true)
}

// Get issues the key's fetch if none is in flight, and otherwise waits
// for the in-flight one. A follower whose own context is still live
// does not inherit a leader's cancellation: it re-issues the fetch
// (possibly becoming the new leader) so one caller's timeout cannot
// poison its coincidental companions.
func (co *coalescer) Get(ctx context.Context, key string) (Value, error) {
	if fresh, _ := ctx.Value(freshReadKey{}).(bool); fresh {
		return co.inner.Get(ctx, key)
	}
	for {
		co.mu.Lock()
		if f, ok := co.inflight[key]; ok {
			co.mu.Unlock()
			co.c.Add(metrics.CoalescedGets, 1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if isContextErr(f.err) && ctx.Err() == nil {
				continue // leader was cancelled, not us: fetch again
			}
			return f.v, f.err
		}
		f := &flight{done: make(chan struct{})}
		co.inflight[key] = f
		co.mu.Unlock()

		f.v, f.err = co.inner.Get(ctx, key)
		co.mu.Lock()
		delete(co.inflight, key)
		co.mu.Unlock()
		close(f.done)
		return f.v, f.err
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Probe overrides the base to drop the hint: a flight's value is shared
// by callers whose hints differ, so it must be whole. A probe is a
// (coalesced) Get here. A ProbeBatch is no flight, and passes with its
// hint, as every batch passes.
func (co *coalescer) Probe(ctx context.Context, key string, _ uint64) (Value, error) {
	return co.Get(ctx, key)
}

// Patch and WritePatchIf override the base to refuse: a writer above this
// layer reads whole values, so it holds one and writes it whole. A Patch
// is its probe alone, which is a (coalesced) Get here.
func (co *coalescer) Patch(ctx context.Context, key string, _ uint64, _ []byte) (Value, error) {
	v, err := co.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return v, ErrPatchRefused
}

func (co *coalescer) WritePatchIf(context.Context, string, []byte, uint64) (Value, error) {
	return nil, ErrPatchRefused
}
