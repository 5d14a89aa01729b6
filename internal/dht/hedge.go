package dht

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"lht/internal/metrics"
)

// hedgeWindow is how many recent successful Get latencies the quantile
// tracker keeps, and hedgeMinSamples how many it needs before trusting
// the observed p95 over the configured floor.
const (
	hedgeWindow     = 128
	hedgeMinSamples = 32
)

// hedger wraps Get with a tail-latency hedge: if the first attempt has
// not answered after a trigger delay, a duplicate Get races it and the
// first decisive response wins, the loser cancelled. Only Get (and its
// hinted form, Probe) is hedged — it is the one idempotent read in the
// interface; duplicating writes would double-apply them.
//
// The trigger is quantile-driven: it starts at the configured floor and,
// once enough samples accumulate, rises to the p95 of observed
// successful Get latency (clamped to [floor, 100*floor]) so hedges fire
// only for genuine stragglers, not the healthy tail. The delay is
// additionally capped at half the caller's remaining deadline budget, so
// a hedge always has as much time to answer as the original had left.
//
// The hedger sits *below* the instrumentation layer:
// a hedge is a physical round trip, never a logical DHT-lookup, so the
// paper's cost model is unchanged whether hedging is on or off.
// HedgedGets counts launches, HedgeWins the races the duplicate won.
//
// Over a replicated substrate (tcpnet's ClusterConfig.Replicas) the
// duplicate is not a pure retry: its context carries the hedge-attempt
// mark, and a first read starts at the primary while a marked one starts
// at the first secondary (ReadStart), so the duplicate is guaranteed to
// probe a different holder than the straggler began with.
type hedger struct {
	passthrough
	after time.Duration
	c     *metrics.Counters

	mu     sync.Mutex
	lat    [hedgeWindow]time.Duration
	sorted [hedgeWindow]time.Duration // trigger's scratch, so a read allocates no window
	idx    int
	n      int
}

// WithHedging wraps inner so Gets slower than the trigger delay race a
// duplicate. after is the trigger floor; a non-positive after returns
// inner unchanged. Everything but Get and Probe reaches inner as it was
// issued (see passthrough). c, when non-nil, receives HedgedGets and
// HedgeWins.
func WithHedging(inner DHT, after time.Duration, c *metrics.Counters) DHT {
	if after <= 0 {
		return inner
	}
	return &hedger{passthrough: newPassthrough(inner), after: after, c: c}
}

// observe feeds one successful Get latency into the quantile window.
func (h *hedger) observe(d time.Duration) {
	h.mu.Lock()
	h.lat[h.idx] = d
	h.idx = (h.idx + 1) % hedgeWindow
	if h.n < hedgeWindow {
		h.n++
	}
	h.mu.Unlock()
}

// trigger computes the hedge delay for one Get: the p95 of observed
// latency once warmed up (clamped to [after, 100*after]), else the
// configured floor, and never more than half the remaining deadline.
// A non-positive result means "do not hedge".
func (h *hedger) trigger(ctx context.Context) time.Duration {
	d := h.after
	h.mu.Lock()
	if h.n >= hedgeMinSamples {
		buf := h.sorted[:h.n]
		copy(buf, h.lat[:h.n])
		slices.Sort(buf)
		p := buf[(h.n*95+99)/100-1]
		if p > d {
			d = p
		}
		if lim := 100 * h.after; d > lim {
			d = lim
		}
	}
	h.mu.Unlock()
	if dl, ok := ctx.Deadline(); ok {
		if half := time.Until(dl) / 2; half < d {
			d = half
		}
	}
	return d
}

// decisive reports whether a Get outcome settles the race: anything but
// a transient substrate fault is an answer (a miss is an answer too).
// A transient arm keeps the race open so the other arm can still win.
func decisive(err error) bool { return !IsTransient(err) }

func (h *hedger) Get(ctx context.Context, key string) (Value, error) {
	return h.race(ctx, func(ctx context.Context) (Value, error) { return h.inner.Get(ctx, key) })
}

// Probe implements Prober: a probe is hedged exactly as the Get it
// stands in for, and the duplicate carries the same hint.
func (h *hedger) Probe(ctx context.Context, key string, hint uint64) (Value, error) {
	return h.race(ctx, func(ctx context.Context) (Value, error) { return DoProbe(ctx, h.inner, key, hint) })
}

// race runs one read under the hedge: fetch is the attempt, issued once
// at first and a second time if the first straggles or fails transiently.
func (h *hedger) race(ctx context.Context, fetch func(context.Context) (Value, error)) (Value, error) {
	delay := h.trigger(ctx)
	if delay <= 0 {
		return fetch(ctx)
	}

	type result struct {
		v     Value
		err   error
		hedge bool
		took  time.Duration
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2) // buffered: losers never block or leak
	launch := func(hedge bool) {
		lctx := rctx
		if hedge {
			lctx = MarkHedgeAttempt(rctx)
		}
		start := time.Now()
		go func() {
			v, err := fetch(lctx)
			ch <- result{v, err, hedge, time.Since(start)}
		}()
	}

	launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()

	inflight, hedged := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				inflight++
				h.c.Add(metrics.HedgedGets, 1)
				launch(true)
			}
		case r := <-ch:
			inflight--
			if decisive(r.err) {
				if r.err == nil || isNotFound(r.err) {
					h.observe(r.took)
				}
				if r.hedge {
					h.c.Add(metrics.HedgeWins, 1)
				}
				return r.v, r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight == 0 {
				if hedged {
					return nil, firstErr
				}
				// The only arm failed transiently before the hedge
				// fired: launch the duplicate now rather than waiting
				// out the timer against nothing.
				hedged = true
				inflight++
				h.c.Add(metrics.HedgedGets, 1)
				launch(true)
			}
		case <-ctx.Done():
			return nil, ctxErr(ctx)
		}
	}
}

func isNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// hedgeAttemptKey marks a context as belonging to a hedge's duplicate
// attempt, so a replica-aware substrate can send it to another holder
// than the straggling original.
type hedgeAttemptKey struct{}

// MarkHedgeAttempt tags ctx as a hedged duplicate read. Every replicated
// substrate (tcpnet, Chord, Kademlia) starts a read at the key's primary
// and a marked read at its first secondary (ReadStart), so a hedge
// always reaches a different holder than the read it races.
func MarkHedgeAttempt(ctx context.Context) context.Context {
	return context.WithValue(ctx, hedgeAttemptKey{}, true)
}

// ReadStart is the position in a key's holder order at which a read
// under ctx starts, taken modulo the holder count: 0, the primary, or 1,
// the first secondary, for a hedged duplicate (MarkHedgeAttempt). The
// read falls back through the rest of the holders in order.
func ReadStart(ctx context.Context) int {
	if hedged, _ := ctx.Value(hedgeAttemptKey{}).(bool); hedged {
		return 1
	}
	return 0
}
