package dht

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lht/internal/metrics"
)

// ErrRetriesExhausted reports that a transient fault persisted through
// every attempt the policy allows. The last underlying fault stays in the
// chain, so errors.Is against the root cause (and IsTransient) still
// match.
var ErrRetriesExhausted = errors.New("dht: retries exhausted")

// Policy describes how the retry wrapper produced by WithPolicy treats
// transient substrate faults: how often to retry, how long to back off,
// and what counts as transient in the first place. The zero value is
// usable: DefaultPolicy's attempts and delays, no jitter.
type Policy struct {
	// MaxAttempts is the total number of attempts per operation,
	// including the first (so MaxAttempts = 1 disables retrying).
	// Default 4.
	MaxAttempts int

	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay. Default 5ms.
	BaseDelay time.Duration

	// MaxDelay caps the exponential backoff. Default 250ms.
	MaxDelay time.Duration

	// Jitter randomizes each backoff delay to d * (1-Jitter/2 .. 1+Jitter/2),
	// decorrelating clients that tripped over the same fault. Must be in
	// [0, 1]; 0 disables jitter (DefaultPolicy uses 0.5).
	Jitter float64

	// Classify reports whether an error is a transient fault worth
	// retrying. Defaults to IsTransient: simnet unreachability, marked
	// transients and net timeouts retry; ErrNotFound and context
	// cancellation/expiry never do.
	Classify func(error) bool

	// Counters, when non-nil, receives the policy's observability
	// signals: one Retry per re-attempt, and one Cancellation /
	// DeadlineExceeded when a backoff wait is cut short by the context.
	// (Attempt costs themselves are charged by whatever Instrumented
	// wrapper sits below this one, which is what keeps every retry an
	// honest DHT-lookup in the paper's cost model.)
	Counters *metrics.Counters

	// Seed drives the jitter; 0 means a fixed default, keeping
	// experiments reproducible.
	Seed int64
}

// DefaultPolicy returns the retry policy used when a zero Policy is
// supplied: 4 attempts, 5ms base delay doubling to a 250ms cap, 50%
// jitter, IsTransient classification.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Jitter:      0.5,
	}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = d.Jitter
	}
	if p.Classify == nil {
		p.Classify = IsTransient
	}
	return p
}

// PolicyDHT is the retry/backoff wrapper created by WithPolicy.
type PolicyDHT struct {
	perKey // every per-key primitive runs under do's retry loop
	inner  DHT
	p      Policy

	mu  sync.Mutex
	rng *rand.Rand
}

var (
	_ DHT     = (*PolicyDHT)(nil)
	_ Batcher = (*PolicyDHT)(nil)
	_ Prober  = (*PolicyDHT)(nil)
	_ Patcher = (*PolicyDHT)(nil)
)

// WithPolicy wraps inner so every routed operation retries transient
// faults with capped, jittered exponential backoff. Permanent outcomes
// (ErrNotFound, context cancellation, anything Classify rejects) pass
// through untouched on the first attempt.
//
// To keep the paper's cost model honest, wrap the instrumented layer —
// WithPolicy(NewInstrumented(substrate, c), Policy{Counters: c}) — so
// every retry is charged as a full DHT-lookup; the index layers compose
// the stack this way when Config.Policy is set.
func WithPolicy(inner DHT, p Policy) *PolicyDHT {
	p = p.withDefaults()
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	d := &PolicyDHT{inner: inner, p: p, rng: rand.New(rand.NewSource(seed))}
	d.perKey = perKey{d}
	return d
}

// Inner returns the wrapped DHT.
func (d *PolicyDHT) Inner() DHT { return d.inner }

// delay computes the jittered backoff before retry number n (0-based).
func (d *PolicyDHT) delay(n int) time.Duration {
	delay := d.p.BaseDelay << uint(n)
	if delay <= 0 || delay > d.p.MaxDelay {
		delay = d.p.MaxDelay
	}
	if d.p.Jitter > 0 {
		d.mu.Lock()
		f := 1 + d.p.Jitter*(d.rng.Float64()-0.5)
		d.mu.Unlock()
		delay = time.Duration(float64(delay) * f)
	}
	return delay
}

// backoff waits the n-th retry delay, aborting early when ctx is done.
func (d *PolicyDHT) backoff(ctx context.Context, n int) error {
	t := time.NewTimer(d.delay(n))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		err := ctx.Err()
		if d.p.Counters != nil {
			switch {
			case errors.Is(err, context.Canceled):
				d.p.Counters.Add(metrics.Cancellations, 1)
			case errors.Is(err, context.DeadlineExceeded):
				d.p.Counters.Add(metrics.DeadlineExceeded, 1)
			}
		}
		return fmt.Errorf("dht: backoff interrupted: %w", err)
	}
}

// do runs one per-key primitive under the retry policy. Re-attempts run
// with the context's phase label switched to PhaseRetry, so the
// instrumented layer below attributes their lookups to retry traffic
// while the first attempt keeps the phase of the algorithm that issued
// it; every attempt of a Probe carries the hint.
//
// Only what Classify accepts is retried. A CAS conflict or a refused
// patch is an answer — IsTransient rejects both — so it surfaces to the
// index layer's optimistic-retry loop on the first attempt instead of
// burning backoff rounds on an identical doomed operation.
func (d *PolicyDHT) do(ctx context.Context, c call) (Value, error) {
	var err error
	actx := ctx
	for attempt := 0; attempt < d.p.MaxAttempts; attempt++ {
		if attempt > 0 {
			if d.p.Counters != nil {
				d.p.Counters.Add(metrics.Retries, 1)
			}
			if berr := d.backoff(ctx, attempt-1); berr != nil {
				return nil, berr
			}
			actx = metrics.WithPhase(ctx, metrics.PhaseRetry)
		}
		var v Value
		v, err = c.on(actx, d.inner)
		if err == nil || !d.p.Classify(err) {
			return v, err
		}
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, d.p.MaxAttempts, err)
}

// retryBatch drives the shared retry loop of GetBatch/PutBatch. pending
// holds the slot indices whose last error classified transient; attempt
// re-issues exactly that subset (one sub-batch per round, with one shared
// backoff) and returns the slots still transient. Slots that stay
// transient through every allowed attempt get their error wrapped with
// ErrRetriesExhausted.
func (d *PolicyDHT) retryBatch(ctx context.Context, errs []error, pending []int, attempt func(context.Context, []int)) {
	for round := 1; round < d.p.MaxAttempts && len(pending) > 0; round++ {
		if d.p.Counters != nil {
			d.p.Counters.Add(metrics.Retries, int64(len(pending)))
		}
		if berr := d.backoff(ctx, round-1); berr != nil {
			for _, i := range pending {
				errs[i] = berr
			}
			return
		}
		attempt(metrics.WithPhase(ctx, metrics.PhaseRetry), pending)
		var still []int
		for _, i := range pending {
			if errs[i] != nil && d.p.Classify(errs[i]) {
				still = append(still, i)
			}
		}
		pending = still
	}
	for _, i := range pending {
		errs[i] = fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, d.p.MaxAttempts, errs[i])
	}
}

// transientSlots returns the indices whose error the policy classifies as
// retryable.
func (d *PolicyDHT) transientSlots(errs []error) []int {
	var pending []int
	for i, err := range errs {
		if err != nil && d.p.Classify(err) {
			pending = append(pending, i)
		}
	}
	return pending
}

// GetBatch implements Batcher with per-slot retries: after each attempt
// only the keys whose errors classify transient re-issue, as one
// sub-batch per backoff round, so a mostly-successful batch never repeats
// its successful keys. Every re-issued key is charged again by whatever
// Instrumented wrapper sits below this one.
func (d *PolicyDHT) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	return d.getBatch(ctx, keys, call{prim: primGet})
}

// ProbeBatch implements Prober with GetBatch's retries, each with the hint.
func (d *PolicyDHT) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]Value, []error) {
	return d.getBatch(ctx, keys, call{prim: primProbe, hint: hint})
}

// getBatch is the one body of both: c is the Get or the Probe of a slot.
func (d *PolicyDHT) getBatch(ctx context.Context, keys []string, c call) ([]Value, []error) {
	vals, errs := c.batch(ctx, d.inner, keys)
	d.retryBatch(ctx, errs, d.transientSlots(errs), func(ctx context.Context, pending []int) {
		sub := make([]string, len(pending))
		for j, i := range pending {
			sub[j] = keys[i]
		}
		svals, serrs := c.batch(ctx, d.inner, sub)
		for j, i := range pending {
			vals[i], errs[i] = svals[j], serrs[j]
		}
	})
	return vals, errs
}

// PutBatch implements Batcher with the same failed-subset retry loop as
// GetBatch.
func (d *PolicyDHT) PutBatch(ctx context.Context, kvs []KV) []error {
	errs := DoPutBatch(ctx, d.inner, kvs)
	d.retryBatch(ctx, errs, d.transientSlots(errs), func(ctx context.Context, pending []int) {
		sub := make([]KV, len(pending))
		for j, i := range pending {
			sub[j] = kvs[i]
		}
		serrs := DoPutBatch(ctx, d.inner, sub)
		for j, i := range pending {
			errs[i] = serrs[j]
		}
	})
	return errs
}
