package dht

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lht/internal/metrics"
	"lht/internal/simnet"
)

// flaky fails the next `failures` routed operations with err, then
// delegates; calls counts every attempt it saw.
type flaky struct {
	inner    DHT
	failures int
	calls    int
	err      error
}

func (f *flaky) attempt() error {
	f.calls++
	if f.failures > 0 {
		f.failures--
		return f.err
	}
	return nil
}

func (f *flaky) Get(ctx context.Context, key string) (Value, error) {
	if err := f.attempt(); err != nil {
		return nil, err
	}
	return f.inner.Get(ctx, key)
}

func (f *flaky) Put(ctx context.Context, key string, v Value) error {
	if err := f.attempt(); err != nil {
		return err
	}
	return f.inner.Put(ctx, key, v)
}

func (f *flaky) Remove(ctx context.Context, key string) error {
	if err := f.attempt(); err != nil {
		return err
	}
	return f.inner.Remove(ctx, key)
}

func (f *flaky) Write(ctx context.Context, key string, v Value) error {
	if err := f.attempt(); err != nil {
		return err
	}
	return f.inner.Write(ctx, key, v)
}

func fastPolicy(c *metrics.Counters) Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Counters:    c,
	}
}

func transientErr() error {
	return MarkTransient(fmt.Errorf("flaky: %w", simnet.ErrUnreachable))
}

func TestPolicyRetriesTransientFaults(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	f := &flaky{inner: NewLocal(), failures: 2, err: transientErr()}
	d := WithPolicy(f, fastPolicy(&c))

	if err := d.Put(ctx, "k", 42); err != nil {
		t.Fatalf("Put through 2 transient faults = %v", err)
	}
	if f.calls != 3 {
		t.Fatalf("attempts = %d, want 3 (2 faults + 1 success)", f.calls)
	}
	if got := c.Snapshot().Retry.Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	if v, err := d.Get(ctx, "k"); err != nil || v.(int) != 42 {
		t.Fatalf("Get after recovery = %v, %v", v, err)
	}
}

func TestPolicyPermanentErrorsPassThrough(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	f := &flaky{inner: NewLocal()}
	d := WithPolicy(f, fastPolicy(&c))

	if _, err := d.Get(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound untouched", err)
	}
	if f.calls != 1 {
		t.Fatalf("ErrNotFound was retried: %d attempts", f.calls)
	}
	if got := c.Snapshot().Retry.Retries; got != 0 {
		t.Fatalf("Retries = %d, want 0 for a permanent outcome", got)
	}
}

func TestPolicyExhaustion(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	cause := transientErr()
	f := &flaky{inner: NewLocal(), failures: 1 << 30, err: cause}
	d := WithPolicy(f, fastPolicy(&c))

	_, err := d.Get(ctx, "k")
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("exhaustion lost the root cause: %v", err)
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted error must stay classified transient: %v", err)
	}
	if f.calls != 4 {
		t.Fatalf("attempts = %d, want MaxAttempts = 4", f.calls)
	}
	if got := c.Snapshot().Retry.Retries; got != 3 {
		t.Fatalf("Retries = %d, want 3", got)
	}
}

func TestPolicyCancelDuringBackoff(t *testing.T) {
	var c metrics.Counters
	f := &flaky{inner: NewLocal(), failures: 1 << 30, err: transientErr()}
	// A long backoff guarantees the cancellation lands mid-wait.
	d := WithPolicy(f, Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Minute,
		MaxDelay:    time.Minute,
		Counters:    &c,
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.Get(ctx, "k")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if IsTransient(err) {
			t.Fatalf("cancellation classified transient: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff")
	}
	if f.calls != 1 {
		t.Fatalf("attempts = %d, want 1 (cancelled before the retry)", f.calls)
	}
	s := c.Snapshot()
	if s.Retry.Cancellations != 1 {
		t.Fatalf("Cancellations = %d, want 1", s.Retry.Cancellations)
	}
	if s.Retry.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (the retry was attempted, then aborted)", s.Retry.Retries)
	}
}

// TestPolicyRetriesChargedAsLookups pins the cost-model composition: with
// the policy wrapped *above* the instrumented layer, every attempt -
// including retries - is charged one DHT-lookup.
func TestPolicyRetriesChargedAsLookups(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	f := &flaky{inner: NewLocal(), failures: 2, err: transientErr()}
	d := WithPolicy(NewInstrumented(f, &c), fastPolicy(&c))

	if err := d.Put(ctx, "k", 1); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Lookup.Total != 3 {
		t.Fatalf("Lookups = %d, want 3 (each retry is a real DHT-lookup)", s.Lookup.Total)
	}
	if s.Retry.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Retry.Retries)
	}
}

func TestPolicyCustomClassify(t *testing.T) {
	ctx := context.Background()
	errCustom := errors.New("substrate hiccup")
	f := &flaky{inner: NewLocal(), failures: 1, err: errCustom}
	d := WithPolicy(f, Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Classify:    func(err error) bool { return errors.Is(err, errCustom) },
	})
	if err := d.Put(ctx, "k", 1); err != nil {
		t.Fatalf("custom-classified fault not retried: %v", err)
	}
	if f.calls != 2 {
		t.Fatalf("attempts = %d, want 2", f.calls)
	}
}

// TestPolicyDelayBounds checks the backoff schedule: exponential from
// BaseDelay, capped at MaxDelay, jittered within +-Jitter/2.
func TestPolicyDelayBounds(t *testing.T) {
	p := Policy{
		MaxAttempts: 8,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Jitter:      0.5,
	}
	d := WithPolicy(NewLocal(), p)
	for n := 0; n < 8; n++ {
		nominal := p.BaseDelay << uint(n)
		if nominal <= 0 || nominal > p.MaxDelay {
			nominal = p.MaxDelay
		}
		for trial := 0; trial < 20; trial++ {
			got := d.delay(n)
			lo := time.Duration(float64(nominal) * (1 - p.Jitter/2))
			hi := time.Duration(float64(nominal) * (1 + p.Jitter/2))
			if got < lo || got > hi {
				t.Fatalf("delay(%d) = %v, want within [%v, %v]", n, got, lo, hi)
			}
		}
	}
}

func TestPolicyZeroValueIsUsable(t *testing.T) {
	d := WithPolicy(NewLocal(), Policy{})
	if d.p.MaxAttempts != 4 || d.p.BaseDelay != 5*time.Millisecond ||
		d.p.MaxDelay != 250*time.Millisecond || d.p.Jitter != 0 || d.p.Classify == nil {
		t.Fatalf("zero policy defaults = %+v", d.p)
	}
	if err := d.Put(context.Background(), "k", 1); err != nil {
		t.Fatal(err)
	}
}
