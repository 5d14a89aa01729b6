package dht

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lht/internal/metrics"
)

// scriptGet is a DHT whose Get behavior is scripted per call number
// (1-based); writes are accepted and dropped.
type scriptGet struct {
	calls atomic.Int64
	get   func(call int64, ctx context.Context) (Value, error)
}

func (s *scriptGet) Get(ctx context.Context, key string) (Value, error) {
	return s.get(s.calls.Add(1), ctx)
}
func (s *scriptGet) Put(ctx context.Context, key string, v Value) error   { return nil }
func (s *scriptGet) Remove(ctx context.Context, key string) error         { return nil }
func (s *scriptGet) Write(ctx context.Context, key string, v Value) error { return nil }

func TestHedgeWinsOverStraggler(t *testing.T) {
	inner := &scriptGet{}
	inner.get = func(call int64, ctx context.Context) (Value, error) {
		if call == 1 {
			select { // straggler: answers only if nobody cancels it
			case <-time.After(2 * time.Second):
				return "slow", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return "fast", nil
	}
	var c metrics.Counters
	h := WithHedging(inner, 5*time.Millisecond, &c)

	v, err := h.Get(context.Background(), "k")
	if err != nil || v != "fast" {
		t.Fatalf("Get = %v, %v; want the hedge's answer", v, err)
	}
	f := c.Snapshot()
	if f.Health.HedgedGets != 1 || f.Health.HedgeWins != 1 {
		t.Fatalf("HedgedGets=%d HedgeWins=%d, want 1/1", f.Health.HedgedGets, f.Health.HedgeWins)
	}
}

func TestNoHedgeWhenFast(t *testing.T) {
	inner := &scriptGet{}
	inner.get = func(call int64, ctx context.Context) (Value, error) { return "v", nil }
	var c metrics.Counters
	h := WithHedging(inner, 50*time.Millisecond, &c)
	for i := 0; i < 5; i++ {
		if v, err := h.Get(context.Background(), "k"); err != nil || v != "v" {
			t.Fatalf("Get = %v, %v", v, err)
		}
	}
	if f := c.Snapshot(); f.Health.HedgedGets != 0 {
		t.Fatalf("fast gets hedged %d times", f.Health.HedgedGets)
	}
	if n := inner.calls.Load(); n != 5 {
		t.Fatalf("inner saw %d calls, want 5", n)
	}
}

// TestHedgeAfterTransientFailure: if the only in-flight arm dies on a
// transient fault before the timer fires, the duplicate launches
// immediately instead of waiting out the trigger against nothing.
func TestHedgeAfterTransientFailure(t *testing.T) {
	inner := &scriptGet{}
	inner.get = func(call int64, ctx context.Context) (Value, error) {
		if call == 1 {
			return nil, MarkTransient(errors.New("connection reset"))
		}
		return "recovered", nil
	}
	var c metrics.Counters
	h := WithHedging(inner, time.Minute, &c) // timer would never fire in-test

	start := time.Now()
	v, err := h.Get(context.Background(), "k")
	if err != nil || v != "recovered" {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hedge waited for the timer instead of firing on arm death")
	}
	if f := c.Snapshot(); f.Health.HedgedGets != 1 || f.Health.HedgeWins != 1 {
		t.Fatalf("HedgedGets=%d HedgeWins=%d, want 1/1", f.Health.HedgedGets, f.Health.HedgeWins)
	}
}

func TestHedgeBothArmsFailReturnsFirstError(t *testing.T) {
	sentinel := MarkTransient(errors.New("connection reset"))
	inner := &scriptGet{}
	inner.get = func(call int64, ctx context.Context) (Value, error) { return nil, sentinel }
	var c metrics.Counters
	h := WithHedging(inner, time.Millisecond, &c)
	if _, err := h.Get(context.Background(), "k"); err != sentinel {
		t.Fatalf("err = %v, want the first arm's error", err)
	}
}

// TestHedgeNotFoundIsDecisive: a miss is an answer, not a fault — the
// race ends without waiting for the duplicate.
func TestHedgeNotFoundIsDecisive(t *testing.T) {
	inner := &scriptGet{}
	inner.get = func(call int64, ctx context.Context) (Value, error) { return nil, ErrNotFound }
	var c metrics.Counters
	h := WithHedging(inner, time.Hour, &c)
	if _, err := h.Get(context.Background(), "k"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if n := inner.calls.Load(); n != 1 {
		t.Fatalf("miss triggered %d inner calls, want 1", n)
	}
}

func TestHedgeTriggerQuantile(t *testing.T) {
	h := &hedger{after: 10 * time.Microsecond}
	if d := h.trigger(context.Background()); d != 10*time.Microsecond {
		t.Fatalf("cold trigger = %v, want the floor", d)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(500 * time.Microsecond)
	}
	if d := h.trigger(context.Background()); d != 500*time.Microsecond {
		t.Fatalf("warm trigger = %v, want the observed p95", d)
	}
	// The quantile is clamped at 100x the floor.
	for i := 0; i < hedgeWindow; i++ {
		h.observe(time.Second)
	}
	if d := h.trigger(context.Background()); d != 1000*time.Microsecond {
		t.Fatalf("clamped trigger = %v, want 100*floor", d)
	}
}

func TestHedgeTriggerDeadlineBudget(t *testing.T) {
	h := &hedger{after: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if d := h.trigger(ctx); d > 50*time.Millisecond {
		t.Fatalf("trigger %v exceeds half the remaining deadline", d)
	}
}

func TestHedgeDisabledPassThrough(t *testing.T) {
	inner := &scriptGet{}
	if got := WithHedging(inner, 0, nil); got != DHT(inner) {
		t.Fatal("non-positive trigger must return inner unchanged")
	}
}

// TestHedgeCapabilityReexposure: the instrumented layer charges batches
// and conditional writes through the hedger as it charges them without.
func TestHedgeCapabilityReexposure(t *testing.T) {
	chargedThrough(t, func(d DHT) DHT { return WithHedging(d, time.Minute, nil) })
}
