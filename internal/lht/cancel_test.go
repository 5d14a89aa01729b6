package lht

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lht/internal/dht"
	"lht/internal/record"
)

// blockingDHT lets a configurable number of Gets through, then parks
// every further Get on its context until cancellation, simulating a
// substrate that stops responding mid-operation. inflight tracks how many
// fetches are currently parked. It embeds the substrate it wraps, so
// every write reaches it untouched.
type blockingDHT struct {
	dht.DHT
	blocking atomic.Bool
	allow    atomic.Int32 // Gets still allowed through while blocking
	inflight atomic.Int32
}

func (b *blockingDHT) Get(ctx context.Context, key string) (dht.Value, error) {
	if b.blocking.Load() && b.allow.Add(-1) < 0 {
		b.inflight.Add(1)
		defer b.inflight.Add(-1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return b.DHT.Get(ctx, key)
}

// TestRangeCancellationStopsParallelFetches is the end-to-end
// cancellation check the refactor promises: a full-space range query over
// a many-leaf tree fans out parallel fetches; when the substrate stops
// responding and the caller cancels, the query returns context.Canceled
// promptly and every parked fetch goroutine is released.
func TestRangeCancellationStopsParallelFetches(t *testing.T) {
	b := &blockingDHT{DHT: dht.NewLocal()}
	ix, err := New(b, Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := ix.Insert(record.Record{Key: (float64(i) + 0.5) / n}); err != nil {
			t.Fatal(err)
		}
	}

	// Let the LCA fetch through so the query reaches its parallel
	// forwarding phase, then park everything after it.
	b.allow.Store(1)
	b.blocking.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := ix.RangeContext(ctx, 0, 1)
		done <- err
	}()

	// Wait for at least one fetch to park on the stalled substrate.
	waitUntil(t, "a fetch to park", func() bool { return b.inflight.Load() >= 1 })
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RangeContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RangeContext did not return after cancellation")
	}

	// Every parked goroutine must be released, not leaked.
	waitUntil(t, "parked fetches to drain", func() bool { return b.inflight.Load() == 0 })

	// The instrumented layer saw the cancelled operations.
	if s := ix.Metrics(); s.Retry.Cancellations < 1 {
		t.Fatalf("Cancellations = %d, want >= 1", s.Retry.Cancellations)
	}

	// The index remains fully usable on a fresh context.
	b.blocking.Store(false)
	recs, _, err := ix.Range(0, 1)
	if err != nil {
		t.Fatalf("range after cancellation: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("range after cancellation returned %d records, want %d", len(recs), n)
	}
}

// TestRangeDeadlineExpiry: a deadline that expires mid-query surfaces
// context.DeadlineExceeded and is tallied separately from cancellations.
func TestRangeDeadlineExpiry(t *testing.T) {
	b := &blockingDHT{DHT: dht.NewLocal()}
	ix, err := New(b, Config{SplitThreshold: 4, MergeThreshold: 0, Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := ix.Insert(record.Record{Key: (float64(i) + 0.5) / 32}); err != nil {
			t.Fatal(err)
		}
	}
	b.allow.Store(1)
	b.blocking.Store(true)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := ix.RangeContext(ctx, 0, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RangeContext = %v, want context.DeadlineExceeded", err)
	}
	waitUntil(t, "parked fetches to drain", func() bool { return b.inflight.Load() == 0 })
	if s := ix.Metrics(); s.Retry.DeadlineExceeded < 1 {
		t.Fatalf("DeadlineExceeded = %d, want >= 1", s.Retry.DeadlineExceeded)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
