package dht_test

import (
	"context"
	"testing"

	"lht/internal/dht"
	"lht/internal/dht/dhttest"
	"lht/internal/metrics"
)

func newCounters() *metrics.Counters { return &metrics.Counters{} }

func TestLocalConformance(t *testing.T) {
	dhttest.Run(t, func(t *testing.T) dht.DHT { return dht.NewLocal() }, dhttest.Options{})
}

func TestInstrumentedConformance(t *testing.T) {
	dhttest.Run(t, func(t *testing.T) dht.DHT {
		return dht.NewInstrumented(dht.NewLocal(), newCounters())
	}, dhttest.Options{})
}

func TestCrashPointsConformance(t *testing.T) {
	dhttest.RunCrashPoints(t, func(t *testing.T) dht.DHT { return dht.NewLocal() })
}

func TestLocalConditionalConformance(t *testing.T) {
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT { return dht.NewLocal() }, dhttest.Options{})
}

func TestInstrumentedConditionalConformance(t *testing.T) {
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		return dht.NewInstrumented(dht.NewLocal(), newCounters())
	}, dhttest.Options{})
}

func TestWithoutBatchConditionalConformance(t *testing.T) {
	// Stripping the batch plane must not strip (or fallback-degrade) the
	// conditional plane.
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		return dht.WithoutBatch(dht.NewLocal())
	}, dhttest.Options{})
}

// fallbackOnly hides every optional plane of a DHT, forcing DoPutIf and
// friends through the non-atomic fetch-verify emulation.
type fallbackOnly struct{ d dht.DHT }

func (f fallbackOnly) Get(ctx context.Context, key string) (dht.Value, error) {
	return f.d.Get(ctx, key)
}
func (f fallbackOnly) Put(ctx context.Context, key string, v dht.Value) error {
	return f.d.Put(ctx, key, v)
}
func (f fallbackOnly) Remove(ctx context.Context, key string) error { return f.d.Remove(ctx, key) }
func (f fallbackOnly) Write(ctx context.Context, key string, v dht.Value) error {
	return f.d.Write(ctx, key, v)
}

func TestFallbackConditionalConformance(t *testing.T) {
	// The fetch-verify emulation satisfies the single-client contract; its
	// atomicity-under-contention subtests are skipped (that is exactly
	// what it cannot provide — see Write.CASFallbacks).
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		return fallbackOnly{dht.NewLocal()}
	}, dhttest.Options{SkipConcurrency: true})
}
