package dht_test

import (
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
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT { return dht.NewLocal() })
}

func TestInstrumentedConditionalConformance(t *testing.T) {
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		return dht.NewInstrumented(dht.NewLocal(), newCounters())
	})
}

func TestWithoutBatchConditionalConformance(t *testing.T) {
	// Stripping the batch plane must not strip the conditional writes.
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		return dht.WithoutBatch(dht.NewLocal())
	})
}
