package chord

import (
	"testing"

	"lht/internal/dht"
	"lht/internal/dht/dhttest"
)

func TestRingConformance(t *testing.T) {
	dhttest.Run(t, func(t *testing.T) dht.DHT {
		r, err := NewRing(8, Config{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}, dhttest.Options{Keys: 120})
}

func TestReplicatedRingConformance(t *testing.T) {
	dhttest.Run(t, func(t *testing.T) dht.DHT {
		r, err := NewRing(8, Config{Seed: 100, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}, dhttest.Options{Keys: 120})
}

func TestRingConditionalConformance(t *testing.T) {
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		r, err := NewRing(8, Config{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
}

func TestReplicatedRingConditionalConformance(t *testing.T) {
	// The CAS must hold across the whole replica set: a replicated write
	// is one atomic decision, not per-replica races.
	dhttest.RunConditional(t, func(t *testing.T) dht.DHT {
		r, err := NewRing(8, Config{Seed: 100, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
}

func TestRingCrashPointsConformance(t *testing.T) {
	// Crash schedules must decompose the ring's batched rounds per key, so
	// injected faults land on the same logical ops as in a per-op run.
	dhttest.RunCrashPoints(t, func(t *testing.T) dht.DHT {
		r, err := NewRing(8, Config{Seed: 101})
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
}
